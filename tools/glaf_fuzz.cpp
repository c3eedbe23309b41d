// glaf-fuzz — property-based fuzzer driving the multi-backend
// differential oracle. Generates random valid GLAF programs, runs each
// through the serial interpreters, the native JIT kernel and the
// compiled C back-end (with --parallel, also the parallel kernels and
// the OpenMP C builds under every directive policy), and reports any
// divergence. Failing cases are greedily shrunk and written as repro
// files that replay byte-identically from the recorded seed.
//
// Usage:
//   glaf-fuzz --seeds 0:200            sweep a seed range
//   glaf-fuzz --time-budget 60         sweep from --seeds start until the
//                                      wall-clock budget (seconds) runs out
//   glaf-fuzz --shrink                 shrink failures before reporting
//   glaf-fuzz --repro-dir DIR          write <DIR>/seed<N>.glaf on failure
//   glaf-fuzz --replay FILE.glaf       run the oracle on one repro file
//   glaf-fuzz --dump-seed N            print the generated program and exit
//   glaf-fuzz --no-cc                  skip the compiled-C backend
//   glaf-fuzz --no-native              skip the in-process native JIT backend
//   glaf-fuzz --engine=E               plan (default) runs the serial plan leg
//                                      beside the native and C backends;
//                                      native runs only the in-process JIT
//                                      legs (no plan leg, no subprocess C)
//   glaf-fuzz --parallel               add, under every selected policy, the
//                                      parallel-native leg (bitwise) and the
//                                      OpenMP C leg at --threads (within the
//                                      tolerance; needs the C backend, and
//                                      skipped with a note when cc -fopenmp
//                                      does not link)
//   glaf-fuzz --policies=all|v0,v2,..  directive policies for those legs
//                                      (default all of v0..v3)
//   glaf-fuzz --emit=opt               add the opt-tier native leg (typed
//                                      storage, -O3, contraction on). The
//                                      comparator forks: every interp-tier
//                                      leg stays bitwise while this leg is
//                                      held to a per-element ulp budget
//   glaf-fuzz --max-ulp N              that budget (default 64); --opt-rtol
//                                      and --opt-atol add a tolerance band
//                                      on top for finite values
//   glaf-fuzz --threads N --rtol X --atol X
//
// Duplicate generated programs (identical serialized text from different
// seeds) are deduplicated by a stable FNV-1a digest and run once.
//
// Exit status: 0 all seeds agreed, 1 divergence found, 2 usage/setup error.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/rewrite.hpp"
#include "core/serialize.hpp"
#include "core/validate.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "support/hash.hpp"

namespace {

using namespace glaf;
using namespace glaf::fuzz;

struct CliOptions {
  std::uint64_t seed_begin = 0;
  std::uint64_t seed_end = 100;  // exclusive
  double time_budget_s = 0.0;    // 0 = no budget, run the whole range
  bool shrink = false;
  std::string repro_dir;
  std::string replay_path;
  bool dump = false;
  std::uint64_t dump_seed = 0;
  OracleOptions oracle;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds A:B] [--time-budget SECONDS] [--shrink]\n"
               "          [--repro-dir DIR] [--replay FILE] [--dump-seed N]\n"
               "          [--threads N] [--rtol X] [--atol X] [--no-cc]\n"
               "          [--no-native] [--parallel]\n"
               "          [--policies=all|v0,v1,...] [--engine=plan|native]\n"
               "          [--emit=interp|opt] [--max-ulp N]\n"
               "          [--opt-rtol X] [--opt-atol X]\n",
               argv0);
}

bool parse_args(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* colon = std::strchr(v, ':');
      if (colon == nullptr) return false;
      opts->seed_begin = std::strtoull(v, nullptr, 10);
      opts->seed_end = std::strtoull(colon + 1, nullptr, 10);
    } else if (arg == "--time-budget") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->time_budget_s = std::strtod(v, nullptr);
    } else if (arg == "--shrink") {
      opts->shrink = true;
    } else if (arg == "--repro-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->repro_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->replay_path = v;
    } else if (arg == "--dump-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->dump = true;
      opts->dump_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->oracle.num_threads = std::atoi(v);
    } else if (arg == "--rtol") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->oracle.rtol = std::strtod(v, nullptr);
    } else if (arg == "--atol") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->oracle.atol = std::strtod(v, nullptr);
    } else if (arg == "--no-cc") {
      opts->oracle.run_compiled_c = false;
    } else if (arg == "--no-native") {
      opts->oracle.run_native = false;
    } else if (arg == "--parallel") {
      opts->oracle.run_native_parallel = true;
    } else if (arg.rfind("--policies", 0) == 0) {
      std::string value;
      if (arg.size() > 10 && arg[10] == '=') {
        value = arg.substr(11);
      } else if (arg.size() == 10) {
        const char* v = next();
        if (v == nullptr) return false;
        value = v;
      } else {
        return false;
      }
      if (value != "all") {
        std::vector<DirectivePolicy> policies;
        std::size_t at = 0;
        while (at <= value.size()) {
          const std::size_t comma = value.find(',', at);
          const std::string name = value.substr(
              at, comma == std::string::npos ? comma : comma - at);
          if (name == "v0") {
            policies.push_back(DirectivePolicy::kV0);
          } else if (name == "v1") {
            policies.push_back(DirectivePolicy::kV1);
          } else if (name == "v2") {
            policies.push_back(DirectivePolicy::kV2);
          } else if (name == "v3") {
            policies.push_back(DirectivePolicy::kV3);
          } else {
            std::fprintf(stderr, "unknown policy: %s\n", name.c_str());
            return false;
          }
          if (comma == std::string::npos) break;
          at = comma + 1;
        }
        opts->oracle.policies = policies;
      }
    } else if (arg.rfind("--engine", 0) == 0) {
      std::string value;
      if (arg.size() > 8 && arg[8] == '=') {
        value = arg.substr(9);
      } else if (arg.size() == 8) {
        const char* v = next();
        if (v == nullptr) return false;
        value = v;
      } else {
        return false;
      }
      if (value == "plan") {
        opts->oracle.run_plan = true;
      } else if (value == "native") {
        // The fast in-process oracle: serial tree-walk reference vs the
        // JIT kernel, no plan legs and no subprocess C round-trip.
        opts->oracle.run_plan = false;
        opts->oracle.run_native = true;
        opts->oracle.run_compiled_c = false;
      } else {
        std::fprintf(stderr, "unknown engine: %s\n", value.c_str());
        return false;
      }
    } else if (arg.rfind("--emit", 0) == 0) {
      std::string value;
      if (arg.size() > 6 && arg[6] == '=') {
        value = arg.substr(7);
      } else if (arg.size() == 6) {
        const char* v = next();
        if (v == nullptr) return false;
        value = v;
      } else {
        return false;
      }
      if (value == "interp") {
        opts->oracle.run_native_opt = false;
      } else if (value == "opt") {
        opts->oracle.run_native_opt = true;
      } else {
        std::fprintf(stderr, "unknown emit tier: %s\n", value.c_str());
        return false;
      }
    } else if (arg.rfind("--max-ulp", 0) == 0) {
      std::string value;
      if (arg.size() > 9 && arg[9] == '=') {
        value = arg.substr(10);
      } else if (arg.size() == 9) {
        const char* v = next();
        if (v == nullptr) return false;
        value = v;
      } else {
        return false;
      }
      opts->oracle.opt_max_ulp = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--opt-rtol") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->oracle.opt_rtol = std::strtod(v, nullptr);
    } else if (arg == "--opt-atol") {
      const char* v = next();
      if (v == nullptr) return false;
      opts->oracle.opt_atol = std::strtod(v, nullptr);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void print_report(const OracleReport& report) {
  for (const std::string& err : report.errors) {
    std::fprintf(stderr, "    error: %s\n", err.c_str());
  }
  for (const Divergence& d : report.divergences) {
    std::fprintf(stderr, "    %s: %s[%lld] expected %.17g got %.17g\n",
                 d.backend.c_str(), d.grid.c_str(),
                 static_cast<long long>(d.index), d.expected, d.actual);
  }
}

/// Shrink a failing program down while the oracle keeps disagreeing.
Program shrink_failure(const Program& program, const std::string& entry,
                       const OracleOptions& oracle_opts, ShrinkStats* stats) {
  ShrinkOptions sopts;
  sopts.protected_function = entry;
  return shrink_program(
      program,
      [&](const Program& candidate) {
        const OracleReport r = run_oracle(candidate, entry, oracle_opts);
        return !r.divergences.empty();
      },
      sopts, stats);
}

int handle_failure(const Program& program, const std::string& entry,
                   std::uint64_t seed, const OracleReport& report,
                   const CliOptions& opts) {
  print_report(report);
  Program final_program = program;
  if (opts.shrink && !report.divergences.empty()) {
    ShrinkStats stats;
    final_program = shrink_failure(program, entry, opts.oracle, &stats);
    std::fprintf(stderr,
                 "    shrunk to %lld statements (%d candidates, %d accepted)\n",
                 static_cast<long long>(count_statements(final_program)),
                 stats.candidates_tried, stats.candidates_accepted);
  }
  if (!opts.repro_dir.empty()) {
    ReproInfo info;
    info.seed = seed;
    info.note = report.divergences.empty()
                    ? (report.errors.empty() ? "divergence" : report.errors[0])
                    : report.divergences[0].backend + " diverged on " +
                          report.divergences[0].grid;
    const std::string path =
        opts.repro_dir + "/seed" + std::to_string(seed) + ".glaf";
    const Status st = write_repro(path, final_program, info);
    if (st.is_ok()) {
      std::fprintf(stderr, "    repro written: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "    repro write failed: %s\n",
                   st.message().c_str());
    }
  }
  return 1;
}

int replay(const CliOptions& opts) {
  auto loaded = load_repro(opts.replay_path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "replay: %s\n", loaded.status().message().c_str());
    return 2;
  }
  const Program program = std::move(loaded).value();
  auto entry = find_entry(program);
  if (!entry.is_ok()) {
    std::fprintf(stderr, "replay: %s\n", entry.status().message().c_str());
    return 2;
  }
  const OracleReport report = run_oracle(program, entry.value(), opts.oracle);
  if (report.agreed()) {
    std::printf("replay %s: %d backends agreed\n", opts.replay_path.c_str(),
                report.backends_compared);
    return 0;
  }
  std::fprintf(stderr, "replay %s: FAILED\n", opts.replay_path.c_str());
  print_report(report);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  opts.oracle.cc = default_cc();  // honor GLAF_CC for both compiled legs
  if (!parse_args(argc, argv, &opts)) {
    usage(argv[0]);
    return 2;
  }

  if (!opts.replay_path.empty()) return replay(opts);

  if (opts.dump) {
    auto generated = generate_program(opts.dump_seed);
    if (!generated.is_ok()) {
      std::fprintf(stderr, "seed %llu: generator failed: %s\n",
                   static_cast<unsigned long long>(opts.dump_seed),
                   generated.status().message().c_str());
      return 2;
    }
    std::printf("; glaf-fuzz repro\n; seed: %llu\n%s",
                static_cast<unsigned long long>(opts.dump_seed),
                serialize_program(generated.value().program).c_str());
    return 0;
  }

  if ((opts.oracle.run_compiled_c || opts.oracle.run_native ||
       opts.oracle.run_native_parallel || opts.oracle.run_native_opt) &&
      !cc_available(opts.oracle.cc)) {
    std::fprintf(stderr,
                 "note: compiler '%s' unavailable, skipping the C and"
                 " native backends\n",
                 opts.oracle.cc.c_str());
    opts.oracle.run_compiled_c = false;
    opts.oracle.run_native = false;
    opts.oracle.run_native_parallel = false;
    opts.oracle.run_native_opt = false;
  }
  if (opts.oracle.run_native_parallel && opts.oracle.run_compiled_c &&
      !openmp_available(opts.oracle.cc)) {
    std::fprintf(stderr,
                 "note: '%s -fopenmp' does not link, skipping the OpenMP C"
                 " backends\n",
                 opts.oracle.cc.c_str());
  }

  const auto start = std::chrono::steady_clock::now();
  auto out_of_budget = [&]() {
    if (opts.time_budget_s <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= opts.time_budget_s;
  };

  int failures = 0;
  std::uint64_t ran = 0;
  std::uint64_t duplicates = 0;
  std::set<std::uint64_t> seen_digests;
  const std::uint64_t end =
      opts.time_budget_s > 0.0 && opts.seed_end <= opts.seed_begin
          ? UINT64_MAX
          : opts.seed_end;
  for (std::uint64_t seed = opts.seed_begin; seed < end; ++seed) {
    if (out_of_budget()) break;
    auto generated = generate_program(seed);
    if (!generated.is_ok()) {
      std::fprintf(stderr, "seed %llu: generator failed: %s\n",
                   static_cast<unsigned long long>(seed),
                   generated.status().message().c_str());
      ++failures;
      continue;
    }
    const FuzzProgram& fp = generated.value();
    if (!seen_digests.insert(fnv1a64(serialize_program(fp.program))).second) {
      ++duplicates;  // identical program already exercised this sweep
      continue;
    }
    const OracleReport report = run_oracle(fp.program, fp.entry, opts.oracle);
    ++ran;
    if (!report.agreed()) {
      std::fprintf(stderr, "seed %llu: DIVERGED\n",
                   static_cast<unsigned long long>(seed));
      handle_failure(fp.program, fp.entry, seed, report, opts);
      ++failures;
    }
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf("glaf-fuzz: %llu seeds, %llu duplicates skipped, %d failures,"
              " %.1fs\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(duplicates), failures,
              elapsed.count());
  return failures == 0 ? 0 : 1;
}
