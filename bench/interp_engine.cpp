// Execution-engine comparison: tree-walk interpreter vs the compiled
// flat-plan VM (both serial only) vs the native JIT engine (both
// emission tiers; the interp tier serial and parallel), over the Fu-Liou
// SARB kernels (Table 1) and the FUN3D kernel program.
//
// Prints a table and writes BENCH_interp.json with per-kernel wall
// times and speedups plus the serial geometric-mean speedups over the
// SARB kernels (the checked-in acceptance numbers: plan >= 3x over
// tree-walk, native > 1x over plan, opt >= interp-tier native). Native
// rows are skipped (zeros) when no system compiler is present.
//
// The "serial opt" column is the NumericModel::kOpt tier: typed native
// storage, restrict pointers, -O3 with contraction (and -march=native
// unless GLAF_NATIVE_PORTABLE is set) — serial dispatch only, results
// within a ulp budget of the interpreter rather than bit-identical.
//
// Parallel native is measured twice: *gated* (the default measured
// profit gate, which keeps regions whose timed fork/join does not pay on
// the calling thread) and *ungated* (gate_always_dispatch, every region
// dispatched) — the gap between the two is what the gate buys.
// Fused-region counts come from the kernel unit's region list.
//
// Timing: every engine of a kernel gets its own machine, warmed past the
// gate's probe window, and the machines are timed in kReps (5)
// interleaved repetitions: each repetition times a slice of --min-seconds
// per machine, in turn, and records the slice's median call. A cell is
// the median over repetitions, so a burst of host load slows every column
// of one repetition instead of one column of the run.
//
// Usage: interp_engine [--threads N] [--levels N] [--min-seconds X]
//        [--out FILE] [--check-gate X]
// (--help prints the options and exits before running anything.)
//
// --check-gate X exits nonzero when any kernel's gated parallel-native
// speedup over serial native (the median over repetitions of the ratio
// of their back-to-back slices) is below X — the CI smoke that the gate
// never lets dispatch overhead win (0.9 allows measurement noise).
//
// The JSON also records the runtime's empty fork/join (20000
// back-to-back dispatches of an empty region: median, p90 and worker
// parks per dispatch) at 2 ranks and at --threads.
//
// --levels scales the SARB atmosphere (default 60, the paper's size):
// per-level extents and loop bounds are symbolic over the n_levels
// grid, so larger atmospheres give the threaded engines enough work
// per dispatch for the parallel rows to be meaningful. The checked-in
// BENCH_interp.json is regenerated on a 4-core host with:
//   bench/interp_engine --threads 4 --levels 4096 --min-seconds 0.05 --out BENCH_interp.json

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "interp/machine.hpp"
#include "runtime/thread_pool.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace glaf;

namespace {

/// The timed engines, in the order each repetition times them: serial
/// native right before gated and ungated, so the ratios the gate check
/// reads compare slices taken back to back.
enum Column {
  kTreeWalk,
  kPlan,
  kOpt,
  kNative,
  kGated,
  kUngated,
  kColumns
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct KernelResult {
  std::string suite;  ///< "sarb" or "fun3d"
  std::string name;
  /// Seconds per call in each repetition, per Column (empty when the
  /// engine was unavailable).
  std::array<std::vector<double>, kColumns> reps;
  /// ABI-v3 region metadata and gate activity from the gated machine.
  std::uint64_t regions_total = 0;
  std::uint64_t regions_fused = 0;
  std::uint64_t gated_regions = 0;

  /// Median seconds per call over the repetitions (0 when unavailable).
  [[nodiscard]] double s(Column c) const { return quantile(reps[c], 0.5); }
  [[nodiscard]] double iqr_s(Column c) const {
    return quantile(reps[c], 0.75) - quantile(reps[c], 0.25);
  }
  /// a / b as a speedup: the median over repetitions of the ratio within
  /// each, so host load that slows one repetition cancels (0 when either
  /// is missing).
  [[nodiscard]] double speedup(Column a, Column b) const {
    if (reps[a].size() != reps[b].size() || reps[a].empty()) return 0.0;
    std::vector<double> ratio;
    for (std::size_t i = 0; i < reps[a].size(); ++i) {
      ratio.push_back(reps[a][i] / reps[b][i]);
    }
    return quantile(std::move(ratio), 0.5);
  }
};

InterpOptions column_opts(Column c, int threads) {
  InterpOptions o;
  o.engine = c == kTreeWalk ? ExecEngine::kTreeWalk
             : c == kPlan   ? ExecEngine::kPlan
                            : ExecEngine::kNative;
  o.parallel = c == kGated || c == kUngated;
  o.num_threads = threads;
  o.gate_always_dispatch = c == kUngated;
  if (c == kOpt) o.native_model = NumericModel::kOpt;
  return o;
}

/// Calls before timing starts: past every measured gate site's probe
/// window (2 x 4 runs), so the repetitions time decided runs.
constexpr int kWarmupCalls = 10;

/// Interleaved repetitions per kernel; every cell is their median.
constexpr int kReps = 5;

/// Time every engine on `entry` in kReps interleaved repetitions. Native
/// machines must have actually loaded — a silent plan fallback would
/// report plan numbers under the native label; such a column stays 0.
KernelResult measure_kernel(const Program& program, const std::string& suite,
                            const std::string& entry, int threads,
                            double min_seconds,
                            const std::function<void(Machine&)>& prepare,
                            NativeReport* opt_report) {
  KernelResult r;
  r.suite = suite;
  r.name = entry;
  std::array<std::unique_ptr<Machine>, kColumns> machines;
  for (int c = 0; c < kColumns; ++c) {
    const InterpOptions opts = column_opts(static_cast<Column>(c), threads);
    auto m = std::make_unique<Machine>(program, opts);
    if (opts.engine == ExecEngine::kNative && !m->native_report().available) {
      std::fprintf(stderr, "interp_engine: native unavailable for %s: %s\n",
                   entry.c_str(), m->native_report().fallback_reason.c_str());
      continue;
    }
    if (prepare) prepare(*m);
    bool ok = true;
    for (int k = 0; k < kWarmupCalls && ok; ++k) {
      const StatusOr<double> call = m->call(entry);
      if (!call.is_ok()) {
        std::fprintf(stderr, "interp_engine: %s: %s\n", entry.c_str(),
                     call.status().message().c_str());
        ok = false;
      }
    }
    if (ok) machines[c] = std::move(m);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (int c = 0; c < kColumns; ++c) {
      if (!machines[c]) continue;
      std::vector<double> calls;
      double total = 0.0;
      while (calls.size() < 3 || total < min_seconds) {
        Timer t;
        (void)machines[c]->call(entry);
        calls.push_back(t.seconds());
        total += calls.back();
      }
      r.reps[c].push_back(quantile(std::move(calls), 0.5));
    }
  }
  if (machines[kGated]) {
    const NativeReport& rep = machines[kGated]->native_report();
    r.regions_total = rep.regions_total;
    r.regions_fused = rep.regions_fused;
    r.gated_regions = rep.gated_serial_regions;
  }
  if (machines[kOpt]) *opt_report = machines[kOpt]->native_report();
  return r;
}

/// The runtime's empty fork/join at `ranks`: back-to-back dispatches of
/// an empty region on a fresh pool.
struct ForkJoin {
  int ranks = 0;
  double median_us = 0.0;
  double p90_us = 0.0;
  double parks_per_dispatch = 0.0;
};

ForkJoin measure_fork_join(int ranks) {
  constexpr int kDispatches = 20000;
  ThreadPool pool(ranks);
  std::vector<double> us;
  us.reserve(kDispatches);
  for (int i = 0; i < kDispatches; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.parallel_for(ranks, [](int, std::int64_t, std::int64_t) {});
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  ForkJoin f;
  f.ranks = ranks;
  f.median_us = quantile(us, 0.5);
  f.p90_us = quantile(us, 0.9);
  f.parks_per_dispatch =
      pool.dispatches() > 0 ? static_cast<double>(pool.parks()) /
                                  static_cast<double>(pool.dispatches())
                            : 0.0;
  return f;
}

std::string fmt(double v, const char* spec = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

/// Geometric mean of the positive values.
double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  int n = 0;
  for (const double x : v) {
    if (x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

}  // namespace

constexpr const char* kUsage =
    "usage: interp_engine [--threads N] [--levels N] [--min-seconds X]\n"
    "                     [--out FILE] [--check-gate X]\n"
    "  --threads N      parallel engines' pool width (default 4)\n"
    "  --levels N       SARB atmosphere levels (default 60)\n"
    "  --min-seconds X  timed slice per machine and repetition (default "
    "0.05)\n"
    "  --out FILE       JSON report (default BENCH_interp.json)\n"
    "  --check-gate X   exit 1 when a gated parallel-native speedup over\n"
    "                   serial native is below X\n";

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::vector<std::string>& positional = args.positional();
  if (args.has("help") ||
      std::find(positional.begin(), positional.end(), "-h") !=
          positional.end()) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const int threads = static_cast<int>(args.get_int("threads", 4));
  const int levels =
      static_cast<int>(args.get_int("levels", fuliou::kNumLevels));
  const double min_seconds = args.get_double("min-seconds", 0.05);
  const std::string out_path = args.get("out", "BENCH_interp.json");
  const double check_gate = args.get_double("check-gate", 0.0);

  std::vector<KernelResult> results;
  // Provenance of the opt-tier kernels (compiler identity and the exact
  // flag set), recorded into the JSON so the checked-in numbers say what
  // produced them. Filled by the last successful opt measurement.
  NativeReport opt_report;

  // --- SARB: the six Table 1 subroutines, inputs from a synthetic
  // profile (the role the legacy FORTRAN modules play in the paper).
  const Program sarb = fuliou::build_sarb_program(levels);
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(1, levels);
  const auto load_sarb = [&](Machine& m) {
    const Status s = fuliou::load_profile(m, profile);
    if (!s.is_ok()) {
      std::fprintf(stderr, "interp_engine: load_profile: %s\n",
                   s.message().c_str());
    }
  };
  for (const std::string& name : fuliou::table1_subroutines()) {
    const Function* fn = sarb.find_function(name);
    if (fn == nullptr || !fn->params.empty()) continue;
    results.push_back(measure_kernel(sarb, "sarb", name, threads, min_seconds,
                                     load_sarb, &opt_report));
  }

  // --- FUN3D kernels: deterministic synthetic mesh inputs.
  const Program f3d = fun3d::build_fun3d_glaf_program();
  const auto load_f3d = [&](Machine& m) {
    std::vector<double> ea(fun3d::kGlafEdges), eb(fun3d::kGlafEdges);
    std::vector<double> w(fun3d::kGlafEdges), q(fun3d::kGlafNodes);
    for (int e = 0; e < fun3d::kGlafEdges; ++e) {
      ea[static_cast<std::size_t>(e)] = e % fun3d::kGlafNodes;
      eb[static_cast<std::size_t>(e)] = (e * 7 + 3) % fun3d::kGlafNodes;
      w[static_cast<std::size_t>(e)] = 0.25 + 0.5 * (e % 3);
    }
    for (int k = 0; k < fun3d::kGlafNodes; ++k) {
      q[static_cast<std::size_t>(k)] = 1.0 + 0.01 * k;
    }
    (void)m.set_array("edge_a", ea);
    (void)m.set_array("edge_b", eb);
    (void)m.set_array("w", w);
    (void)m.set_array("q", q);
  };
  for (const std::string& name : {std::string("edge_scatter"),
                                  std::string("smooth_q")}) {
    results.push_back(measure_kernel(f3d, "fun3d", name, threads, min_seconds,
                                     load_f3d, &opt_report));
  }

  // --- the runtime's empty fork/join, at 2 ranks and at --threads.
  std::vector<ForkJoin> fork_joins;
  for (const int ranks : std::set<int>{2, std::max(2, threads)}) {
    fork_joins.push_back(measure_fork_join(ranks));
  }

  // --- report
  TextTable table({"kernel", "serial treewalk", "serial plan",
                   "serial native", "serial opt", "plan x", "native x",
                   "opt x", "par native gated", "gated x",
                   "par native ungated", "ungated x", "regions",
                   "fused", "gated"});
  std::vector<Align> align(15, Align::kRight);
  align[0] = Align::kLeft;
  table.set_alignment(align);
  // Per-kernel speedups: plan over tree-walk; native and opt over the
  // *plan* engine (what the compile round-trip has to win, and the typed
  // tier's gain on the same denominator); gated and ungated parallel
  // native over *serial native* (what
  // threading the kernel buys on this host — the gap between the two is
  // what the gate saved by keeping regions that do not pay serial).
  const auto speedups = [](const KernelResult& r) {
    return std::array<double, 5>{
        r.speedup(kTreeWalk, kPlan), r.speedup(kPlan, kNative),
        r.speedup(kPlan, kOpt), r.speedup(kNative, kGated),
        r.speedup(kNative, kUngated)};
  };
  std::array<std::vector<double>, 5> sarb_speedups;
  int gate_violations = 0;
  for (const KernelResult& r : results) {
    const std::array<double, 5> x = speedups(r);
    if (r.suite == "sarb") {
      for (std::size_t i = 0; i < x.size(); ++i) sarb_speedups[i].push_back(x[i]);
    }
    if (check_gate > 0.0 && x[3] > 0.0 && x[3] < check_gate) {
      std::fprintf(stderr,
                   "interp_engine: GATE CHECK FAILED: %s/%s gated parallel"
                   " native is %.3fx serial native (< %.2fx; medians of %d"
                   " interleaved repetitions)\n",
                   r.suite.c_str(), r.name.c_str(), x[3], check_gate, kReps);
      ++gate_violations;
    }
    const auto us = [&](Column c) { return fmt(r.s(c) * 1e6) + " us"; };
    const auto times = [](double v) { return fmt(v, "%.2f") + "x"; };
    table.add_row({r.suite + "/" + r.name, us(kTreeWalk), us(kPlan),
                   us(kNative), us(kOpt), times(x[0]), times(x[1]),
                   times(x[2]), us(kGated), times(x[3]), us(kUngated),
                   times(x[4]),
                   std::to_string(r.regions_total),
                   std::to_string(r.regions_fused),
                   std::to_string(r.gated_regions)});
  }
  std::array<double, 5> geo{};
  for (std::size_t i = 0; i < geo.size(); ++i) geo[i] = geomean(sarb_speedups[i]);
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("== execution engines: tree-walk vs flat plans vs native JIT "
              "(%d threads for parallel rows, %u host cores, medians of %d "
              "interleaved repetitions) ==\n\n%s\n",
              threads, host_cores, kReps, table.render().c_str());
  std::printf("SARB serial geomean speedup (plan vs tree-walk):      %.2fx\n",
              geo[0]);
  std::printf("SARB serial geomean speedup (native vs plan):         %.2fx\n",
              geo[1]);
  std::printf("SARB serial geomean speedup (opt vs plan):            %.2fx\n",
              geo[2]);
  std::printf("SARB parallel geomean speedup (gated vs ser-native):  %.2fx\n",
              geo[3]);
  std::printf("SARB parallel geomean speedup (ungated vs ser-nat):   %.2fx\n",
              geo[4]);
  for (const ForkJoin& f : fork_joins) {
    std::printf("empty fork/join, %d ranks: median %.2f us, p90 %.2f us, "
                "%.3f parks per dispatch\n",
                f.ranks, f.median_us, f.p90_us, f.parks_per_dispatch);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "interp_engine: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"benchmark\": \"interp_engine\",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"levels\": " << levels << ",\n"
      << "  \"host_cores\": " << host_cores << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"regenerate\": \"bench/interp_engine --threads " << threads
      << " --levels " << levels << " --min-seconds " << fmt(min_seconds, "%g")
      << (check_gate > 0.0 ? cat(" --check-gate ", fmt(check_gate, "%g")) : "")
      << " --out BENCH_interp.json\",\n"
      << "  \"compiler\": \"" << opt_report.compiler << "\",\n"
      << "  \"compiler_version\": \"" << opt_report.compiler_version
      << "\",\n"
      << "  \"opt_compile_flags\": \"" << opt_report.compile_flags << "\",\n"
      << "  \"opt_host_key\": \"" << opt_report.host_key << "\",\n"
      << "  \"fork_join\": [\n";
  for (std::size_t i = 0; i < fork_joins.size(); ++i) {
    const ForkJoin& f = fork_joins[i];
    out << "    {\"ranks\": " << f.ranks << ", \"median_us\": "
        << fmt(f.median_us, "%.3f") << ", \"p90_us\": "
        << fmt(f.p90_us, "%.3f") << ", \"parks_per_dispatch\": "
        << fmt(f.parks_per_dispatch, "%.4f") << "}"
        << (i + 1 < fork_joins.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"kernels\": [\n";
  const char* names[kColumns] = {
      "serial_treewalk", "serial_plan",     "serial_opt",
      "serial_native",   "parallel_native", "parallel_native_ungated"};
  const char* speedup_names[5] = {
      "serial_speedup",          "serial_native_speedup",
      "serial_opt_speedup",      "parallel_native_speedup",
      "parallel_native_ungated_speedup"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    out << "    {\"suite\": \"" << r.suite << "\", \"name\": \"" << r.name
        << "\"";
    for (int c = 0; c < kColumns; ++c) {
      const auto col = static_cast<Column>(c);
      out << ", \"" << names[c] << "_s\": " << fmt(r.s(col), "%.6g")
          << ", \"" << names[c] << "_iqr_s\": " << fmt(r.iqr_s(col), "%.3g");
    }
    const std::array<double, 5> x = speedups(r);
    for (std::size_t k = 0; k < x.size(); ++k) {
      out << ", \"" << speedup_names[k] << "\": " << fmt(x[k], "%.3f");
    }
    out << ", \"regions_total\": " << r.regions_total
        << ", \"regions_fused\": " << r.regions_fused
        << ", \"gated_regions\": " << r.gated_regions << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"sarb_serial_geomean_speedup\": " << fmt(geo[0], "%.3f")
      << ",\n  \"sarb_serial_native_geomean_speedup\": "
      << fmt(geo[1], "%.3f")
      << ",\n  \"sarb_serial_opt_geomean_speedup\": " << fmt(geo[2], "%.3f")
      << ",\n  \"sarb_parallel_native_geomean_speedup\": "
      << fmt(geo[3], "%.3f")
      << ",\n  \"sarb_parallel_native_ungated_geomean_speedup\": "
      << fmt(geo[4], "%.3f") << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  if (gate_violations > 0) {
    std::fprintf(stderr, "interp_engine: %d kernel(s) failed the"
                 " --check-gate %.2f floor\n", gate_violations, check_gate);
    return 1;
  }
  return 0;
}
