#include "fuzz/oracle.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>

#include "analysis/parallelize.hpp"
#include "codegen/c.hpp"
#include "fuzz/generator.hpp"
#include "interp/machine.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "support/ulp.hpp"

namespace glaf::fuzz {
namespace {

constexpr int kMaxDivergencesPerBackend = 16;

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One comparable global: its grid and folded element count.
struct GlobalSpec {
  const Grid* grid = nullptr;
  std::int64_t elements = 1;
};

StatusOr<std::vector<GlobalSpec>> global_specs(const Program& p) {
  std::vector<GlobalSpec> specs;
  for (const GridId id : p.global_grids) {
    const Grid& g = p.grid(id);
    if (g.is_struct()) {
      return unimplemented(
          cat("oracle: struct grid '", g.name, "' is not supported"));
    }
    GlobalSpec spec;
    spec.grid = &g;
    for (const Dim& d : g.dims) {
      const auto v = fold_with_globals(p, *d.extent);
      if (!v) {
        return unimplemented(
            cat("oracle: grid '", g.name, "' has a non-constant extent"));
      }
      spec.elements *= static_cast<std::int64_t>(value_as_double(*v));
    }
    specs.push_back(spec);
  }
  return specs;
}

/// Deterministic inputs for external grids, derived from the grid *name*
/// so corpus replays are reproducible without knowing the original seed.
std::vector<double> external_inputs(const Grid& g, std::int64_t elements) {
  SplitMix64 rng(fnv1a64(g.name));
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(elements));
  for (std::int64_t i = 0; i < elements; ++i) {
    switch (g.elem_type) {
      case DataType::kInt:
        values.push_back(
            static_cast<double>(static_cast<std::int64_t>(rng.next_below(19)) - 9));
        break;
      case DataType::kLogical:
        values.push_back(static_cast<double>(rng.next_below(2)));
        break;
      default:
        values.push_back(rng.next_double() * 4.0 - 2.0);
        break;
    }
  }
  return values;
}

/// Final values of every global, in global_grids order.
using Snapshot = std::vector<std::vector<double>>;

/// Run `entry` on a Machine built with `options` and snapshot every global.
/// A native machine must really run the kernel: for programs that pass
/// global_specs the kernel must compile, load and dispatch, so a fallback
/// is an oracle error, not a silent plan-engine result.
StatusOr<Snapshot> run_machine(const Program& program,
                               const std::string& entry,
                               const std::vector<GlobalSpec>& specs,
                               const InterpOptions& options) {
  const bool native = options.engine == ExecEngine::kNative;
  try {
    Machine m(program, options);
    if (native && !m.native_report().available) {
      return internal_error(
          cat("kernel unavailable: ", m.native_report().fallback_reason));
    }
    for (const GlobalSpec& spec : specs) {
      if (spec.grid->external == ExternalKind::kNone) continue;
      const std::vector<double> inputs =
          external_inputs(*spec.grid, spec.elements);
      Status s = spec.grid->dims.empty()
                     ? m.set_scalar(spec.grid->name, inputs[0])
                     : m.set_array(spec.grid->name, inputs);
      if (!s.is_ok()) return s;
    }
    const StatusOr<double> result = m.call(entry);
    if (!result.is_ok()) return result.status();
    if (native && m.native_report().native_calls == 0) {
      return internal_error("entry call fell back to the plan engine");
    }
    Snapshot snap;
    for (const GlobalSpec& spec : specs) {
      if (spec.grid->dims.empty()) {
        const StatusOr<double> v = m.scalar(spec.grid->name);
        if (!v.is_ok()) return v.status();
        snap.push_back({v.value()});
      } else {
        StatusOr<std::vector<double>> v = m.array(spec.grid->name);
        if (!v.is_ok()) return v.status();
        snap.push_back(std::move(v).value());
      }
    }
    return snap;
  } catch (const std::exception& e) {
    return internal_error(cat(native ? "native engine" : "interpreter",
                              " exception: ", e.what()));
  }
}

std::string c_elem_type(DataType t) {
  switch (t) {
    case DataType::kInt: return "long";
    case DataType::kReal: return "float";
    case DataType::kLogical: return "int";
    default: return "double";
  }
}

std::string c_base_name(const Grid& g) {
  if (g.external == ExternalKind::kCommon) {
    return cat(g.common_block, "_.", g.name);
  }
  return g.name;
}

/// The appended driver: defines storage for external grids (the role the
/// legacy FORTRAN objects play in the paper), feeds the deterministic
/// inputs, calls the entry point and prints every global element-wise.
std::string harness_text(const std::string& entry,
                         const std::vector<GlobalSpec>& specs) {
  std::vector<std::string> out;
  out.push_back("");
  out.push_back("/* ---- differential-oracle harness ---- */");
  out.push_back("#include <stdio.h>");
  // Storage definitions for imported-module variables and COMMON blocks.
  std::map<std::string, bool> common_defined;
  for (const GlobalSpec& spec : specs) {
    const Grid& g = *spec.grid;
    if (g.external == ExternalKind::kModule) {
      const std::string suffix =
          g.dims.empty() ? "" : cat("[", spec.elements, "]");
      out.push_back(cat(c_elem_type(g.elem_type), " ", g.name, suffix, ";"));
    } else if (g.external == ExternalKind::kCommon &&
               !common_defined[g.common_block]) {
      common_defined[g.common_block] = true;
      out.push_back(cat("struct ", g.common_block, "_common ",
                        g.common_block, "_;"));
    }
  }
  out.push_back("int main(void) {");
  for (const GlobalSpec& spec : specs) {
    const Grid& g = *spec.grid;
    if (g.external == ExternalKind::kNone) continue;
    const std::vector<double> inputs = external_inputs(g, spec.elements);
    for (std::int64_t i = 0; i < spec.elements; ++i) {
      const std::string lhs =
          g.dims.empty() ? c_base_name(g) : cat(c_base_name(g), "[", i, "]");
      out.push_back(cat("  ", lhs, " = (", c_elem_type(g.elem_type), ")",
                        fmt17(inputs[static_cast<std::size_t>(i)]), ";"));
    }
  }
  out.push_back(cat("  ", entry, "();"));
  for (const GlobalSpec& spec : specs) {
    const Grid& g = *spec.grid;
    if (g.dims.empty()) {
      out.push_back(cat("  printf(\"%.17g\\n\", (double)", c_base_name(g),
                        ");"));
    } else {
      out.push_back(cat("  { long i; for (i = 0; i < ", spec.elements,
                        "; ++i) printf(\"%.17g\\n\", (double)", c_base_name(g),
                        "[i]); }"));
    }
  }
  out.push_back("  return 0;");
  out.push_back("}");
  return join(out, "\n");
}

StatusOr<Snapshot> run_compiled_c(const Program& program,
                                  const std::string& entry,
                                  const std::vector<GlobalSpec>& specs,
                                  const OracleOptions& opts) {
  const ProgramAnalysis analysis = analyze_program(program);
  CodegenOptions copts;
  copts.language = Language::kC;
  copts.enable_openmp = false;  // the serial C build of §4.1.1
  copts.emit_comments = false;
  std::string source = generate_c(program, analysis, copts).source;
  if (opts.c_source_transform) source = opts.c_source_transform(source);
  source += harness_text(entry, specs);

  static std::atomic<int> counter{0};
  const std::string stem = cat(opts.work_dir, "/glaf_fuzz_", getpid(), "_",
                               counter.fetch_add(1));
  const std::string src_path = cat(stem, ".c");
  const std::string bin_path = cat(stem, ".bin");
  {
    std::ofstream out(src_path);
    if (!out) return internal_error(cat("cannot write ", src_path));
    out << source;
  }
  // -ffp-contract=off: FMA contraction would produce differently-rounded
  // results than the interpreter's plain double arithmetic.
  const RunResult compile = run_command(cat(
      opts.cc, " -O1 -ffp-contract=off -o ", bin_path, " ", src_path, " -lm"));
  if (!compile.ok()) {
    std::remove(src_path.c_str());
    if (!compile.started) {
      return internal_error("C compilation failed: compiler did not start");
    }
    return internal_error(
        cat("C compilation failed: ", compile.output.substr(0, 2000)));
  }
  const RunResult run = run_command(bin_path);
  std::remove(src_path.c_str());
  std::remove(bin_path.c_str());
  if (!run.ok()) {
    if (!run.started) {
      return internal_error("compiled program did not start");
    }
    return internal_error(cat("compiled program exited with status ",
                                run.exit_code));
  }

  std::vector<double> values;
  const char* cursor = run.output.c_str();
  char* end = nullptr;
  for (double v = std::strtod(cursor, &end); end != cursor;
       v = std::strtod(cursor, &end)) {
    values.push_back(v);
    cursor = end;
  }
  std::int64_t expected = 0;
  for (const GlobalSpec& spec : specs) expected += spec.elements;
  if (static_cast<std::int64_t>(values.size()) != expected) {
    return internal_error(cat("compiled program printed ", values.size(),
                                " values, expected ", expected));
  }
  Snapshot snap;
  std::size_t at = 0;
  for (const GlobalSpec& spec : specs) {
    snap.emplace_back(values.begin() + static_cast<std::ptrdiff_t>(at),
                      values.begin() +
                          static_cast<std::ptrdiff_t>(at + spec.elements));
    at += static_cast<std::size_t>(spec.elements);
  }
  return snap;
}

/// How a backend's snapshot is held to the reference. The bitwise and
/// tolerance modes are rtol/atol with NaN==NaN (rtol=atol=0 for exact
/// backends); the opt tier instead forks to the ulp comparator, whose
/// budget is the numeric contract that emission tier advertises.
struct Comparator {
  double rtol = 0.0;
  double atol = 0.0;
  bool use_ulp = false;
  std::uint64_t max_ulp = 0;
};

bool values_close(double a, double b, const Comparator& cmp) {
  if (cmp.use_ulp) return ulp_close(a, b, cmp.max_ulp, cmp.rtol, cmp.atol);
  if (std::isnan(a) && std::isnan(b)) return true;
  if (a == b) return true;  // covers equal infinities
  return std::fabs(a - b) <=
         cmp.atol + cmp.rtol * std::max(std::fabs(a), std::fabs(b));
}

void compare_snapshots(const std::string& backend, const Snapshot& reference,
                       const Snapshot& actual,
                       const std::vector<GlobalSpec>& specs,
                       const Comparator& cmp, OracleReport* report) {
  ++report->backends_compared;
  int reported = 0;
  for (std::size_t g = 0; g < specs.size(); ++g) {
    for (std::size_t i = 0; i < reference[g].size(); ++i) {
      if (values_close(reference[g][i], actual[g][i], cmp)) continue;
      if (reported++ >= kMaxDivergencesPerBackend) return;
      report->divergences.push_back(Divergence{
          backend, specs[g].grid->name, static_cast<std::int64_t>(i),
          reference[g][i], actual[g][i]});
    }
  }
}

/// One in-process backend: a Machine configuration and how its snapshot
/// is held to the reference. `ran` names the OracleReport flag the leg
/// sets when it produces a snapshot (nullptr: none).
struct Leg {
  std::string name;
  InterpOptions options;
  Comparator cmp;
  bool OracleReport::*ran = nullptr;
};

}  // namespace

StatusOr<std::string> find_entry(const Program& program) {
  for (const Function& fn : program.functions) {
    if (fn.name == kEntryName) return std::string(fn.name);
  }
  for (const Function& fn : program.functions) {
    if (fn.return_type == DataType::kVoid && fn.params.empty()) {
      return std::string(fn.name);
    }
  }
  return not_found("no zero-parameter subroutine to use as entry");
}

OracleReport run_oracle(const Program& program, const std::string& entry,
                        const OracleOptions& opts) {
  OracleReport report;
  StatusOr<std::vector<GlobalSpec>> specs = global_specs(program);
  if (!specs.is_ok()) {
    report.errors.push_back(std::string(specs.status().message()));
    return report;
  }

  // The reference is always the serial tree-walk: it is the semantic
  // definition both the plan engine and the generated code must match.
  InterpOptions serial;
  serial.engine = ExecEngine::kTreeWalk;
  serial.parallel = false;
  const StatusOr<Snapshot> reference =
      run_machine(program, entry, specs.value(), serial);
  if (!reference.is_ok()) {
    report.errors.push_back(
        cat("serial interpreter: ", reference.status().message()));
    return report;
  }

  // Interpreter-family and subprocess-C legs merge parallel reductions
  // within the configured tolerance. interp_math emission promises
  // bit-identical arithmetic, so the interp-tier native legs (serial and
  // parallel alike) and the deterministic plan legs are exact (NaN==NaN).
  // The opt tier rounds differently by design (-O3, contraction on, typed
  // storage), so its leg forks to the ulp budget that tier advertises.
  const Comparator tol{opts.rtol, opts.atol, false, 0};
  const Comparator exact{};
  const Comparator ulp{opts.opt_rtol, opts.opt_atol, true, opts.opt_max_ulp};

  const auto plan = [&](bool parallel, DirectivePolicy policy,
                        bool deterministic) {
    InterpOptions o;
    o.engine = ExecEngine::kPlan;
    o.parallel = parallel;
    o.num_threads = opts.num_threads;
    o.policy = policy;
    o.deterministic_parallel = deterministic;
    return o;
  };
  // Native legs run the kernels that ship (the engine's defaults) with
  // one deviation: the oracle exists to exercise the dispatch paths, so
  // the profit gate must not divert regions to serial (the measured gate
  // would keep most fuzz-sized regions serial, and a single-core host
  // all).
  const auto native = [&](bool parallel, DirectivePolicy policy,
                          NumericModel model) {
    InterpOptions o;
    o.engine = ExecEngine::kNative;
    o.parallel = parallel;
    o.num_threads = opts.num_threads;
    o.policy = policy;
    o.native_model = model;
    o.gate_always_dispatch = true;
    o.native_cc = opts.cc;
    o.native_cache_dir = opts.native_cache_dir.empty()
                             ? cat(opts.work_dir, "/glaf-fuzz-kernels")
                             : opts.native_cache_dir;
    return o;
  };

  std::vector<Leg> legs;
  if (opts.run_plan) {
    legs.push_back({"plan", plan(false, DirectivePolicy::kV0, false), tol});
    if (opts.run_parallel) {
      for (const DirectivePolicy policy : opts.policies) {
        legs.push_back({cat("parallel-", to_string(policy), "-plan"),
                        plan(true, policy, false), tol});
      }
    }
  }
  if (opts.run_native && cc_available(opts.cc)) {
    legs.push_back({"native",
                    native(false, DirectivePolicy::kV0, NumericModel::kInterp),
                    exact, &OracleReport::native_backend_ran});
  }
  if (opts.run_native_parallel && cc_available(opts.cc)) {
    // Each parallel kernel threads bit-exact steps and runs everything
    // else serially, so it is bitwise equal to the serial reference by
    // construction. The plan engine under the same deterministic contract
    // closes the triangle: parallel-native == reference ==
    // parallel-plan-det.
    for (const DirectivePolicy policy : opts.policies) {
      legs.push_back({cat("parallel-", to_string(policy), "-native"),
                      native(true, policy, NumericModel::kInterp), exact,
                      &OracleReport::native_backend_ran});
      legs.push_back({cat("parallel-", to_string(policy), "-plan-det"),
                      plan(true, policy, true), exact});
    }
  }
  if (opts.run_native_opt && cc_available(opts.cc)) {
    legs.push_back({"native-opt",
                    native(false, DirectivePolicy::kV0, NumericModel::kOpt),
                    ulp, &OracleReport::opt_backend_ran});
  }

  const auto record = [&](const std::string& name,
                          const StatusOr<Snapshot>& snap,
                          const Comparator& cmp, bool OracleReport::*ran) {
    if (!snap.is_ok()) {
      report.errors.push_back(cat(name, ": ", snap.status().message()));
      return;
    }
    if (ran != nullptr) report.*ran = true;
    compare_snapshots(name, reference.value(), snap.value(), specs.value(),
                      cmp, &report);
  };
  for (const Leg& leg : legs) {
    record(leg.name, run_machine(program, entry, specs.value(), leg.options),
           leg.cmp, leg.ran);
  }
  if (opts.run_compiled_c && cc_available(opts.cc)) {
    record("c", run_compiled_c(program, entry, specs.value(), opts), tol,
           &OracleReport::c_backend_ran);
  }
  return report;
}

}  // namespace glaf::fuzz
