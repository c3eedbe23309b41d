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

StatusOr<Snapshot> run_interpreter(const Program& program,
                                   const std::string& entry,
                                   const std::vector<GlobalSpec>& specs,
                                   const InterpOptions& options) {
  try {
    Machine m(program, options);
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
    return internal_error(cat("interpreter exception: ", e.what()));
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

/// The in-process native leg: the program is JIT-compiled to a shared
/// object (src/jit) and the entry call runs inside this process. Any
/// fallback is an oracle error — for programs that pass global_specs the
/// kernel must compile, load and dispatch, or the engine has a bug.
/// `parallel` runs the host-driven parallel kernel under `policy`; its
/// results must still be bit-identical to the serial reference.
StatusOr<Snapshot> run_native(const Program& program, const std::string& entry,
                              const std::vector<GlobalSpec>& specs,
                              const OracleOptions& opts, bool parallel,
                              DirectivePolicy policy, bool fuse = false,
                              NumericModel model = NumericModel::kInterp) {
  try {
    InterpOptions nopts;
    nopts.engine = ExecEngine::kNative;
    nopts.parallel = parallel;
    nopts.num_threads = opts.num_threads;
    nopts.policy = policy;
    nopts.deterministic_parallel = parallel;
    nopts.fuse_regions = fuse;
    nopts.native_model = model;
    // The oracle exists to exercise the dispatch paths, so the profit
    // gate must not divert regions to serial (the measured gate would
    // keep most fuzz-sized regions serial, and a single-core host all).
    nopts.gate_min_units = 0;
    nopts.native_cc = opts.cc;
    nopts.native_cache_dir = opts.native_cache_dir.empty()
                                 ? cat(opts.work_dir, "/glaf-fuzz-kernels")
                                 : opts.native_cache_dir;
    Machine m(program, nopts);
    if (!m.native_report().available) {
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
    if (m.native_report().native_calls == 0) {
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
    return internal_error(cat("native engine exception: ", e.what()));
  }
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

  // Interpreter-family and subprocess-C legs merge parallel reductions
  // within the configured tolerance; exact backends are bitwise.
  const Comparator tol{opts.rtol, opts.atol, false, 0};

  // The reference is always the serial tree-walk: it is the semantic
  // definition both the plan engine and the generated code must match.
  InterpOptions serial;
  serial.engine = ExecEngine::kTreeWalk;
  serial.parallel = false;
  const StatusOr<Snapshot> reference =
      run_interpreter(program, entry, specs.value(), serial);
  if (!reference.is_ok()) {
    report.errors.push_back(
        cat("serial interpreter: ", reference.status().message()));
    return report;
  }

  if (opts.run_plan) {
    InterpOptions plan_serial;
    plan_serial.engine = ExecEngine::kPlan;
    plan_serial.parallel = false;
    const StatusOr<Snapshot> snap =
        run_interpreter(program, entry, specs.value(), plan_serial);
    if (!snap.is_ok()) {
      report.errors.push_back(cat("plan: ", snap.status().message()));
    } else {
      compare_snapshots("plan", reference.value(), snap.value(),
                        specs.value(), tol, &report);
    }
  }

  if (opts.run_parallel && opts.run_plan) {
    for (const DirectivePolicy policy : opts.policies) {
      InterpOptions popts;
      popts.engine = ExecEngine::kPlan;
      popts.parallel = true;
      popts.num_threads = opts.num_threads;
      popts.policy = policy;
      const StatusOr<Snapshot> snap =
          run_interpreter(program, entry, specs.value(), popts);
      const std::string backend = cat("parallel-", to_string(policy), "-plan");
      if (!snap.is_ok()) {
        report.errors.push_back(cat(backend, ": ", snap.status().message()));
        continue;
      }
      compare_snapshots(backend, reference.value(), snap.value(),
                        specs.value(), tol, &report);
    }
  }

  // interp_math emission promises bit-identical arithmetic, so the
  // native legs — serial and parallel alike — are held to exact
  // equality (NaN==NaN), not the reassociation tolerance above.
  const Comparator exact{};

  if (opts.run_native && cc_available(opts.cc)) {
    const StatusOr<Snapshot> snap = run_native(
        program, entry, specs.value(), opts, false, DirectivePolicy::kV0);
    if (!snap.is_ok()) {
      report.errors.push_back(cat("native: ", snap.status().message()));
    } else {
      report.native_backend_ran = true;
      compare_snapshots("native", reference.value(), snap.value(),
                        specs.value(), exact, &report);
    }
  }

  if (opts.run_native_parallel && cc_available(opts.cc)) {
    for (const DirectivePolicy policy : opts.policies) {
      // The parallel kernel: threaded range functions for bit-exact
      // steps, serial execution for everything else — bitwise equal to
      // the serial reference by construction.
      const std::string backend =
          cat("parallel-", to_string(policy), "-native");
      const StatusOr<Snapshot> snap =
          run_native(program, entry, specs.value(), opts, true, policy);
      if (!snap.is_ok()) {
        report.errors.push_back(cat(backend, ": ", snap.status().message()));
      } else {
        report.native_backend_ran = true;
        compare_snapshots(backend, reference.value(), snap.value(),
                          specs.value(), exact, &report);
      }
      // The plan engine under the same deterministic contract closes
      // the triangle: parallel-native == reference == parallel-plan-det.
      InterpOptions dopts;
      dopts.engine = ExecEngine::kPlan;
      dopts.parallel = true;
      dopts.num_threads = opts.num_threads;
      dopts.policy = policy;
      dopts.deterministic_parallel = true;
      const std::string det_backend =
          cat("parallel-", to_string(policy), "-plan-det");
      const StatusOr<Snapshot> det_snap =
          run_interpreter(program, entry, specs.value(), dopts);
      if (!det_snap.is_ok()) {
        report.errors.push_back(
            cat(det_backend, ": ", det_snap.status().message()));
      } else {
        compare_snapshots(det_backend, reference.value(), det_snap.value(),
                          specs.value(), exact, &report);
      }
    }
  }

  if (opts.run_native_fused && cc_available(opts.cc)) {
    for (const DirectivePolicy policy : opts.policies) {
      // The same parallel kernel with adjacent fusable steps merged
      // into single range entry points (ABI v3): fusion only changes
      // how many fork/joins the dispatch costs, so the leg is held to
      // the same bitwise contract as the unfused one.
      const std::string backend =
          cat("parallel-", to_string(policy), "-fused-native");
      const StatusOr<Snapshot> snap = run_native(
          program, entry, specs.value(), opts, true, policy, true);
      if (!snap.is_ok()) {
        report.errors.push_back(cat(backend, ": ", snap.status().message()));
      } else {
        report.native_backend_ran = true;
        compare_snapshots(backend, reference.value(), snap.value(),
                          specs.value(), exact, &report);
      }
    }
  }

  if (opts.run_native_opt && cc_available(opts.cc)) {
    // The opt tier rounds differently by design (-O3, contraction on,
    // typed storage), so this is the one native leg the comparator
    // forks away from bitwise: each element must land within the ulp
    // budget (plus any configured rtol/atol band) of the reference.
    const Comparator ulp{opts.opt_rtol, opts.opt_atol, true,
                         opts.opt_max_ulp};
    const StatusOr<Snapshot> snap =
        run_native(program, entry, specs.value(), opts, false,
                   DirectivePolicy::kV0, false, NumericModel::kOpt);
    if (!snap.is_ok()) {
      report.errors.push_back(cat("native-opt: ", snap.status().message()));
    } else {
      report.opt_backend_ran = true;
      compare_snapshots("native-opt", reference.value(), snap.value(),
                        specs.value(), ulp, &report);
    }
  }

  if (opts.run_compiled_c && cc_available(opts.cc)) {
    const StatusOr<Snapshot> snap =
        run_compiled_c(program, entry, specs.value(), opts);
    if (!snap.is_ok()) {
      report.errors.push_back(cat("c: ", snap.status().message()));
    } else {
      report.c_backend_ran = true;
      compare_snapshots("c", reference.value(), snap.value(), specs.value(), tol, &report);
    }
  }
  return report;
}

}  // namespace glaf::fuzz
