// glafc — the GLAF command-line driver.
//
// Loads a serialized GLAF program (or one of the built-in case-study
// programs), validates it, runs the auto-parallelization analysis, and
// emits code or reports:
//
//   glafc program.glaf --emit=fortran --policy=v3        # FORTRAN + OMP
//   glafc --builtin=sarb --emit=c --serial               # C, no OpenMP
//   glafc --builtin=fun3d --emit=opencl                  # kernels + host
//   glafc program.glaf --report                          # Markdown report
//   glafc --builtin=sarb --dump                          # IR text format
//   glafc program.glaf --run=ENTRY --engine=plan         # execute directly
//
// Options: --emit=fortran|c|opencl, --policy=v0..v3 (--policies is an
//          alias), --serial, --soa,
//          --save-temporaries, --no-collapse, --out=FILE,
//          --opt=inline,fold (IR passes applied in order before analysis),
//          --schedule=default|static|dynamic [--schedule-chunk=N].
// Run mode: --run[=ENTRY] executes the program on the interpreter
//          (ENTRY defaults to the first zero-parameter subroutine);
//          --engine=plan|treewalk|native selects the execution engine
//          (plan is the default: compiled flat plans on the bytecode VM;
//          treewalk is the serial reference AST interpreter; native
//          JIT-compiles the program to a shared object and runs it
//          in-process, falling back to plans when it cannot), --parallel
//          enables the auto-parallelized path under --policy (plan and
//          native only), --threads=N sizes it.
//          --strict-engine turns any native-engine fallback — whole-engine
//          unavailability or per-call plan routing — into a non-zero exit
//          instead of a warning. --json prints a machine-readable run
//          report (entry, engine, result, stats, native_report) on
//          stdout — the same native_report schema the glaf_serve stats
//          endpoint embeds.
//          With --engine=native, --emit=interp|opt selects the emission
//          tier: interp (default) is the bit-identical all-double kernel;
//          opt stores grids in native widths with restrict pointers and
//          compiles -O3 with contraction on (serial dispatch, results
//          within a ulp budget of the interpreter). --portable drops
//          -march=native from the opt tier for relocatable kernel caches.

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/transform.hpp"
#include "codegen/c.hpp"
#include "codegen/fortran.hpp"
#include "codegen/opencl.hpp"
#include "codegen/report.hpp"
#include "core/serialize.hpp"
#include "core/validate.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "interp/machine.hpp"
#include "interp/report_json.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

using namespace glaf;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "glafc: %s\n", message.c_str());
  return 1;
}

StatusOr<Program> load_program(const CliArgs& args) {
  const std::string builtin = args.get("builtin", "");
  if (builtin == "sarb") return fuliou::build_sarb_program();
  if (builtin == "fun3d") return fun3d::build_fun3d_glaf_program();
  if (!builtin.empty()) {
    return invalid_argument("unknown builtin '" + builtin +
                            "' (try sarb or fun3d)");
  }
  if (args.positional().empty()) {
    return invalid_argument(
        "no input: pass a .glaf file or --builtin=sarb|fun3d");
  }
  std::ifstream in(args.positional()[0]);
  if (!in) {
    return not_found("cannot open '" + args.positional()[0] + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_program(text.str());
}

StatusOr<DirectivePolicy> parse_policy(const std::string& policy) {
  if (policy == "v0") return DirectivePolicy::kV0;
  if (policy == "v1") return DirectivePolicy::kV1;
  if (policy == "v2") return DirectivePolicy::kV2;
  if (policy == "v3") return DirectivePolicy::kV3;
  return invalid_argument("unknown policy '" + policy + "' (v0..v3)");
}

/// --policy with --policies accepted as an alias (the planner-pass
/// spelling); --policy wins when both are given.
std::string policy_arg(const CliArgs& args) {
  if (args.has("policy")) return args.get("policy", "v0");
  return args.get("policies", "v0");
}

/// Execute the program on the interpreter (--run mode).
int run_program(const CliArgs& args, Program program) {
  InterpOptions iopts;
  const std::string engine = args.get("engine", "plan");
  if (engine == "plan") {
    iopts.engine = ExecEngine::kPlan;
  } else if (engine == "treewalk") {
    iopts.engine = ExecEngine::kTreeWalk;
  } else if (engine == "native") {
    iopts.engine = ExecEngine::kNative;
  } else {
    return fail("unknown --engine '" + engine + "' (plan|treewalk|native)");
  }
  const auto policy = parse_policy(policy_arg(args));
  if (!policy.is_ok()) return fail(policy.status().message());
  iopts.policy = policy.value();
  iopts.parallel = args.get_bool("parallel", false);
  if (iopts.parallel && iopts.engine == ExecEngine::kTreeWalk) {
    return fail(
        "--parallel requires --engine=plan or --engine=native (treewalk is"
        " the serial reference)");
  }
  iopts.num_threads = static_cast<int>(args.get_int("threads", 4));
  iopts.save_temporaries = args.get_bool("save-temporaries", false);
  iopts.dynamic_schedule = args.get("schedule", "default") == "dynamic";
  if (args.has("schedule-chunk")) {
    iopts.schedule_chunk = args.get_int("schedule-chunk", 4);
  }

  // In run mode --emit selects the native emission tier, not a target
  // language: interp is the bitwise contract, opt the ulp-bounded one.
  const std::string tier = args.get("emit", "interp");
  if (tier == "opt") {
    if (iopts.engine != ExecEngine::kNative) {
      return fail("--emit=opt requires --engine=native");
    }
    iopts.native_model = NumericModel::kOpt;
  } else if (tier != "interp") {
    return fail("unknown --emit '" + tier + "' in run mode (interp|opt)");
  }
  iopts.native_portable = args.get_bool("portable", false);

  std::string entry = args.get("run", "");
  if (entry == "true") entry.clear();  // bare --run (CliArgs boolean form)
  if (entry.empty()) {
    for (const Function& fn : program.functions) {
      if (fn.return_type == DataType::kVoid && fn.params.empty()) {
        entry = fn.name;
        break;
      }
    }
    if (entry.empty()) {
      return fail("--run: no zero-parameter subroutine to use as entry");
    }
  }

  const bool strict_engine = args.get_bool("strict-engine", false);
  if (strict_engine && iopts.engine != ExecEngine::kNative) {
    return fail("--strict-engine requires --engine=native");
  }
  Machine m(std::move(program), iopts);
  if (iopts.engine == ExecEngine::kNative && !m.native_report().available) {
    if (strict_engine) {
      return fail("native engine unavailable (" +
                  m.native_report().fallback_reason + ")");
    }
    std::fprintf(stderr,
                 "glafc: warning: native engine unavailable (%s);"
                 " falling back to the plan engine\n",
                 m.native_report().fallback_reason.c_str());
  }
  const StatusOr<double> result = m.call(entry);
  if (!result.is_ok()) {
    return fail("run '" + entry + "': " + std::string(result.status().message()));
  }
  const InterpStats& st = m.stats();
  if (args.get_bool("json", false)) {
    // Machine-readable run report on stdout: one object, the
    // native_report under the same schema the serve stats endpoint
    // embeds (src/interp/report_json.hpp is the shared renderer).
    JsonWriter w;
    w.begin_object();
    w.key("entry");
    w.value(entry);
    w.key("engine");
    w.value(engine);
    w.key("result");
    w.value(result.value());
    w.key("stats");
    w.raw(interp_stats_json(st));
    w.key("native_report");
    if (iopts.engine == ExecEngine::kNative) {
      w.raw(native_report_json(m.native_report()));
    } else {
      w.raw("null");
    }
    w.end_object();
    std::printf("%s\n", std::move(w).str().c_str());
  }
  std::fprintf(stderr,
               "glafc: ran %s (engine=%s): result %.17g, %llu steps, "
               "%llu iterations, %llu parallel regions\n",
               entry.c_str(), engine.c_str(), result.value(),
               static_cast<unsigned long long>(st.steps_executed),
               static_cast<unsigned long long>(st.loop_iterations),
               static_cast<unsigned long long>(st.parallel_regions));
  if (iopts.engine == ExecEngine::kNative && m.native_report().available) {
    const NativeReport& nr = m.native_report();
    std::fprintf(stderr,
                 "glafc: native kernel %s, model=%s (%llu native call(s),"
                 " %llu fallback call(s), %llu parallel call(s),"
                 " %llu parallel region(s), %d thread(s))\n",
                 nr.cache_hit ? "loaded from cache" : "compiled",
                 to_string(nr.model),
                 static_cast<unsigned long long>(nr.native_calls),
                 static_cast<unsigned long long>(nr.fallback_calls),
                 static_cast<unsigned long long>(nr.parallel_calls),
                 static_cast<unsigned long long>(nr.parallel_regions),
                 nr.num_threads);
    if (strict_engine && nr.fallback_calls > 0) {
      return fail(cat(nr.fallback_calls,
                      " call(s) fell back to the plan engine"
                      " (--strict-engine)"));
    }
  }
  return 0;
}

int write_output(const CliArgs& args, const std::string& content) {
  const std::string path = args.get("out", "");
  if (path.empty()) {
    std::fputs(content.c_str(), stdout);
    return 0;
  }
  std::ofstream out(path);
  if (!out) return fail("cannot write '" + path + "'");
  out << content;
  std::fprintf(stderr, "glafc: wrote %zu bytes to %s\n", content.size(),
               path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  auto loaded = load_program(args);
  if (!loaded.is_ok()) return fail(loaded.status().message());
  Program program = std::move(loaded).value();

  // Optimization pipeline: named passes, applied in order.
  for (const std::string& pass : split(args.get("opt", ""), ',')) {
    if (pass.empty()) continue;
    if (pass == "inline") {
      InlineResult r = inline_trivial_calls(program);
      std::fprintf(stderr, "glafc: inlined %d call(s)\n", r.inlined_calls);
      program = std::move(r.program);
    } else if (pass == "fold") {
      FoldResult r = fold_constants(program);
      std::fprintf(stderr, "glafc: folded %d constant expression(s)\n",
                   r.folded_exprs);
      program = std::move(r.program);
    } else {
      return fail("unknown --opt pass '" + pass + "' (inline|fold)");
    }
  }

  const std::vector<Diagnostic> diags = validate(program);
  for (const Diagnostic& d : diags) {
    std::fprintf(stderr, "glafc: %s: %s: %s\n",
                 d.severity == Severity::kError ? "error" : "warning",
                 d.where.c_str(), d.message.c_str());
  }
  if (!is_valid(diags)) return 1;

  if (args.get_bool("dump", false)) {
    return write_output(args, serialize_program(program));
  }

  if (args.has("run")) return run_program(args, std::move(program));

  const ProgramAnalysis analysis = analyze_program(program);

  if (args.get_bool("report", false)) {
    return write_output(args, parallelization_report(program, analysis));
  }

  CodegenOptions opts;
  const auto policy = parse_policy(policy_arg(args));
  if (!policy.is_ok()) return fail(policy.status().message());
  opts.policy = policy.value();
  opts.enable_openmp = !args.get_bool("serial", false);
  opts.soa_layout = args.get_bool("soa", false);
  opts.save_temporaries = args.get_bool("save-temporaries", false);
  opts.emit_collapse = !args.get_bool("no-collapse", false);
  const std::string schedule = args.get("schedule", "default");
  if (schedule == "dynamic") {
    opts.schedule = OmpSchedule::kDynamic;
  } else if (schedule == "static") {
    opts.schedule = OmpSchedule::kStatic;
  } else if (schedule != "default") {
    return fail("unknown --schedule '" + schedule +
                "' (default|static|dynamic)");
  }
  opts.schedule_chunk =
      static_cast<int>(args.get_int("schedule-chunk", 0));

  const std::string emit = args.get("emit", "fortran");
  if (emit == "fortran") {
    opts.language = Language::kFortran;
    return write_output(args, generate_fortran(program, analysis, opts).source);
  }
  if (emit == "c") {
    opts.language = Language::kC;
    return write_output(args, generate_c(program, analysis, opts).source);
  }
  if (emit == "opencl") {
    opts.language = Language::kOpenCL;
    const OpenClCode code = generate_opencl(program, analysis, opts);
    return write_output(args, code.kernels + "\n" + code.host);
  }
  return fail("unknown --emit '" + emit + "' (fortran|c|opencl)");
}
