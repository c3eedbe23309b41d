// The Synoptic SARB case study end to end (paper §4.1): author the six
// Table 1 subroutines in GLAF, generate integrable FORTRAN, and run the
// §4.1.1 functional-correctness methodology — a side-by-side comparison
// of the GLAF execution (serial plans, and the parallel native kernel)
// against the original serial implementation across multiple zones.
//
//   ./sarb_integration [--zones=N] [--show-fortran]

#include <cstdio>

#include "codegen/fortran.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/reference.hpp"
#include "support/cli.hpp"
#include "support/sloc.hpp"

using namespace glaf;
using namespace glaf::fuliou;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::int64_t zones = args.get_int("zones", 16);

  const Program program = build_sarb_program();
  const ProgramAnalysis analysis = analyze_program(program);
  const GeneratedCode fortran = generate_fortran(program, analysis);

  if (args.get_bool("show-fortran", false)) {
    std::printf("%s\n", fortran.source.c_str());
  }

  std::printf("== generated subroutines (Table 1) ==\n");
  std::printf("%-26s %14s %14s\n", "subroutine", "SLOC (paper)",
              "SLOC (ours)");
  for (const std::string& name : table1_subroutines()) {
    std::printf("%-26s %14d %14d\n", name.c_str(), paper_sloc(name),
                count_sloc(fortran.per_function.at(name),
                           SlocLanguage::kFortran));
  }

  // Side-by-side comparison, zone by zone, for serial and parallel GLAF.
  std::printf("\n== functional correctness (vs original serial) ==\n");
  InterpOptions parallel;
  parallel.engine = ExecEngine::kNative;
  parallel.parallel = true;
  parallel.num_threads = 4;
  Machine serial_machine(program);
  Machine parallel_machine(program, parallel);

  double worst_serial = 0.0;
  double worst_parallel = 0.0;
  for (std::int64_t zone = 0; zone < zones; ++zone) {
    const AtmosphereProfile profile =
        make_profile(static_cast<std::uint64_t>(zone) + 1);
    const SarbOutputs reference = run_reference(profile);

    const auto serial_out = run_glaf_sarb(serial_machine, profile);
    const auto parallel_out = run_glaf_sarb(parallel_machine, profile);
    if (!serial_out.is_ok() || !parallel_out.is_ok()) {
      std::printf("zone %lld: execution failed\n",
                  static_cast<long long>(zone));
      return 1;
    }
    const double ds = max_abs_diff(reference, serial_out.value());
    const double dp = max_abs_diff(reference, parallel_out.value());
    worst_serial = std::max(worst_serial, ds);
    worst_parallel = std::max(worst_parallel, dp);
    if (zone < 4) {
      std::printf("zone %2lld: |serial - original| = %.3e, "
                  "|parallel - original| = %.3e\n",
                  static_cast<long long>(zone), ds, dp);
    }
  }
  std::printf("...\nacross %lld zones: worst serial diff %.3e (expect 0), "
              "worst parallel diff %.3e (tolerance 1e-7)\n",
              static_cast<long long>(zones), worst_serial, worst_parallel);
  std::printf("verdict: %s\n",
              worst_serial == 0.0 && worst_parallel < 1e-7
                  ? "functionally equivalent (PASS)"
                  : "MISMATCH (FAIL)");

  std::printf("\n== interpreter statistics ==\n");
  std::printf("serial:   %llu steps, %llu loop iterations\n",
              static_cast<unsigned long long>(
                  serial_machine.stats().steps_executed),
              static_cast<unsigned long long>(
                  serial_machine.stats().loop_iterations));
  const NativeReport& report = parallel_machine.native_report();
  if (report.available) {
    std::printf("parallel: %llu native calls, %llu parallel regions"
                " dispatched, %llu kept serial by the gate, %llu timed by"
                " its probes (%d threads)\n",
                static_cast<unsigned long long>(report.native_calls),
                static_cast<unsigned long long>(report.parallel_regions),
                static_cast<unsigned long long>(report.gated_serial_regions),
                static_cast<unsigned long long>(report.gate_probes),
                report.num_threads);
  } else {
    std::printf("parallel: native kernel unavailable (%s), ran serial"
                " plans\n",
                report.fallback_reason.c_str());
  }
  return worst_serial == 0.0 && worst_parallel < 1e-7 ? 0 : 1;
}
