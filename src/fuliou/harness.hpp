#pragma once
// Host-side harness around the GLAF SARB program: binds synthetic
// profiles to the program's Global Scope grids (playing the role of the
// legacy FORTRAN modules / COMMON blocks providing real data), runs the
// driver through the interpreter, and extracts the outputs for the
// side-by-side comparison against the hand-written reference (§4.1.1).
// The same bindings, as values by grid id, feed the compiled C back-end
// (codegen/c_run.hpp).

#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "codegen/c_run.hpp"
#include "fuliou/profile.hpp"
#include "interp/machine.hpp"

namespace glaf::fuliou {

/// Copy a profile into the machine's global grids (the "existing module"
/// and COMMON-block variables).
Status load_profile(Machine& machine, const AtmosphereProfile& profile);

/// Read every output grid back out.
SarbOutputs extract_outputs(const Machine& machine);

/// The profile as values of `program`'s input globals, by grid id.
GlobalValues profile_values(const Program& program,
                            const AtmosphereProfile& profile);

/// The outputs held in `values` (every global of `program`, by grid id).
SarbOutputs outputs_from(const Program& program, const GlobalValues& values);

/// load_profile + CALL entropy_interface + extract. Status-bearing.
StatusOr<SarbOutputs> run_glaf_sarb(Machine& machine,
                                    const AtmosphereProfile& profile);

/// One analyzed loop of the SARB program, for Table 2 and the performance
/// model.
struct LoopInfo {
  std::string function;
  std::string step;
  StepVerdict verdict;
  int stmt_count = 0;  ///< statements in the body (recursive)
};

/// Every step of every SARB subroutine with its verdict and size.
std::vector<LoopInfo> sarb_loop_inventory(const Program& program,
                                          const ProgramAnalysis& analysis);

/// Recursive statement count of a step body.
int count_statements(const Step& step);

}  // namespace glaf::fuliou
