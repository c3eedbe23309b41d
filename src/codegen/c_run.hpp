#pragma once
// Builds and runs the C back-end's output the way the paper's §4.1.1
// validates generated code: the generated subroutines are linked with a
// harness that plays the legacy objects (it defines the storage of module
// variables, TYPE parent variables and COMMON blocks, and seeds them),
// the entry point runs, and every global is read back for a side-by-side
// comparison against a reference.
//
// The OpenMP build runs at a chosen OMP_NUM_THREADS, so the directives'
// clauses (PRIVATE and FIRSTPRIVATE copies, REDUCTION combines, ATOMIC
// updates) execute for real. This is the project's oracle for them: the
// in-process engines thread only the steps they can run without
// changing a bit (interp/machine.hpp).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "codegen/options.hpp"
#include "core/program.hpp"
#include "support/status.hpp"

namespace glaf {

/// Element values of global grids, by grid id (row-major, flat).
using GlobalValues = std::map<GridId, std::vector<double>>;

/// Emit `program` as standalone typed C under `options` (the language is
/// forced to C), append a harness that assigns `inputs` (any global, by
/// id), calls the zero-parameter subroutine `entry` and prints every
/// global, then compile it with `cc` (adding -fopenmp when
/// options.enable_openmp) and run it with OMP_NUM_THREADS=`threads`.
/// Returns the final values of every global. Globals need constant
/// extents and must not be struct grids. `transform`, when set, rewrites
/// the generated source before the harness is appended. Temporary files
/// go to `work_dir`.
StatusOr<GlobalValues> run_generated_c(
    const Program& program, const ProgramAnalysis& analysis,
    const CodegenOptions& options, const std::string& entry,
    const GlobalValues& inputs, int threads, const std::string& cc = "cc",
    const std::string& work_dir = "/tmp",
    const std::function<std::string(const std::string&)>& transform = {});

/// Whether `cc -fopenmp` compiles and links a program that calls the
/// OpenMP runtime; cached per command for the process lifetime.
bool openmp_available(const std::string& cc);

}  // namespace glaf
