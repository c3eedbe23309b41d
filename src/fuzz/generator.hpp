#pragma once
// Whole-program fuzzing generator: emits random but *valid* GLAF programs
// for differential testing of the execution pipeline (IR -> dependence
// analysis -> auto-parallelization -> codegen / interpretation).
//
// The generated programs exercise the paper's feature surface:
//   - multi-dimensional grids (Int / Double / Logical) with manual
//     initial data, driven by scalar size parameters;
//   - the §3 integration attributes: module-scope variables, variables
//     from imported FORTRAN modules, and COMMON-block variables;
//   - loop nests (with occasional non-unit and negative strides, and
//     outer bounds that read an INTEGER accumulator the body updates),
//     conditionals, reduction statements (sum / min / max), early
//     returns;
//   - SUBROUTINE definitions with array parameters plus CALL sites
//     (§3.4) and value-returning functions used inside expressions;
//   - library functions (ABS, MIN/MAX, SIN, SQRT, EXP, TANH, MOD and
//     the whole-grid reductions SUM / MINVAL / MAXVAL, §3.6).
//
// Programs are numerically tame by construction so that all backends
// must agree within a small tolerance: integer stores are wrapped in
// MOD(.., 997), divisions are guarded, transcendental inputs bounded,
// and reduction contributions clamped — the only values that may differ
// between serial and parallel execution are reduction accumulators,
// whose merge order is not defined (they reassociate within a few ULP).
// Accumulator grids are therefore never read back by generated code,
// except that an INTEGER sum (exact in any order) may bound a loop.

#include <cstdint>

#include "core/program.hpp"
#include "support/status.hpp"

namespace glaf::fuzz {

/// Knobs for the program generator. Defaults match the glaf-fuzz CLI.
struct GeneratorOptions {
  int min_data_grids = 3;
  int max_data_grids = 7;
  int max_aux_functions = 2;  ///< value functions AND subroutines, each
  int max_steps = 3;          ///< steps in the entry function
  int max_stmts_per_step = 5;
  int max_loop_depth = 2;
  int max_expr_depth = 3;
  bool use_external = true;    ///< imported-module and COMMON grids (§3.1/3.2)
  bool use_calls = true;       ///< subroutines + value functions (§3.4)
  bool use_reductions = true;  ///< sum/min/max accumulator statements
};

/// Name of the generated zero-argument entry subroutine.
inline constexpr const char* kEntryName = "fz_main";

/// A generated program plus the entry point the oracle should call.
struct FuzzProgram {
  Program program;
  std::string entry = kEntryName;
};

/// Generate the program for `seed`. Every seed must produce a program
/// that passes validation; a non-OK status is a generator bug.
StatusOr<FuzzProgram> generate_program(std::uint64_t seed,
                                       const GeneratorOptions& opts = {});

}  // namespace glaf::fuzz
