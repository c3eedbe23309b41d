#pragma once
// The auto-parallelization back-end's decision procedure: for each step,
// decide whether its loop nest can run in parallel and with which OpenMP
// clauses (PRIVATE, REDUCTION, ATOMIC, CRITICAL, COLLAPSE).
//
// GLAF produced a first automatic cut; the paper's FUN3D case study then
// applied a small set of manual tweaks (§4.2.1: SAVE attributes, private /
// thread-private declarations, copyprivate pointers, multi-variable
// reductions, atomic updates, a critical section in ioff_search). The
// `ManualTweaks` structure reproduces exactly that interface.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/access.hpp"
#include "analysis/loopclass.hpp"
#include "analysis/reduction.hpp"
#include "core/program.hpp"

namespace glaf {

/// One REDUCTION clause entry.
struct ReductionClause {
  GridId grid = kInvalidGridId;
  std::string field;
  ReduceOp op = ReduceOp::kSum;
};

/// The §4.2.1 manual adjustments, applied per function.
struct ManualTweaks {
  std::set<GridId> force_private;      ///< declare private/threadprivate
  std::set<GridId> force_firstprivate; ///< copyprivate-style sharing inward
  std::set<GridId> force_atomic;       ///< allow atomic accumulation
  bool allow_critical = true;          ///< wrap early-return in OMP CRITICAL
};

/// Per-step analysis result.
struct StepVerdict {
  bool has_loop = false;
  bool parallelizable = false;
  int collapse = 1;  ///< perfectly-nested parallel depth (COLLAPSE clause)

  std::vector<GridId> private_grids;
  std::vector<GridId> firstprivate_grids;
  std::vector<ReductionClause> reductions;
  std::vector<GridId> atomic_grids;
  bool needs_critical = false;  ///< early-return section (ioff_search case)

  LoopClass loop_class = LoopClass::kStraightLine;
  std::int64_t trip_count = -1;  ///< product of constant extents, -1 unknown
  std::int64_t outer_trip_count = -1;  ///< outermost loop's trip alone
  bool compiler_vectorizable = false;

  /// Bitwise-deterministic parallel execution is possible: no critical
  /// section, no callees or early returns, only exact reductions
  /// (+/min/max over integer or logical elements — order-independent in
  /// double arithmetic), and every atomic grid covered by an ownership
  /// dimension (below). Such a step produces results identical to serial
  /// execution under any partition of the validated iteration space.
  bool bit_exact = false;
  /// Partition constraint that makes `bit_exact` hold: -1 = the collapsed
  /// flat iteration space may be split freely; >= 0 = split only along
  /// this loop dimension, whose index variable appears as a plain
  /// subscript at one common position in every access of every atomic
  /// grid — each element is then updated by exactly one band, in serial
  /// program order, so the "atomic" float sums need no atomics at all.
  int exact_partition_dim = -1;

  std::vector<std::string> notes;  ///< human-readable reasoning trail
};

/// Loops in a step's perfectly nested parallel band: its analyzed
/// collapse depth, clamped to [1, number of loops].
std::size_t parallel_band(const Step& step, const StepVerdict& v);

/// Analyze one step of `fn` with optional manual tweaks.
StepVerdict analyze_step(const Program& program, const Function& fn,
                         const Step& step, const EffectsMap& effects,
                         const ManualTweaks* tweaks = nullptr);

/// Whole-program analysis: effects + one verdict per (function, step).
struct ProgramAnalysis {
  EffectsMap effects;
  std::map<FunctionId, std::vector<StepVerdict>> verdicts;

  [[nodiscard]] const StepVerdict& verdict(FunctionId fn,
                                           std::size_t step) const {
    return verdicts.at(fn).at(step);
  }
};

/// Tweaks are keyed by function name ("" applies to every function).
using TweaksByFunction = std::map<std::string, ManualTweaks>;

ProgramAnalysis analyze_program(const Program& program,
                                const TweaksByFunction& tweaks = {});

/// Render a one-line summary of a verdict ("parallel collapse(2)
/// private(a,b) reduction(+:s)") for reports and tests.
std::string verdict_to_string(const Program& program, const StepVerdict& v);

}  // namespace glaf
