#pragma once
// The OpenMP directive plan: the one place that decides every directive
// the generated code carries. It applies the Table 2 directive-removal
// policies to the analysis verdicts, builds each kept step's clauses,
// and adds the program-wide §4.2.1 rules (thread-private module
// variables and SAVE'd temporaries, orphaned ATOMIC updates in the
// subprograms a parallel loop calls). The C and FORTRAN back-ends only
// spell the plan (#pragma omp ... against !$OMP ...); it never depends
// on the target language.

#include <string_view>
#include <utility>

#include "analysis/parallelize.hpp"
#include "codegen/options.hpp"

namespace glaf {

/// True when a parallelizable step keeps its OMP directive under `policy`.
/// Non-parallelizable steps never get directives.
bool keep_directive(DirectivePolicy policy, const StepVerdict& verdict);

/// The deepest COLLAPSE clause: GLAF emits COLLAPSE(2) (paper §4.1.2).
inline constexpr int kMaxCollapse = 2;

/// One kept step's PARALLEL DO (parallel for) directive.
struct StepDirective {
  std::size_t band = 1;  ///< loops of the parallel band (parallel_band)
  int collapse = 1;      ///< loops the directive covers; COLLAPSE if > 1
  /// PRIVATE: the loop indices inside the covered loops, then the
  /// privatized grids that are not thread-private (OpenMP forbids a
  /// threadprivate variable in the clause).
  std::vector<std::string> private_indices;
  std::vector<GridId> privates;
  std::vector<GridId> firstprivates;
  std::vector<ReductionClause> reductions;
  /// Stores in the loop that update a grid atomically (ATOMIC), and the
  /// IF statements whose arms RETURN (the §4.2.1 CRITICAL section).
  std::set<const Stmt*> atomics;
  std::set<const Stmt*> criticals;
};

struct DirectivePlan {
  std::map<std::pair<FunctionId, std::size_t>, StepDirective> steps;
  /// Owned globals a kept directive privatizes. The loop's callees name
  /// them too and a PRIVATE clause does not reach them, so every thread
  /// gets its own copy through THREADPRIVATE instead (§4.2.1).
  std::set<GridId> threadprivate_globals;
  /// Subprograms a kept directive's loop calls, at any depth: they run
  /// on every thread of the region.
  std::set<std::string> region_callees;
  /// The grids those loops update atomically; a region callee's store to
  /// one is an orphaned ATOMIC, true when it updates (reads) its element
  /// and false for a plain ATOMIC WRITE.
  std::set<GridId> region_atomics;
  std::map<const Stmt*, bool> orphaned_atomics;
  /// SAVE'd locals of region callees: a shared static would race
  /// between the calls, so they are THREADPRIVATE as well.
  std::set<GridId> threadprivate_saves;

  /// The directive of step `s` of `fn`, or null when it has none.
  [[nodiscard]] const StepDirective* step(FunctionId fn, std::size_t s) const;
  /// The ATOMIC form of store `s` ("atomic", "atomic write"), or null.
  /// `dir` is the directive of the loop `s` runs in, when one is emitted.
  [[nodiscard]] const char* atomic(const StepDirective* dir,
                                   const Stmt& s) const;
};

/// Plan every directive of `program` under `options` (policy, collapse,
/// SAVE'd temporaries). The C and FORTRAN back-ends build it only when
/// they emit OpenMP; OpenCL offloads the steps it keeps.
DirectivePlan plan_directives(const Program& program,
                              const ProgramAnalysis& analysis,
                              const CodegenOptions& options);

/// The clauses of `dir` and the options' SCHEDULE, each preceded by a
/// blank, with every keyword spelled through `keyword` (C writes
/// "private", FORTRAN "PRIVATE"); names keep their case.
std::string clause_text(const Program& program, const StepDirective& dir,
                        const CodegenOptions& options,
                        std::string (*keyword)(std::string_view));

}  // namespace glaf
