#pragma once
// Steps, functions and the whole-program container of the GLAF IR.
//
// GLAF structures a program as Modules -> Functions -> Steps (paper §2.1).
// A step is a (possibly collapsed) loop nest over index variables with a
// straight-line body; interior loop nests are separate functions. The
// special Global Scope module holds grids visible program-wide.

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/stmt.hpp"
#include "core/types.hpp"

namespace glaf {

/// One loop of a step's "Index Range" (foreach) specification. Bounds are
/// inclusive, matching FORTRAN `DO i = begin, end` semantics; `stride`
/// defaults to 1 when null.
struct LoopSpec {
  std::string index_var;  ///< e.g. "row"
  ExprPtr begin;
  ExprPtr end;
  ExprPtr stride;  ///< null => 1
};

/// A step: the unit the auto-parallelization back-end analyzes and the
/// unit OpenMP directives attach to.
struct Step {
  std::string name;            ///< e.g. "Step1" or a descriptive label
  std::string comment;
  std::vector<LoopSpec> loops; ///< empty => straight-line step
  std::vector<Stmt> body;
};

/// A subprogram. `return_type == kVoid` makes it a FORTRAN SUBROUTINE
/// (generated with CALL sites, §3.4); otherwise a FUNCTION whose result is
/// produced by kReturn statements.
struct Function {
  FunctionId id = kInvalidFunctionId;
  std::string name;
  std::string comment;
  DataType return_type = DataType::kVoid;
  std::vector<GridId> params;  ///< ordered by param_index
  std::vector<GridId> locals;
  std::vector<Step> steps;
};

/// A whole GLAF program: one generated module plus the Global Scope.
class Program {
 public:
  std::string module_name;          ///< name of the generated module
  std::vector<Grid> grids;          ///< all grids, indexed by GridId
  std::vector<Function> functions;  ///< all functions, indexed by FunctionId
  std::vector<GridId> global_grids; ///< the Global Scope module's grids

  [[nodiscard]] const Grid& grid(GridId id) const { return grids.at(id); }
  [[nodiscard]] const Function& function(FunctionId id) const {
    return functions.at(id);
  }

  /// Find by name; nullptr when absent.
  [[nodiscard]] const Function* find_function(std::string_view name) const;
  [[nodiscard]] const Grid* find_grid(std::string_view name) const;

  /// Grid name lookup functor for expr_to_string.
  [[nodiscard]] std::function<std::string(GridId)> grid_namer() const;

  /// All distinct existing FORTRAN modules referenced by grids reachable
  /// from `fn` (drives `USE` generation, §3.1). Sorted, unique.
  [[nodiscard]] std::vector<std::string> used_modules(
      const Function& fn) const;

  /// Every grid id referenced (read or written) anywhere in `fn`.
  [[nodiscard]] std::vector<GridId> referenced_grids(const Function& fn) const;
};

/// Fold `e` to a constant, additionally resolving reads of scalar Global
/// Scope grids that carry initial data and are never assigned anywhere in
/// the program — the common shape of size parameters (n_levels, n_bands).
/// External grids are never folded (their values live in the legacy code).
std::optional<Value> fold_with_globals(const Program& program, const Expr& e);

/// An array extent folded (fold_with_globals) to an element count, or
/// nullopt when it stays symbolic.
std::optional<std::int64_t> fold_extent(const Program& program,
                                        const Expr& extent);

/// Whether every extent of `g` folds.
bool has_constant_extents(const Program& program, const Grid& g);

/// The set of grids assigned anywhere in the program (directly; callees
/// covered because all functions are scanned).
std::set<GridId> written_grids(const Program& program);

/// Render a statement for diagnostics; indentation handled by caller.
std::string stmt_to_string(const Program& program, const Stmt& stmt);

/// Multi-line, indented dump of a whole program (debugging / golden tests).
std::string program_to_string(const Program& program);

}  // namespace glaf
