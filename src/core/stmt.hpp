#pragma once
// Statements of the GLAF IR: the "formulas" a step contains, plus the
// control constructs the GPI offers (conditions, subprogram calls, early
// return). GLAF deliberately has NO nested loops inside a step body —
// interior loop nests must be modeled as separate functions called from
// the step (paper §3.3); this restriction is enforced by validation and is
// what makes per-step dependence analysis tractable.

#include <string>
#include <vector>

#include "core/expr.hpp"
#include "core/types.hpp"

namespace glaf {

/// A write target: grid (+ optional struct field) with subscripts.
/// Empty subscripts on a non-scalar grid denote a whole-grid argument
/// position (only meaningful inside call argument lists).
struct GridAccess {
  GridId grid = kInvalidGridId;
  std::string field;
  std::vector<ExprPtr> subscripts;
};

struct Stmt;

/// One `if`/`elseif` arm: a condition plus the statements it guards.
struct IfArm {
  ExprPtr cond;
  std::vector<Stmt> body;
};

/// A statement. A tagged struct rather than a variant hierarchy: the IR is
/// small and analyses switch on `kind` directly.
struct Stmt {
  enum class Kind : std::uint8_t {
    kAssign,   ///< lhs = rhs
    kIf,       ///< arms (if / elseif...) + optional else body
    kCallSub,  ///< CALL of a void subprogram (subroutine, §3.4)
    kReturn,   ///< return (with value for non-void functions)
  };

  Kind kind = Kind::kAssign;

  // kAssign
  GridAccess lhs;
  ExprPtr rhs;

  // kIf
  std::vector<IfArm> arms;
  std::vector<Stmt> else_body;

  // kCallSub
  std::string callee;
  std::vector<ExprPtr> args;

  // kReturn
  ExprPtr ret;  ///< null for subroutines
};

/// Constructors.
Stmt make_assign(GridAccess lhs, ExprPtr rhs);
Stmt make_if(ExprPtr cond, std::vector<Stmt> then_body,
             std::vector<Stmt> else_body = {});
Stmt make_call_stmt(std::string callee, std::vector<ExprPtr> args);
Stmt make_return(ExprPtr value = nullptr);

/// Visit every statement in a body, recursing into if arms/else bodies.
void visit_stmts(const std::vector<Stmt>& body,
                 const std::function<void(const Stmt&)>& fn);

/// True if any statement in the body (recursively) is a kReturn.
bool contains_return(const std::vector<Stmt>& body);

/// True if `s` is an IF one of whose arms (recursively) RETURNs.
bool if_contains_return(const Stmt& s);

}  // namespace glaf
