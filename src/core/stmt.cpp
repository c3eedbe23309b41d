#include "core/stmt.hpp"

namespace glaf {

Stmt make_assign(GridAccess lhs, ExprPtr rhs) {
  Stmt s;
  s.kind = Stmt::Kind::kAssign;
  s.lhs = std::move(lhs);
  s.rhs = std::move(rhs);
  return s;
}

Stmt make_if(ExprPtr cond, std::vector<Stmt> then_body,
             std::vector<Stmt> else_body) {
  Stmt s;
  s.kind = Stmt::Kind::kIf;
  s.arms.push_back(IfArm{std::move(cond), std::move(then_body)});
  s.else_body = std::move(else_body);
  return s;
}

Stmt make_call_stmt(std::string callee, std::vector<ExprPtr> args) {
  Stmt s;
  s.kind = Stmt::Kind::kCallSub;
  s.callee = std::move(callee);
  s.args = std::move(args);
  return s;
}

Stmt make_return(ExprPtr value) {
  Stmt s;
  s.kind = Stmt::Kind::kReturn;
  s.ret = std::move(value);
  return s;
}

void visit_stmts(const std::vector<Stmt>& body,
                 const std::function<void(const Stmt&)>& fn) {
  for (const Stmt& s : body) {
    fn(s);
    if (s.kind == Stmt::Kind::kIf) {
      for (const IfArm& arm : s.arms) visit_stmts(arm.body, fn);
      visit_stmts(s.else_body, fn);
    }
  }
}

bool contains_return(const std::vector<Stmt>& body) {
  bool found = false;
  visit_stmts(body, [&](const Stmt& s) {
    if (s.kind == Stmt::Kind::kReturn) found = true;
  });
  return found;
}

bool if_contains_return(const Stmt& s) {
  if (s.kind != Stmt::Kind::kIf) return false;
  for (const IfArm& arm : s.arms) {
    if (contains_return(arm.body)) return true;
  }
  return contains_return(s.else_body);
}

}  // namespace glaf
