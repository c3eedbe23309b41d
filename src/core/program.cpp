#include "core/program.hpp"

#include <algorithm>
#include <set>

#include "support/strings.hpp"

namespace glaf {

const Function* Program::find_function(std::string_view name) const {
  for (const Function& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const Grid* Program::find_grid(std::string_view name) const {
  for (const Grid& g : grids) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

std::function<std::string(GridId)> Program::grid_namer() const {
  return [this](GridId id) -> std::string {
    return id < grids.size() ? grids[id].name : cat("g#", id);
  };
}

namespace {

void collect_expr_grids(const ExprPtr& e, std::set<GridId>& out) {
  visit_exprs(e, [&](const Expr& node) {
    if (node.kind == Expr::Kind::kGridRead) out.insert(node.grid);
  });
}

void collect_stmt_grids(const std::vector<Stmt>& body, std::set<GridId>& out) {
  visit_stmts(body, [&](const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kAssign:
        if (s.lhs.grid != kInvalidGridId) out.insert(s.lhs.grid);
        for (const ExprPtr& sub : s.lhs.subscripts) collect_expr_grids(sub, out);
        collect_expr_grids(s.rhs, out);
        break;
      case Stmt::Kind::kIf:
        for (const IfArm& arm : s.arms) collect_expr_grids(arm.cond, out);
        break;  // bodies visited by visit_stmts
      case Stmt::Kind::kCallSub:
        for (const ExprPtr& a : s.args) collect_expr_grids(a, out);
        break;
      case Stmt::Kind::kReturn:
        collect_expr_grids(s.ret, out);
        break;
    }
  });
}

}  // namespace

std::vector<GridId> Program::referenced_grids(const Function& fn) const {
  std::set<GridId> ids;
  for (const Step& step : fn.steps) {
    for (const LoopSpec& loop : step.loops) {
      collect_expr_grids(loop.begin, ids);
      collect_expr_grids(loop.end, ids);
      collect_expr_grids(loop.stride, ids);
    }
    collect_stmt_grids(step.body, ids);
  }
  // Dimension extents reference grids too (size parameters).
  std::set<GridId> with_extents = ids;
  for (const GridId id : ids) {
    for (const Dim& d : grid(id).dims) collect_expr_grids(d.extent, with_extents);
  }
  for (const GridId id : fn.params) with_extents.insert(id);
  for (const GridId id : fn.locals) {
    with_extents.insert(id);
    for (const Dim& d : grid(id).dims) collect_expr_grids(d.extent, with_extents);
  }
  return {with_extents.begin(), with_extents.end()};
}

std::vector<std::string> Program::used_modules(const Function& fn) const {
  std::set<std::string> mods;
  for (const GridId id : referenced_grids(fn)) {
    const Grid& g = grid(id);
    if (g.external == ExternalKind::kModule && !g.external_module.empty()) {
      mods.insert(g.external_module);
    }
  }
  return {mods.begin(), mods.end()};
}

namespace {

std::string access_to_string(const Program& p, const GridAccess& a) {
  std::string out = p.grid(a.grid).name;
  if (!a.field.empty()) out += "." + a.field;
  for (const ExprPtr& s : a.subscripts) {
    out += "[" + expr_to_string(*s, p.grid_namer()) + "]";
  }
  return out;
}

void stmt_to_lines(const Program& p, const Stmt& s, int depth,
                   std::vector<std::string>& out) {
  const std::string pad = repeat("  ", static_cast<std::size_t>(depth));
  const auto es = [&](const ExprPtr& e) {
    return expr_to_string(*e, p.grid_namer());
  };
  switch (s.kind) {
    case Stmt::Kind::kAssign:
      out.push_back(cat(pad, access_to_string(p, s.lhs), " = ", es(s.rhs)));
      break;
    case Stmt::Kind::kIf: {
      for (std::size_t i = 0; i < s.arms.size(); ++i) {
        out.push_back(cat(pad, i == 0 ? "if " : "elseif ", es(s.arms[i].cond),
                          ":"));
        for (const Stmt& inner : s.arms[i].body) {
          stmt_to_lines(p, inner, depth + 1, out);
        }
      }
      if (!s.else_body.empty()) {
        out.push_back(pad + "else:");
        for (const Stmt& inner : s.else_body) {
          stmt_to_lines(p, inner, depth + 1, out);
        }
      }
      break;
    }
    case Stmt::Kind::kCallSub: {
      std::vector<std::string> args;
      args.reserve(s.args.size());
      for (const ExprPtr& a : s.args) args.push_back(es(a));
      out.push_back(cat(pad, "call ", s.callee, "(", join(args, ", "), ")"));
      break;
    }
    case Stmt::Kind::kReturn:
      out.push_back(s.ret ? cat(pad, "return ", es(s.ret))
                          : pad + "return");
      break;
  }
}

}  // namespace

std::set<GridId> written_grids(const Program& program) {
  std::set<GridId> written;
  for (const Function& fn : program.functions) {
    for (const Step& step : fn.steps) {
      visit_stmts(step.body, [&](const Stmt& s) {
        if (s.kind == Stmt::Kind::kAssign) written.insert(s.lhs.grid);
      });
    }
  }
  return written;
}

namespace {

std::optional<Value> fold_with(const Program& p, const Expr& e,
                               const std::set<GridId>& written) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kGridRead: {
      if (e.grid >= p.grids.size() || !e.args.empty()) return std::nullopt;
      const Grid& g = p.grid(e.grid);
      if (g.is_global && g.is_scalar() && g.external == ExternalKind::kNone &&
          !g.init_data.empty() && written.count(e.grid) == 0) {
        return g.init_data[0];
      }
      return std::nullopt;
    }
    case Expr::Kind::kBinary:
    case Expr::Kind::kUnary: {
      // Fold children first (resolving global reads at any depth), then
      // delegate the arithmetic to fold_constant on literal operands.
      Expr substituted = e;
      substituted.args.clear();
      for (const ExprPtr& arg : e.args) {
        const auto v = fold_with(p, *arg, written);
        if (!v) return std::nullopt;
        substituted.args.push_back(make_literal(*v));
      }
      return fold_constant(substituted);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::optional<Value> fold_with_globals(const Program& program, const Expr& e) {
  return fold_with(program, e, written_grids(program));
}

std::optional<std::int64_t> fold_extent(const Program& program,
                                        const Expr& extent) {
  const auto v = fold_with_globals(program, extent);
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(value_as_double(*v));
}

bool has_constant_extents(const Program& program, const Grid& g) {
  return std::all_of(g.dims.begin(), g.dims.end(), [&](const Dim& d) {
    return fold_extent(program, *d.extent).has_value();
  });
}

std::string stmt_to_string(const Program& program, const Stmt& stmt) {
  std::vector<std::string> lines;
  stmt_to_lines(program, stmt, 0, lines);
  return join(lines, "\n");
}

std::string program_to_string(const Program& program) {
  std::vector<std::string> lines;
  lines.push_back(cat("program module=", program.module_name));
  lines.push_back("global scope:");
  for (const GridId id : program.global_grids) {
    const Grid& g = program.grid(id);
    std::string attrs;
    if (g.external == ExternalKind::kModule) {
      attrs += cat(" use=", g.external_module);
    }
    if (g.external == ExternalKind::kCommon) {
      attrs += cat(" common=/", g.common_block, "/");
    }
    if (!g.type_parent.empty()) attrs += cat(" type_parent=", g.type_parent);
    if (g.module_scope) attrs += " module_scope";
    if (g.save_attr) attrs += " save";
    lines.push_back(cat("  ", to_string(g.elem_type), " ", g.name, " rank=",
                        g.rank(), attrs));
  }
  for (const Function& fn : program.functions) {
    lines.push_back(cat("function ", fn.name, "(", fn.params.size(),
                        " params) -> ", to_string(fn.return_type)));
    for (const Step& step : fn.steps) {
      std::string loops;
      for (const LoopSpec& l : step.loops) {
        loops += cat(" foreach ", l.index_var, " in [",
                     expr_to_string(*l.begin, program.grid_namer()), ", ",
                     expr_to_string(*l.end, program.grid_namer()), "]");
      }
      lines.push_back(cat("  step ", step.name, loops));
      for (const Stmt& s : step.body) stmt_to_lines(program, s, 2, lines);
    }
  }
  return join(lines, "\n") + "\n";
}

}  // namespace glaf
