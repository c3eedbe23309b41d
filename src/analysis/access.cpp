#include "analysis/access.hpp"

#include <functional>

#include "core/libfuncs.hpp"

namespace glaf {
namespace {

/// Walks a step's statements, recording accesses.
class Collector {
 public:
  Collector(const Program& p, const EffectsMap& effects,
            std::set<std::string> index_vars, StepAccesses* out)
      : p_(p), effects_(effects), index_vars_(std::move(index_vars)),
        out_(out) {}

  void walk_body(const std::vector<Stmt>& body, bool conditional) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      // Top-level ordinal only advances at depth 0; nested statements share
      // their ancestor's ordinal for before/after reasoning.
      if (depth_ == 0) stmt_index_ = i;
      walk_stmt(body[i], conditional);
    }
  }

 private:
  void walk_stmt(const Stmt& s, bool conditional) {
    switch (s.kind) {
      case Stmt::Kind::kAssign: {
        for (const ExprPtr& sub : s.lhs.subscripts) {
          collect_reads(*sub, conditional);
        }
        collect_reads(*s.rhs, conditional);
        add_access(s.lhs.grid, s.lhs.field, /*write=*/true, conditional,
                   s.lhs.subscripts);
        break;
      }
      case Stmt::Kind::kIf: {
        for (const IfArm& arm : s.arms) {
          collect_reads(*arm.cond, conditional);
          ++depth_;
          walk_body(arm.body, /*conditional=*/true);
          --depth_;
        }
        ++depth_;
        walk_body(s.else_body, /*conditional=*/true);
        --depth_;
        break;
      }
      case Stmt::Kind::kCallSub:
        handle_call(s.callee, s.args, conditional);
        break;
      case Stmt::Kind::kReturn:
        out_->has_return = true;
        if (s.ret) collect_reads(*s.ret, conditional);
        break;
    }
  }

  void collect_reads(const Expr& e, bool conditional) {
    switch (e.kind) {
      case Expr::Kind::kGridRead: {
        for (const ExprPtr& sub : e.args) collect_reads(*sub, conditional);
        add_access(e.grid, e.field, /*write=*/false, conditional, e.args);
        return;
      }
      case Expr::Kind::kCall: {
        if (find_lib_func(e.callee) != nullptr) {
          for (const ExprPtr& a : e.args) collect_reads(*a, conditional);
          return;
        }
        handle_call(e.callee, e.args, conditional);
        return;
      }
      default:
        for (const ExprPtr& a : e.args) collect_reads(*a, conditional);
        return;
    }
  }

  void handle_call(const std::string& callee,
                   const std::vector<ExprPtr>& args, bool conditional) {
    out_->callees.push_back(callee);
    const Function* target = p_.find_function(callee);
    const FunctionEffects* fx = nullptr;
    if (target != nullptr) {
      const auto it = effects_.find(target->id);
      if (it != effects_.end()) fx = &it->second;
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Expr& a = *args[i];
      const bool whole =
          a.kind == Expr::Kind::kGridRead && a.args.empty() &&
          !p_.grid(a.grid).is_scalar();
      if (whole) {
        const bool read = fx == nullptr || i >= fx->param_read.size() ||
                          fx->param_read[i];
        const bool written = fx == nullptr || i >= fx->param_written.size() ||
                             fx->param_written[i];
        if (read) add_whole_access(a.grid, a.field, false, conditional);
        if (written) add_whole_access(a.grid, a.field, true, conditional);
      } else {
        collect_reads(a, conditional);
      }
    }
    // Globals the callee touches behave like unanalyzable whole-grid
    // accesses from this loop's perspective.
    if (fx != nullptr) {
      for (const GridId g : fx->global_reads) {
        add_whole_access(g, {}, false, conditional);
      }
      for (const GridId g : fx->global_writes) {
        add_whole_access(g, {}, true, conditional);
      }
    }
  }

  void add_access(GridId grid, const std::string& field, bool write,
                  bool conditional, const std::vector<ExprPtr>& subscripts) {
    if (grid == kInvalidGridId) return;
    ArrayAccess acc;
    acc.grid = grid;
    acc.field = field;
    acc.is_write = write;
    acc.conditional = conditional;
    acc.stmt_index = stmt_index_;
    if (subscripts.empty() && !p_.grid(grid).is_scalar()) {
      acc.whole_grid = true;
    } else {
      acc.subs.reserve(subscripts.size());
      for (const ExprPtr& sub : subscripts) {
        acc.subs.push_back(extract_affine(*sub, index_vars_));
      }
    }
    out_->accesses.push_back(std::move(acc));
  }

  void add_whole_access(GridId grid, const std::string& field, bool write,
                        bool conditional) {
    ArrayAccess acc;
    acc.grid = grid;
    acc.field = field;
    acc.is_write = write;
    acc.conditional = conditional;
    acc.whole_grid = !p_.grid(grid).is_scalar();
    acc.stmt_index = stmt_index_;
    out_->accesses.push_back(std::move(acc));
  }

  const Program& p_;
  const EffectsMap& effects_;
  std::set<std::string> index_vars_;
  StepAccesses* out_;
  std::size_t stmt_index_ = 0;
  int depth_ = 0;
};

}  // namespace

StepAccesses collect_step_accesses(const Program& program, const Step& step,
                                   const EffectsMap& effects) {
  std::set<std::string> index_vars;
  for (const LoopSpec& loop : step.loops) index_vars.insert(loop.index_var);
  StepAccesses out;
  Collector collector(program, effects, std::move(index_vars), &out);
  collector.walk_body(step.body, /*conditional=*/false);
  return out;
}

namespace {

void merge_callee_effects(const Program& p, const Function& caller,
                          const FunctionEffects& callee_fx,
                          const std::vector<ExprPtr>& args,
                          FunctionEffects* out) {
  const auto classify = [&](GridId g, bool write) {
    const Grid& grid = p.grid(g);
    if (grid.is_global) {
      (write ? out->global_writes : out->global_reads).insert(g);
      return;
    }
    if (grid.is_param()) {
      for (std::size_t i = 0; i < caller.params.size(); ++i) {
        if (caller.params[i] == g) {
          (write ? out->param_written : out->param_read)[i] = true;
        }
      }
    }
    // locals of the caller: invisible outside
  };
  for (const GridId g : callee_fx.global_reads) classify(g, false);
  for (const GridId g : callee_fx.global_writes) classify(g, true);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Expr& a = *args[i];
    if (a.kind == Expr::Kind::kGridRead && a.args.empty() &&
        !p.grid(a.grid).is_scalar()) {
      if (i < callee_fx.param_read.size() && callee_fx.param_read[i]) {
        classify(a.grid, false);
      }
      if (i < callee_fx.param_written.size() && callee_fx.param_written[i]) {
        classify(a.grid, true);
      }
    }
  }
}

void compute_one(const Program& p, const Function& fn, EffectsMap* map);

const FunctionEffects& effects_of(const Program& p, const std::string& name,
                                  EffectsMap* map) {
  static const FunctionEffects kEmpty;
  const Function* fn = p.find_function(name);
  if (fn == nullptr) return kEmpty;
  if (map->count(fn->id) == 0) compute_one(p, *fn, map);
  return map->at(fn->id);
}

void compute_one(const Program& p, const Function& fn, EffectsMap* map) {
  FunctionEffects fx;
  fx.param_read.assign(fn.params.size(), false);
  fx.param_written.assign(fn.params.size(), false);
  // Seed to break accidental cycles defensively (validator rejects them).
  (*map)[fn.id] = fx;

  std::function<void(const Expr&)> scan_reads;
  // Generated code re-evaluates a grid's extents wherever it sizes or
  // indexes the grid (allocation, flattened subscripts, whole-grid
  // reductions), so the scalars an extent reads are reads of this function.
  const auto scan_extents = [&](const Grid& grid) {
    for (const Dim& d : grid.dims) {
      if (d.extent) scan_reads(*d.extent);
    }
  };
  const auto classify = [&](GridId g, bool write) {
    const Grid& grid = p.grid(g);
    scan_extents(grid);
    if (grid.is_global) {
      (write ? fx.global_writes : fx.global_reads).insert(g);
      return;
    }
    if (grid.is_param()) {
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (fn.params[i] == g) {
          (write ? fx.param_written : fx.param_read)[i] = true;
        }
      }
    }
  };

  scan_reads = [&](const Expr& e) {
    if (e.kind == Expr::Kind::kGridRead) {
      classify(e.grid, false);
    } else if (e.kind == Expr::Kind::kCall &&
               find_lib_func(e.callee) == nullptr) {
      merge_callee_effects(p, fn, effects_of(p, e.callee, map), e.args, &fx);
      for (const ExprPtr& a : e.args) {
        // Scalar args are reads; whole-grid args handled by the merge.
        if (!(a->kind == Expr::Kind::kGridRead && a->args.empty() &&
              !p.grid(a->grid).is_scalar())) {
          scan_reads(*a);
        }
      }
      return;
    }
    for (const ExprPtr& a : e.args) scan_reads(*a);
  };

  // Locals are allocated, and parameters may be indexed, on every call.
  for (const GridId g : fn.locals) scan_extents(p.grid(g));
  for (const GridId g : fn.params) scan_extents(p.grid(g));
  for (const Step& step : fn.steps) {
    for (const LoopSpec& loop : step.loops) {
      for (const ExprPtr& b : {loop.begin, loop.end, loop.stride}) {
        if (b) scan_reads(*b);
      }
    }
    visit_stmts(step.body, [&](const Stmt& s) {
      switch (s.kind) {
        case Stmt::Kind::kAssign:
          classify(s.lhs.grid, true);
          for (const ExprPtr& sub : s.lhs.subscripts) scan_reads(*sub);
          scan_reads(*s.rhs);
          break;
        case Stmt::Kind::kIf:
          for (const IfArm& arm : s.arms) scan_reads(*arm.cond);
          break;
        case Stmt::Kind::kCallSub:
          merge_callee_effects(p, fn, effects_of(p, s.callee, map), s.args,
                               &fx);
          for (const ExprPtr& a : s.args) {
            if (!(a->kind == Expr::Kind::kGridRead && a->args.empty() &&
                  !p.grid(a->grid).is_scalar())) {
              scan_reads(*a);
            }
          }
          break;
        case Stmt::Kind::kReturn:
          if (s.ret) scan_reads(*s.ret);
          break;
      }
    });
  }
  (*map)[fn.id] = std::move(fx);
}

}  // namespace

EffectsMap compute_effects(const Program& program) {
  EffectsMap map;
  for (const Function& fn : program.functions) {
    if (map.count(fn.id) == 0) compute_one(program, fn, &map);
  }
  return map;
}

}  // namespace glaf
