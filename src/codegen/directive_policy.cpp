#include "codegen/directive_policy.hpp"

#include <algorithm>

#include "analysis/access.hpp"
#include "support/strings.hpp"

namespace glaf {
namespace {

bool id_in(const std::vector<GridId>& v, GridId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

/// Whether the store `s` reads the element it writes: an update.
bool updates_target(const Stmt& s) {
  bool reads = false;
  visit_exprs(s.rhs, [&](const Expr& e) {
    reads = reads ||
            (e.kind == Expr::Kind::kGridRead && e.grid == s.lhs.grid &&
             e.field == s.lhs.field &&
             std::equal(e.args.begin(), e.args.end(),
                        s.lhs.subscripts.begin(), s.lhs.subscripts.end(),
                        [](const ExprPtr& a, const ExprPtr& b) {
                          return expr_equal(*a, *b);
                        }));
  });
  return reads;
}

}  // namespace

const char* to_string(Language lang) {
  switch (lang) {
    case Language::kFortran: return "FORTRAN";
    case Language::kC: return "C";
    case Language::kOpenCL: return "OpenCL";
  }
  return "?";
}

const char* to_string(OmpSchedule schedule) {
  switch (schedule) {
    case OmpSchedule::kDefault: return "default";
    case OmpSchedule::kStatic: return "static";
    case OmpSchedule::kDynamic: return "dynamic";
  }
  return "?";
}

const char* to_string(NumericModel model) {
  switch (model) {
    case NumericModel::kTyped: return "typed";
    case NumericModel::kInterp: return "interp";
    case NumericModel::kOpt: return "opt";
  }
  return "?";
}

const char* to_string(DirectivePolicy policy) {
  switch (policy) {
    case DirectivePolicy::kV0: return "v0";
    case DirectivePolicy::kV1: return "v1";
    case DirectivePolicy::kV2: return "v2";
    case DirectivePolicy::kV3: return "v3";
  }
  return "?";
}

bool keep_directive(DirectivePolicy policy, const StepVerdict& verdict) {
  if (!verdict.has_loop || !verdict.parallelizable) return false;
  switch (verdict.loop_class) {
    case LoopClass::kStraightLine:
      return false;
    case LoopClass::kInitZero:
    case LoopClass::kBroadcast:
      // Removed from v1 on: the compiler beats threads here (memset, SIMD
      // loads), paper §4.1.2.
      return policy == DirectivePolicy::kV0;
    case LoopClass::kSimpleSingle:
      // Removed from v2 on: SIMD or unrolling wins.
      return policy == DirectivePolicy::kV0 ||
             policy == DirectivePolicy::kV1;
    case LoopClass::kSimpleDouble:
      // Removed in v3: the compiler auto-parallelizes/vectorizes these.
      return policy != DirectivePolicy::kV3;
    case LoopClass::kComplex:
      // Directives always kept: the compiler fails to parallelize these
      // (the two large longwave_entropy_model loops).
      return true;
  }
  return false;
}

const StepDirective* DirectivePlan::step(FunctionId fn,
                                         std::size_t s) const {
  const auto it = steps.find({fn, s});
  return it == steps.end() ? nullptr : &it->second;
}

const char* DirectivePlan::atomic(const StepDirective* dir,
                                  const Stmt& s) const {
  if (dir != nullptr && dir->atomics.count(&s) != 0) return "atomic";
  const auto it = orphaned_atomics.find(&s);
  if (it == orphaned_atomics.end()) return nullptr;
  return it->second ? "atomic" : "atomic write";
}

DirectivePlan plan_directives(const Program& p,
                              const ProgramAnalysis& analysis,
                              const CodegenOptions& options) {
  DirectivePlan plan;
  std::vector<std::string> pending;
  // Adds the subprograms `step` calls to the region callees; true when
  // it calls any.
  const auto calls_of = [&](const Step& step) {
    const std::vector<std::string> callees =
        collect_step_accesses(p, step, analysis.effects).callees;
    for (const std::string& callee : callees) {
      if (plan.region_callees.insert(callee).second) {
        pending.push_back(callee);
      }
    }
    return !callees.empty();
  };
  for (const Function& fn : p.functions) {
    const auto it = analysis.verdicts.find(fn.id);
    if (it == analysis.verdicts.end()) continue;
    for (std::size_t s = 0; s < fn.steps.size() && s < it->second.size();
         ++s) {
      const Step& step = fn.steps[s];
      const StepVerdict& v = it->second[s];
      if (!keep_directive(options.policy, v)) continue;
      StepDirective& d = plan.steps[{fn.id, s}];
      d.band = parallel_band(step, v);
      if (options.emit_collapse && v.collapse > 1) {
        d.collapse = std::min(v.collapse, kMaxCollapse);
      }
      for (std::size_t i = static_cast<std::size_t>(d.collapse);
           i < step.loops.size(); ++i) {
        d.private_indices.push_back(step.loops[i].index_var);
      }
      d.privates = v.private_grids;
      d.firstprivates = v.firstprivate_grids;
      d.reductions = v.reductions;
      visit_stmts(step.body, [&](const Stmt& st) {
        if (st.kind == Stmt::Kind::kAssign &&
            id_in(v.atomic_grids, st.lhs.grid)) {
          d.atomics.insert(&st);
        }
        if (v.needs_critical && if_contains_return(st)) {
          d.criticals.insert(&st);
        }
      });
      for (const GridId id : v.private_grids) {
        if (p.grid(id).external == ExternalKind::kNone &&
            id_in(p.global_grids, id)) {
          plan.threadprivate_globals.insert(id);
        }
      }
      if (calls_of(step)) {
        plan.region_atomics.insert(v.atomic_grids.begin(),
                                   v.atomic_grids.end());
      }
    }
  }
  for (auto& [key, d] : plan.steps) {
    std::erase_if(d.privates, [&](GridId id) {
      return plan.threadprivate_globals.count(id) != 0;
    });
  }
  while (!pending.empty()) {
    const Function* fn = p.find_function(pending.back());
    pending.pop_back();
    if (fn == nullptr) continue;
    for (const Step& step : fn->steps) calls_of(step);
  }
  for (const std::string& name : plan.region_callees) {
    const Function* fn = p.find_function(name);
    if (fn == nullptr) continue;
    for (const GridId id : fn->locals) {
      const Grid& g = p.grid(id);
      if (!g.is_struct() && (g.save_attr || options.save_temporaries)) {
        plan.threadprivate_saves.insert(id);
      }
    }
    for (const Step& step : fn->steps) {
      visit_stmts(step.body, [&](const Stmt& st) {
        if (st.kind == Stmt::Kind::kAssign &&
            plan.region_atomics.count(st.lhs.grid) != 0) {
          plan.orphaned_atomics[&st] = updates_target(st);
        }
      });
    }
  }
  return plan;
}

std::string clause_text(const Program& p, const StepDirective& dir,
                        const CodegenOptions& options,
                        std::string (*keyword)(std::string_view)) {
  const auto clause = [&](const char* name, const std::string& args) {
    return cat(" ", keyword(name), "(", args, ")");
  };
  const auto names = [&](std::vector<std::string> out,
                         const std::vector<GridId>& ids) {
    for (const GridId id : ids) out.push_back(p.grid(id).name);
    return join(out, ", ");
  };
  std::string text;
  if (dir.collapse > 1) text += clause("collapse", cat(dir.collapse));
  if (!dir.private_indices.empty() || !dir.privates.empty()) {
    text += clause("private", names(dir.private_indices, dir.privates));
  }
  if (!dir.firstprivates.empty()) {
    text += clause("firstprivate", names({}, dir.firstprivates));
  }
  for (const ReductionClause& r : dir.reductions) {
    text += clause("reduction",
                   cat(omp_spelling(r.op), ":", p.grid(r.grid).name));
  }
  if (options.schedule != OmpSchedule::kDefault) {
    text += clause("schedule",
                   cat(keyword(to_string(options.schedule)),
                       options.schedule_chunk > 0
                           ? cat(", ", options.schedule_chunk)
                           : std::string()));
  }
  return text;
}

}  // namespace glaf
