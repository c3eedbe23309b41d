#include "analysis/parallelize.hpp"

#include <algorithm>
#include <map>

#include "analysis/dependence.hpp"
#include "support/strings.hpp"

namespace glaf {
namespace {

using Buckets = std::map<LocationKey, std::vector<const ArrayAccess*>>;

Buckets bucket_by_location(const StepAccesses& accesses) {
  Buckets buckets;
  for (const ArrayAccess& a : accesses.accesses) {
    buckets[{a.grid, a.field}].push_back(&a);
  }
  return buckets;
}

bool any_write(const std::vector<const ArrayAccess*>& accs) {
  return std::any_of(accs.begin(), accs.end(),
                     [](const ArrayAccess* a) { return a->is_write; });
}

/// Constant trip count of one loop (inclusive bounds), or -1. Bounds fold
/// through never-written global size parameters (fold_with_globals), so
/// loops like "DO k = 0, n_levels-1" get concrete trip counts.
std::int64_t loop_trip_count(const Program& p, const LoopSpec& loop) {
  if (!loop.begin || !loop.end) return -1;
  const auto b = fold_with_globals(p, *loop.begin);
  const auto e = fold_with_globals(p, *loop.end);
  if (!b || !e) return -1;
  std::int64_t stride = 1;
  if (loop.stride) {
    const auto s = fold_with_globals(p, *loop.stride);
    if (!s) return -1;
    stride = static_cast<std::int64_t>(value_as_double(*s));
    if (stride == 0) return -1;
  }
  const auto lo = static_cast<std::int64_t>(value_as_double(*b));
  const auto hi = static_cast<std::int64_t>(value_as_double(*e));
  const std::int64_t span = stride > 0 ? hi - lo : lo - hi;
  if (span < 0) return 0;
  return span / std::llabs(stride) + 1;
}

bool expr_uses_vars(const ExprPtr& e, const std::set<std::string>& vars) {
  if (!e) return false;
  bool used = false;
  visit_exprs(e, [&](const Expr& node) {
    if (node.kind == Expr::Kind::kIndex && vars.count(node.index_name) != 0) {
      used = true;
    }
  });
  return used;
}

/// Scans a step body classifying every statement that touches `loc`:
/// returns true when ALL writes are reductions of one common operator and
/// no other statement reads the location.
class ReductionScan {
 public:
  ReductionScan(const Program& p, const LocationKey& loc,
                const std::set<std::string>& loop_vars)
      : p_(p), loc_(loc), loop_vars_(loop_vars) {}

  bool scan(const std::vector<Stmt>& body) {
    walk(body);
    return ok_ && saw_write_;
  }
  [[nodiscard]] ReduceOp op() const { return op_; }

 private:
  void walk(const std::vector<Stmt>& body) {
    for (const Stmt& s : body) {
      switch (s.kind) {
        case Stmt::Kind::kAssign: {
          const bool writes_loc =
              s.lhs.grid == loc_.first && s.lhs.field == loc_.second;
          if (writes_loc) {
            const auto m = match_reduction(p_, s, loop_vars_);
            if (!m || (saw_write_ && m->op != op_)) {
              ok_ = false;
            } else {
              op_ = m->op;
              saw_write_ = true;
            }
            // The self-read inside the reduction is fine; subscripts and
            // the combined expression must not read the location (already
            // enforced by match_reduction for rhs).
            for (const ExprPtr& sub : s.lhs.subscripts) check_expr(*sub);
          } else {
            if (reads_loc(*s.rhs)) ok_ = false;
            for (const ExprPtr& sub : s.lhs.subscripts) check_expr(*sub);
          }
          break;
        }
        case Stmt::Kind::kIf:
          for (const IfArm& arm : s.arms) {
            check_expr(*arm.cond);
            walk(arm.body);
          }
          walk(s.else_body);
          break;
        case Stmt::Kind::kCallSub:
          for (const ExprPtr& a : s.args) check_expr(*a);
          break;
        case Stmt::Kind::kReturn:
          if (s.ret) check_expr(*s.ret);
          break;
      }
    }
  }

  bool reads_loc(const Expr& e) const {
    if (e.kind == Expr::Kind::kGridRead && e.grid == loc_.first &&
        e.field == loc_.second) {
      return true;
    }
    for (const ExprPtr& a : e.args) {
      if (reads_loc(*a)) return true;
    }
    return false;
  }

  void check_expr(const Expr& e) {
    if (reads_loc(e)) ok_ = false;
  }

  const Program& p_;
  LocationKey loc_;
  const std::set<std::string>& loop_vars_;
  bool ok_ = true;
  bool saw_write_ = false;
  ReduceOp op_ = ReduceOp::kSum;
};

/// True when every write to `loc` in the body is an atomic-update shape
/// and no other statement reads the location.
bool all_writes_atomic(const Program& p, const std::vector<Stmt>& body,
                       const LocationKey& loc) {
  bool ok = true;
  bool saw = false;
  std::function<bool(const Expr&)> reads_loc = [&](const Expr& e) {
    if (e.kind == Expr::Kind::kGridRead && e.grid == loc.first &&
        e.field == loc.second) {
      return true;
    }
    for (const ExprPtr& a : e.args) {
      if (reads_loc(*a)) return true;
    }
    return false;
  };
  visit_stmts(body, [&](const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kAssign: {
        const bool writes_loc =
            s.lhs.grid == loc.first && s.lhs.field == loc.second;
        if (writes_loc) {
          if (!matches_atomic_update(p, s)) ok = false;
          saw = true;
        } else if (reads_loc(*s.rhs)) {
          ok = false;
        }
        break;
      }
      case Stmt::Kind::kIf:
        for (const IfArm& arm : s.arms) {
          if (reads_loc(*arm.cond)) ok = false;
        }
        break;
      case Stmt::Kind::kCallSub:
        for (const ExprPtr& a : s.args) {
          if (reads_loc(*a)) ok = false;
        }
        break;
      case Stmt::Kind::kReturn:
        if (s.ret && reads_loc(*s.ret)) ok = false;
        break;
    }
  });
  return ok && saw;
}

/// Ownership dimension for a step's atomic grids: a loop dimension p
/// inside the collapse band whose index variable is the *entire*
/// subscript (coefficient 1, no constant, no symbol) at one position
/// common to every access of each atomic grid. Partitioning iterations
/// along p then assigns every element of those grids to exactly one
/// band — updates happen in serial program order with no synchronization,
/// so even float sums stay bitwise identical to serial execution. The
/// common-position requirement matters: two accesses carrying the
/// variable at different positions (A(v,c) and A(d,v)) can alias across
/// bands. Returns -1 when no such dimension exists.
int find_ownership_dim(const Step& step, const StepVerdict& v,
                       const Buckets& buckets) {
  const std::size_t band = parallel_band(step, v);
  for (std::size_t p = 0; p < band; ++p) {
    const std::string& var = step.loops[p].index_var;
    bool covers_all = true;
    for (const GridId gid : v.atomic_grids) {
      // Positions where the subscript is exactly `var`, intersected over
      // every access of the grid (reads included: a band then only reads
      // elements it owns, so it sees exactly the serial-order values).
      std::uint64_t common = ~std::uint64_t{0};
      bool saw_access = false;
      for (const auto& [loc, accs] : buckets) {
        if (loc.first != gid) continue;
        for (const ArrayAccess* a : accs) {
          saw_access = true;
          std::uint64_t mask = 0;
          if (!a->whole_grid) {
            for (std::size_t s = 0; s < a->subs.size() && s < 64; ++s) {
              const AffineForm& f = a->subs[s];
              if (f.affine && f.constant == 0 && f.symbol.empty() &&
                  f.coeffs.size() == 1 &&
                  f.coeffs.begin()->first == var &&
                  f.coeffs.begin()->second == 1) {
                mask |= std::uint64_t{1} << s;
              }
            }
          }
          common &= mask;
        }
      }
      if (!saw_access || common == 0) {
        covers_all = false;
        break;
      }
    }
    if (covers_all) return static_cast<int>(p);
  }
  return -1;
}

/// Is `grid` a local of `fn` (not a parameter, not global)?
bool is_function_local(const Function& fn, GridId grid) {
  return std::find(fn.locals.begin(), fn.locals.end(), grid) !=
         fn.locals.end();
}

/// True if any step of `fn` OTHER than `current` references `grid` —
/// which makes the grid live across steps and therefore unsafe to
/// privatize (a private copy's final value is discarded at region end).
bool referenced_outside_step(const Function& fn, const Step& current,
                             GridId grid) {
  for (const Step& other : fn.steps) {
    if (&other == &current) continue;
    bool found = false;
    const auto scan = [&](const ExprPtr& e) {
      if (!e) return;
      visit_exprs(e, [&](const Expr& node) {
        if (node.kind == Expr::Kind::kGridRead && node.grid == grid) {
          found = true;
        }
      });
    };
    for (const LoopSpec& loop : other.loops) {
      scan(loop.begin);
      scan(loop.end);
      scan(loop.stride);
    }
    visit_stmts(other.body, [&](const Stmt& s) {
      switch (s.kind) {
        case Stmt::Kind::kAssign:
          if (s.lhs.grid == grid) found = true;
          for (const ExprPtr& sub : s.lhs.subscripts) scan(sub);
          scan(s.rhs);
          break;
        case Stmt::Kind::kIf:
          for (const IfArm& arm : s.arms) scan(arm.cond);
          break;
        case Stmt::Kind::kCallSub:
          for (const ExprPtr& a : s.args) scan(a);
          break;
        case Stmt::Kind::kReturn:
          scan(s.ret);
          break;
      }
    });
    if (found) return true;
  }
  return false;
}

}  // namespace

std::size_t parallel_band(const Step& step, const StepVerdict& v) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(std::max(v.collapse, 1)), step.loops.size());
}

StepVerdict analyze_step(const Program& program, const Function& fn,
                         const Step& step, const EffectsMap& effects,
                         const ManualTweaks* tweaks) {
  StepVerdict v;
  v.loop_class = classify_loop(program, step);
  if (step.loops.empty()) {
    v.notes.push_back("straight-line step: nothing to parallelize");
    return v;
  }
  v.has_loop = true;

  // Trip count = product of constant per-loop trips.
  v.trip_count = 1;
  for (const LoopSpec& loop : step.loops) {
    const std::int64_t t = loop_trip_count(program, loop);
    if (t < 0) {
      v.trip_count = -1;
      break;
    }
    v.trip_count *= t;
  }
  v.outer_trip_count = loop_trip_count(program, step.loops.front());

  const StepAccesses accesses = collect_step_accesses(program, step, effects);
  const Buckets buckets = bucket_by_location(accesses);

  std::set<std::string> loop_vars;
  for (const LoopSpec& loop : step.loops) loop_vars.insert(loop.index_var);

  // Resolve each written location to a clause or leave it for the
  // dependence tests.
  std::set<LocationKey> clause_resolved;
  bool blocked = false;
  for (const auto& [loc, accs] : buckets) {
    if (!any_write(accs)) continue;
    const Grid& g = program.grid(loc.first);

    if (tweaks != nullptr && tweaks->force_private.count(loc.first) != 0) {
      v.private_grids.push_back(loc.first);
      clause_resolved.insert(loc);
      v.notes.push_back(cat("private(", g.name, ") [manual tweak]"));
      continue;
    }
    if (tweaks != nullptr &&
        tweaks->force_firstprivate.count(loc.first) != 0) {
      v.firstprivate_grids.push_back(loc.first);
      clause_resolved.insert(loc);
      v.notes.push_back(cat("firstprivate(", g.name, ") [manual tweak]"));
      continue;
    }

    // Reduction recognition.
    ReductionScan scan(program, loc, loop_vars);
    if (scan.scan(step.body)) {
      v.reductions.push_back(ReductionClause{loc.first, loc.second, scan.op()});
      clause_resolved.insert(loc);
      v.notes.push_back(cat("reduction(", omp_spelling(scan.op()), ":",
                            g.name, ")"));
      continue;
    }

    // Privatization heuristic: local grid whose first access in program
    // order is an unconditional write. SAVE'd grids are never privatized
    // (their value must persist across calls), and neither are grids
    // referenced by other steps (live across the region boundary).
    if (is_function_local(fn, loc.first) &&
        !program.grid(loc.first).save_attr &&
        !referenced_outside_step(fn, step, loc.first)) {
      const ArrayAccess* first = nullptr;
      for (const ArrayAccess* a : accs) {
        if (first == nullptr || a->stmt_index < first->stmt_index) first = a;
      }
      // Accesses are recorded in evaluation order (reads of a statement
      // before its write), so a leading unconditional write means the
      // iteration defines the value before any use.
      const ArrayAccess* first_in_order = accs.front();
      if (first_in_order->is_write && !first_in_order->conditional &&
          !first_in_order->whole_grid) {
        v.private_grids.push_back(loc.first);
        clause_resolved.insert(loc);
        v.notes.push_back(cat("private(", g.name, ")"));
        continue;
      }
    }
    (void)effects;
  }

  // Dependence tests per loop variable for unresolved written locations.
  std::map<std::string, std::int64_t> trip_by_var;
  for (const LoopSpec& loop : step.loops) {
    trip_by_var[loop.index_var] = loop_trip_count(program, loop);
  }
  const auto var_is_parallel = [&](const std::string& var,
                                   std::string* reason) {
    const std::int64_t trip =
        trip_by_var.count(var) != 0 ? trip_by_var.at(var) : -1;
    for (const auto& [loc, accs] : buckets) {
      if (!any_write(accs)) continue;
      if (clause_resolved.count(loc) != 0) continue;
      const Grid& g = program.grid(loc.first);
      for (const ArrayAccess* w : accs) {
        if (!w->is_write) continue;
        for (const ArrayAccess* x : accs) {
          const DepResult r = test_dependence(*w, *x, var, trip);
          if (r == DepResult::kCarried) {
            // Last resort: atomic accumulation.
            if ((tweaks != nullptr &&
                 tweaks->force_atomic.count(loc.first) != 0) ||
                all_writes_atomic(program, step.body, loc)) {
              if (std::find(v.atomic_grids.begin(), v.atomic_grids.end(),
                            loc.first) == v.atomic_grids.end()) {
                v.atomic_grids.push_back(loc.first);
                v.notes.push_back(cat("atomic updates to ", g.name));
              }
              goto next_location;
            }
            *reason = cat("loop-carried dependence on '", g.name,
                          "' w.r.t. ", var);
            return false;
          }
        }
      }
    next_location:;
    }
    return true;
  };

  std::string reason;
  if (!var_is_parallel(step.loops.front().index_var, &reason)) {
    blocked = true;
    v.notes.push_back(reason);
  }

  // Early return (the ioff_search pattern) requires a critical section,
  // which GLAF only emits under the manual tweak (§4.2.1).
  if (accesses.has_return) {
    v.needs_critical = true;
    if (tweaks == nullptr || !tweaks->allow_critical) {
      blocked = true;
      v.notes.push_back(
          "early return inside loop (needs OMP CRITICAL; enable via manual "
          "tweak)");
    } else {
      v.notes.push_back("early-return section wrapped in OMP CRITICAL");
    }
  }

  v.parallelizable = !blocked;

  // Collapse depth: consecutive perfectly-nested parallel loops whose
  // bounds are invariant w.r.t. the outer indices.
  if (v.parallelizable) {
    std::set<std::string> outer;
    outer.insert(step.loops.front().index_var);
    int depth = 1;
    for (std::size_t k = 1; k < step.loops.size(); ++k) {
      const LoopSpec& loop = step.loops[k];
      if (expr_uses_vars(loop.begin, outer) ||
          expr_uses_vars(loop.end, outer) ||
          expr_uses_vars(loop.stride, outer)) {
        break;
      }
      std::string inner_reason;
      if (!var_is_parallel(loop.index_var, &inner_reason)) break;
      ++depth;
      outer.insert(loop.index_var);
    }
    v.collapse = depth;
  }

  // Vectorizability by the compiler (drives the perf model): simple loops
  // without calls / control exits.
  v.compiler_vectorizable = accesses.callees.empty() &&
                            !accesses.has_return &&
                            v.loop_class != LoopClass::kComplex;

  // Bitwise-deterministic classification (consumed by the parallel
  // native engine and the deterministic interpreter mode). Exact
  // reductions are +/min/max over integer-valued elements: the
  // interpreter stores them as doubles, where small-integer sums are
  // associative and min/max carry no ±0 ties, so any combine order
  // reproduces the serial result bitwise. Callees are excluded both for
  // exactness (hidden state) and because nested dispatch would re-enter
  // the single-job thread pool.
  if (v.parallelizable && !v.needs_critical && accesses.callees.empty() &&
      !accesses.has_return) {
    bool exact = true;
    for (const ReductionClause& r : v.reductions) {
      const DataType t = program.grid(r.grid).field_type(r.field);
      const bool int_valued = t == DataType::kInt || t == DataType::kLogical;
      if (!int_valued || r.op == ReduceOp::kProd) {
        exact = false;
        break;
      }
    }
    int owner_dim = -1;
    if (exact && !v.atomic_grids.empty()) {
      owner_dim = find_ownership_dim(step, v, buckets);
      if (owner_dim < 0) exact = false;
    }
    if (exact) {
      v.bit_exact = true;
      v.exact_partition_dim = owner_dim;
      v.notes.push_back(
          owner_dim < 0
              ? "bit-exact under any partition"
              : cat("bit-exact when banded on '",
                    step.loops[static_cast<std::size_t>(owner_dim)].index_var,
                    "'"));
    }
  }

  return v;
}

ProgramAnalysis analyze_program(const Program& program,
                                const TweaksByFunction& tweaks) {
  ProgramAnalysis out;
  out.effects = compute_effects(program);
  for (const Function& fn : program.functions) {
    const ManualTweaks* fn_tweaks = nullptr;
    auto it = tweaks.find(fn.name);
    if (it == tweaks.end()) it = tweaks.find("");
    if (it != tweaks.end()) fn_tweaks = &it->second;
    std::vector<StepVerdict>& verdicts = out.verdicts[fn.id];
    verdicts.reserve(fn.steps.size());
    for (const Step& step : fn.steps) {
      verdicts.push_back(
          analyze_step(program, fn, step, out.effects, fn_tweaks));
    }
  }
  return out;
}

std::string verdict_to_string(const Program& program, const StepVerdict& v) {
  if (!v.has_loop) return "straight-line";
  if (!v.parallelizable) return "serial";
  std::string out = "parallel";
  if (v.collapse > 1) out += cat(" collapse(", v.collapse, ")");
  if (!v.private_grids.empty()) {
    std::vector<std::string> names;
    names.reserve(v.private_grids.size());
    for (const GridId g : v.private_grids) names.push_back(program.grid(g).name);
    out += cat(" private(", join(names, ","), ")");
  }
  if (!v.firstprivate_grids.empty()) {
    std::vector<std::string> names;
    for (const GridId g : v.firstprivate_grids) {
      names.push_back(program.grid(g).name);
    }
    out += cat(" firstprivate(", join(names, ","), ")");
  }
  for (const ReductionClause& r : v.reductions) {
    out += cat(" reduction(", omp_spelling(r.op), ":", program.grid(r.grid).name,
               r.field.empty() ? "" : "." + r.field, ")");
  }
  if (!v.atomic_grids.empty()) {
    std::vector<std::string> names;
    for (const GridId g : v.atomic_grids) names.push_back(program.grid(g).name);
    out += cat(" atomic(", join(names, ","), ")");
  }
  if (v.needs_critical) out += " critical";
  if (v.bit_exact) {
    out += v.exact_partition_dim < 0
               ? " bit-exact"
               : cat(" bit-exact[dim=", v.exact_partition_dim, "]");
  }
  return out;
}

}  // namespace glaf
