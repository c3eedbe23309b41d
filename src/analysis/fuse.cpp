#include "analysis/fuse.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "core/expr.hpp"

namespace glaf {
namespace {

/// Canonical text of a bound expression. Grids print by id ("g#7"), so
/// two steps naming the same storage serialize identically regardless of
/// any local aliasing; loop bounds are invariant in the step's own index
/// variables (collapse legality), so index names never appear.
std::string bound_text(const ExprPtr& e) {
  if (!e) return "1";
  return expr_to_string(*e);
}

bool id_in(const std::vector<GridId>& v, GridId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

bool is_reduction_target(const StepVerdict& v, GridId id) {
  for (const ReductionClause& r : v.reductions) {
    if (r.grid == id) return true;
  }
  return false;
}

/// Is the affine form exactly the loop variable `var` (coefficient 1,
/// no constant, no symbolic part)? Mirrors the ownership-dimension test
/// in parallelize.cpp: such a subscript assigns every element touched at
/// that position to exactly one partition chunk.
bool is_pure_var(const AffineForm& f, const std::string& var) {
  return f.affine && f.constant == 0 && f.symbol.empty() &&
         f.coeffs.size() == 1 && f.coeffs.begin()->first == var &&
         f.coeffs.begin()->second == 1;
}

/// Bitmask of subscript positions where *every* access of `grid` in the
/// step carries the partition variable purely. A whole-grid access (or a
/// scalar) yields 0 — no position pins it to a chunk.
std::uint64_t alignment_mask(const StepAccesses& accesses, GridId grid,
                             const std::string& var) {
  std::uint64_t common = ~std::uint64_t{0};
  bool saw = false;
  for (const ArrayAccess& a : accesses.accesses) {
    if (a.grid != grid) continue;
    saw = true;
    std::uint64_t mask = 0;
    if (!a.whole_grid) {
      for (std::size_t s = 0; s < a.subs.size() && s < 64; ++s) {
        if (is_pure_var(a.subs[s], var)) mask |= std::uint64_t{1} << s;
      }
    }
    common &= mask;
  }
  return saw ? common : 0;
}

/// Grids read by any loop bound of `step`. Region dispatch evaluates all
/// member bounds on the host before forking, so a later step's bounds
/// must not depend on storage an earlier member writes.
std::set<GridId> bound_reads(const Step& step) {
  std::set<GridId> ids;
  const auto scan = [&](const ExprPtr& e) {
    if (!e) return;
    visit_exprs(e, [&](const Expr& node) {
      if (node.kind == Expr::Kind::kGridRead) ids.insert(node.grid);
    });
  };
  for (const LoopSpec& loop : step.loops) {
    scan(loop.begin);
    scan(loop.end);
    scan(loop.stride);
  }
  return ids;
}

struct StepSummary {
  PartitionSig sig;
  StepAccesses accesses;
  std::set<GridId> writes;     ///< written grids, reduction targets included
  std::set<GridId> touched;    ///< every accessed grid
  std::set<GridId> bound_grids;
};

StepSummary summarize(const Program& program, const Step& step,
                      const StepVerdict& v, const EffectsMap& effects) {
  StepSummary s;
  s.sig = partition_signature(step, v);
  s.accesses = collect_step_accesses(program, step, effects);
  for (const ArrayAccess& a : s.accesses.accesses) {
    s.touched.insert(a.grid);
    if (a.is_write) s.writes.insert(a.grid);
  }
  for (const ReductionClause& r : v.reductions) s.writes.insert(r.grid);
  s.bound_grids = bound_reads(step);
  return s;
}

bool fusable(const Step& sa, const StepVerdict& va, const StepSummary& a,
             const Step& sb, const StepVerdict& vb, const StepSummary& b) {
  if (!a.sig.valid || !b.sig.valid) return false;
  if (a.sig.bounds != b.sig.bounds) return false;
  // An early RETURN inside a fused block would skip the remaining member
  // steps for one rank only — never fuse around control exits.
  if (a.accesses.has_return || b.accesses.has_return) return false;
  // Later bounds are host-evaluated before the earlier step runs.
  for (const GridId g : b.bound_grids) {
    if (a.writes.count(g) != 0) return false;
  }
  const std::string& var_a = sa.loops[a.sig.loop_index].index_var;
  const std::string& var_b = sb.loops[b.sig.loop_index].index_var;
  for (const GridId g : a.touched) {
    if (b.touched.count(g) == 0) continue;
    const bool written = a.writes.count(g) != 0 || b.writes.count(g) != 0;
    if (!written) continue;  // shared read-only data never conflicts
    // Reduction scratch combines after the region's join; private and
    // firstprivate copies snapshot shared storage at block entry. Either
    // one interleaving with the other step's writes reorders against
    // serial execution, so all three split the region.
    if (is_reduction_target(va, g) || is_reduction_target(vb, g)) {
      return false;
    }
    if (id_in(va.private_grids, g) || id_in(vb.private_grids, g) ||
        id_in(va.firstprivate_grids, g) || id_in(vb.firstprivate_grids, g)) {
      return false;
    }
    // Both steps must pin the location to the partition chunk at one
    // common subscript position: rank r then touches the same element
    // set in both steps, preserving per-element serial order.
    if ((alignment_mask(a.accesses, g, var_a) &
         alignment_mask(b.accesses, g, var_b)) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

PartitionSig partition_signature(const Step& step, const StepVerdict& v) {
  PartitionSig sig;
  if (!v.has_loop || step.loops.empty()) return sig;
  const std::size_t depth = parallel_band(step, v);
  if (v.exact_partition_dim >= 0) {
    if (static_cast<std::size_t>(v.exact_partition_dim) >= depth) return sig;
    sig.loop_index = static_cast<std::size_t>(v.exact_partition_dim);
  } else if (depth == 1) {
    sig.loop_index = 0;
  } else {
    return sig;  // flat multi-dimensional dispatch: no single loop
  }
  const LoopSpec& loop = step.loops[sig.loop_index];
  sig.bounds = bound_text(loop.begin) + ";" + bound_text(loop.end) + ";" +
               bound_text(loop.stride);
  sig.valid = true;
  return sig;
}

bool steps_fusable(const Program& program, const Function& fn,
                   std::size_t earlier, std::size_t later,
                   const std::vector<StepVerdict>& verdicts,
                   const EffectsMap& effects) {
  if (earlier >= later || later >= fn.steps.size() ||
      later >= verdicts.size()) {
    return false;
  }
  const Step& sa = fn.steps[earlier];
  const Step& sb = fn.steps[later];
  const StepVerdict& va = verdicts[earlier];
  const StepVerdict& vb = verdicts[later];
  return fusable(sa, va, summarize(program, sa, va, effects), sb, vb,
                 summarize(program, sb, vb, effects));
}

std::vector<FusedRegion> plan_fused_regions(
    const Program& program, const Function& fn,
    const std::vector<StepVerdict>& verdicts,
    const std::vector<bool>& ranged, const EffectsMap& effects) {
  std::vector<FusedRegion> out;
  std::map<std::size_t, StepSummary> cache;
  const auto summary = [&](std::size_t s) -> const StepSummary& {
    auto it = cache.find(s);
    if (it == cache.end()) {
      it = cache
               .emplace(s, summarize(program, fn.steps[s], verdicts[s],
                                     effects))
               .first;
    }
    return it->second;
  };
  const auto is_ranged = [&](std::size_t s) {
    return s < ranged.size() && ranged[s] && s < verdicts.size();
  };
  std::size_t i = 0;
  while (i < fn.steps.size()) {
    FusedRegion region{i, 1};
    if (is_ranged(i)) {
      std::size_t next = i + 1;
      while (next < fn.steps.size() && is_ranged(next)) {
        bool ok = true;
        for (std::size_t j = region.first_step; j < next && ok; ++j) {
          ok = fusable(fn.steps[j], verdicts[j], summary(j), fn.steps[next],
                       verdicts[next], summary(next));
        }
        if (!ok) break;
        ++region.step_count;
        ++next;
      }
    }
    out.push_back(region);
    i += region.step_count;
  }
  return out;
}

}  // namespace glaf
