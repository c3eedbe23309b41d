#include "fuzz/generator.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace glaf::fuzz {
namespace {

// A grid visible to expression/statement generation, with folded extents
// so subscripts and loop ranges can be kept provably in bounds.
struct GridInfo {
  GridHandle handle;
  std::string name;
  DataType type = DataType::kDouble;
  std::vector<std::int64_t> extents;   // folded values; empty for scalars
  std::vector<ExprPtr> extent_exprs;   // the IR extent expressions
  bool writable = true;

  [[nodiscard]] bool is_array() const { return !extents.empty(); }
};

// Reduction accumulators get a fixed operator for their whole lifetime so
// every step updating one is a recognizable reduction on that operator.
enum class AccKind { kSum, kMin, kMax, kSumInt };

struct AccInfo {
  GridHandle handle;
  AccKind kind = AccKind::kSum;
};

struct ValueFn {
  std::string name;
  std::vector<DataType> params;
};

struct SubInfo {
  std::string name;
  int target = 0;  // index into data grids: the global bound to the array param
  bool has_scalar_param = false;
};

// Everything readable/writable at the current generation point. Temps are
// entry/subroutine locals; a temp may be read only after an unconditional
// write earlier in the same step body (otherwise the C backend could read
// an uninitialized stack slot where the interpreter reads zero).
struct Scope {
  std::vector<std::pair<std::string, std::int64_t>> indices;  // name, bound
  std::vector<const GridInfo*> scalars;  // readable scalar grids
  std::vector<const GridInfo*> arrays;   // readable/writable array grids
  std::vector<std::pair<GridHandle, bool>> temps;  // handle, written?
  bool allow_calls = true;      // value-function calls inside expressions
  bool allow_reductions = false;
};

class Generator {
 public:
  Generator(std::uint64_t seed, const GeneratorOptions& opts)
      : rng_(seed), opts_(opts), pb_("fz_mod") {}

  StatusOr<FuzzProgram> run() {
    make_size_params();
    make_data_grids();
    if (opts_.use_reductions) make_accumulators();
    if (opts_.use_calls) {
      make_value_fns();
      make_subroutines();
    }
    make_entry();
    StatusOr<Program> prog = pb_.build();
    if (!prog.is_ok()) return prog.status();
    return FuzzProgram{std::move(prog).value(), kEntryName};
  }

 private:
  // ---- randomness helpers -------------------------------------------
  int irange(int lo, int hi) {
    return lo + static_cast<int>(rng_.next_below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  }
  bool chance(int pct) { return static_cast<int>(rng_.next_below(100)) < pct; }
  double dlit() {
    // Two-decimal literals in [-2, 2]: exact in binary-safe range for the
    // serializer round-trip and small enough to keep products tame.
    return irange(-200, 200) / 100.0;
  }

  // ---- program skeleton ---------------------------------------------
  void make_size_params() {
    for (int i = 0; i < 2; ++i) {
      GridInfo info;
      info.name = cat("fz_n", i);
      info.type = DataType::kInt;
      // Never written: array extents fold through these in every backend.
      info.writable = false;
      const std::int64_t value = irange(2, 6);
      info.handle = pb_.global(info.name, DataType::kInt, {},
                               {.init = {Value{value}}});
      size_params_.push_back(std::move(info));
      size_values_.push_back(value);
    }
  }

  // One extent for a grid dimension: a literal, or (for non-external
  // grids) a read of a never-written size parameter so constant folding
  // across globals is exercised in every backend.
  void pick_extent(bool allow_size_param, std::int64_t* value, ExprPtr* expr) {
    if (allow_size_param && chance(35)) {
      const int sp = irange(0, 1);
      *value = size_values_[static_cast<std::size_t>(sp)];
      *expr = E(size_params_[static_cast<std::size_t>(sp)].handle).node();
      return;
    }
    *value = irange(2, 6);
    *expr = liti(*value).node();
  }

  void make_data_grids() {
    const int n = irange(opts_.min_data_grids, opts_.max_data_grids);
    for (int i = 0; i < n; ++i) {
      GridInfo info;
      info.name = cat("fz_g", i);

      // Force grid 0 to be a Double array: loop steps and the Double
      // expression grammar always have material to work with.
      const int type_roll = irange(0, 99);
      info.type = (i == 0 || type_roll < 55) ? DataType::kDouble
                  : type_roll < 85           ? DataType::kInt
                                             : DataType::kLogical;
      const int rank_roll = irange(0, 99);
      const int rank = (i == 0) ? irange(1, 2)
                       : rank_roll < 25 ? 0
                       : rank_roll < 65 ? 1
                                        : 2;

      // §3 integration surface: most grids are owned by the generated
      // module, the rest live in imported modules / COMMON blocks or are
      // marked module-scope. Logical grids stay owned (the external C
      // harness feeds numeric inputs).
      enum { kOwned, kModuleScope, kImported, kCommon } kind = kOwned;
      if (opts_.use_external && info.type != DataType::kLogical) {
        const int kind_roll = irange(0, 99);
        kind = kind_roll < 60   ? kOwned
               : kind_roll < 70 ? kModuleScope
               : kind_roll < 85 ? kImported
                                : kCommon;
      } else if (chance(10)) {
        kind = kModuleScope;
      }

      std::int64_t elements = 1;
      std::vector<E> dims;
      for (int d = 0; d < rank; ++d) {
        std::int64_t value = 0;
        ExprPtr expr;
        pick_extent(/*allow_size_param=*/kind == kOwned || kind == kModuleScope,
                    &value, &expr);
        info.extents.push_back(value);
        info.extent_exprs.push_back(expr);
        dims.emplace_back(expr);
        elements *= value;
      }

      GridOpts gopts;
      switch (kind) {
        case kImported:
          gopts.from_module = "fz_extmod";
          break;
        case kCommon:
          gopts.common_block = cat("fzblk", i % 2);
          break;
        case kModuleScope:
          gopts.module_scope = true;
          [[fallthrough]];
        case kOwned:
          for (std::int64_t e = 0; e < elements; ++e) {
            switch (info.type) {
              case DataType::kDouble:
                gopts.init.push_back(Value{dlit()});
                break;
              case DataType::kInt:
                gopts.init.push_back(
                    Value{static_cast<std::int64_t>(irange(-9, 9))});
                break;
              default:
                gopts.init.push_back(Value{chance(50)});
                break;
            }
          }
          break;
      }

      info.handle = pb_.global(info.name, info.type, std::move(dims),
                               std::move(gopts));
      grids_.push_back(std::move(info));
    }
  }

  void make_accumulators() {
    const int n = irange(1, 3);
    for (int i = 0; i < n; ++i) {
      AccInfo acc;
      acc.kind = (i == 0) ? AccKind::kSum
                          : static_cast<AccKind>(irange(0, 3));
      const bool is_int = acc.kind == AccKind::kSumInt;
      acc.handle = pb_.global(
          cat("fz_acc", i), is_int ? DataType::kInt : DataType::kDouble, {},
          {.init = {is_int ? Value{std::int64_t{0}} : Value{0.0}}});
      accs_.push_back(acc);
    }
  }

  // ---- expression grammar -------------------------------------------
  // Clamp a Double expression into [-3, 3]. With the aligned MIN/MAX
  // semantics (a<b?a:b in every backend) this also maps NaN to a finite
  // value identically everywhere, so reduction inputs are always finite.
  static E clamp3(E x) {
    return call("MIN", {call("MAX", {std::move(x), lit(-3.0)}), lit(3.0)});
  }

  // Bound an Int expression into (-997, 997) before it is stored.
  static E bound_int(E x) { return call("MOD", {std::move(x), liti(997)}); }

  std::vector<const GridInfo*> typed_scalars(const Scope& sc, DataType t) {
    std::vector<const GridInfo*> out;
    for (const GridInfo* g : sc.scalars) {
      if (g->type == t) out.push_back(g);
    }
    return out;
  }
  std::vector<const GridInfo*> typed_arrays(const Scope& sc, DataType t) {
    std::vector<const GridInfo*> out;
    for (const GridInfo* g : sc.arrays) {
      if (g->type == t) out.push_back(g);
    }
    return out;
  }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[rng_.next_below(v.size())];
  }

  // Subscripts guaranteed in bounds using only loop variables (when their
  // range fits the dimension) and literals. Used inside expression leaves
  // where recursing into the full Int grammar would not terminate.
  std::vector<E> simple_subscripts(const GridInfo& g, const Scope& sc) {
    std::vector<E> subs;
    for (std::size_t d = 0; d < g.extents.size(); ++d) {
      const std::int64_t ext = g.extents[d];
      std::vector<std::string> fitting;
      for (const auto& [name, bound] : sc.indices) {
        if (bound <= ext) fitting.push_back(name);
      }
      if (!fitting.empty() && chance(75)) {
        subs.push_back(idx(pick(fitting)));
      } else {
        subs.push_back(liti(irange(0, static_cast<int>(ext) - 1)));
      }
    }
    return subs;
  }

  // Full subscript generator: loop variables, MOD(ABS(e), extent) hashes
  // of arbitrary Int expressions, or literals — always in [0, extent).
  std::vector<E> gen_subscripts(const GridInfo& g, Scope& sc) {
    std::vector<E> subs;
    for (std::size_t d = 0; d < g.extents.size(); ++d) {
      const std::int64_t ext = g.extents[d];
      std::vector<std::string> fitting;
      for (const auto& [name, bound] : sc.indices) {
        if (bound <= ext) fitting.push_back(name);
      }
      const int roll = irange(0, 99);
      if (!fitting.empty() && roll < 60) {
        subs.push_back(idx(pick(fitting)));
      } else if (roll < 80) {
        subs.push_back(
            call("MOD", {call("ABS", {gen_int(1, sc)}), liti(ext)}));
      } else {
        subs.push_back(liti(irange(0, static_cast<int>(ext) - 1)));
      }
    }
    return subs;
  }

  E int_leaf(Scope& sc) {
    const auto scalars = typed_scalars(sc, DataType::kInt);
    const auto arrays = typed_arrays(sc, DataType::kInt);
    for (int attempt = 0; attempt < 3; ++attempt) {
      switch (irange(0, 3)) {
        case 0:
          return liti(irange(-9, 9));
        case 1:
          if (!sc.indices.empty()) return idx(pick(sc.indices).first);
          break;
        case 2:
          if (!scalars.empty()) return E(pick(scalars)->handle);
          break;
        default:
          if (!arrays.empty()) {
            const GridInfo& g = *pick(arrays);
            return Access(g.handle.id(), {}, to_nodes(simple_subscripts(g, sc)));
          }
          break;
      }
    }
    return liti(irange(-9, 9));
  }

  // Int values are bounded by construction: leaves are at most 996 in
  // magnitude (stores are MOD-997-wrapped), products only combine leaves,
  // and division is guarded — the tree never approaches 2^53, so the
  // interpreter's double arithmetic is exact.
  E gen_int(int depth, Scope& sc) {
    if (depth <= 0 || chance(30)) return int_leaf(sc);
    switch (irange(0, 6)) {
      case 0:
        return gen_int(depth - 1, sc) + gen_int(depth - 1, sc);
      case 1:
        return gen_int(depth - 1, sc) - gen_int(depth - 1, sc);
      case 2:
        return int_leaf(sc) * int_leaf(sc);
      case 3:
        return call("MOD", {gen_int(depth - 1, sc), liti(irange(2, 9))});
      case 4:
        return call("ABS", {gen_int(depth - 1, sc)});
      case 5:
        return call(chance(50) ? "MIN" : "MAX",
                    {gen_int(depth - 1, sc), gen_int(depth - 1, sc)});
      default:
        return gen_int(depth - 1, sc) /
               (call("ABS", {int_leaf(sc)}) + liti(1));
    }
  }

  E dbl_leaf(Scope& sc) {
    const auto scalars = typed_scalars(sc, DataType::kDouble);
    const auto arrays = typed_arrays(sc, DataType::kDouble);
    std::vector<std::size_t> written_temps;
    for (std::size_t i = 0; i < sc.temps.size(); ++i) {
      if (sc.temps[i].second) written_temps.push_back(i);
    }
    for (int attempt = 0; attempt < 3; ++attempt) {
      switch (irange(0, 3)) {
        case 0:
          return lit(dlit());
        case 1:
          if (!scalars.empty()) return E(pick(scalars)->handle);
          break;
        case 2:
          if (!arrays.empty()) {
            const GridInfo& g = *pick(arrays);
            return Access(g.handle.id(), {}, to_nodes(simple_subscripts(g, sc)));
          }
          break;
        default:
          if (!written_temps.empty()) {
            return E(sc.temps[pick(written_temps)].first);
          }
          break;
      }
    }
    return lit(dlit());
  }

  E gen_dbl(int depth, Scope& sc) {
    if (depth <= 0 || chance(25)) return dbl_leaf(sc);
    switch (irange(0, 9)) {
      case 0:
        return gen_dbl(depth - 1, sc) + gen_dbl(depth - 1, sc);
      case 1:
        return gen_dbl(depth - 1, sc) - gen_dbl(depth - 1, sc);
      case 2:
        return gen_dbl(depth - 1, sc) * gen_dbl(depth - 1, sc);
      case 3:
        return gen_dbl(depth - 1, sc) /
               (call("ABS", {dbl_leaf(sc)}) + lit(1.0));
      case 4:
        return call("ABS", {gen_dbl(depth - 1, sc)});
      case 5:
        return call(chance(50) ? "MIN" : "MAX",
                    {gen_dbl(depth - 1, sc), gen_dbl(depth - 1, sc)});
      case 6:
        return call(chance(50) ? "SIN" : "COS", {gen_dbl(depth - 1, sc)});
      case 7:
        return call("SQRT", {call("ABS", {gen_dbl(depth - 1, sc)}) + lit(0.5)});
      case 8:
        return call("TANH", {gen_dbl(depth - 1, sc)});
      default:
        if (sc.allow_calls && !value_fns_.empty()) {
          const ValueFn& fn = pick(value_fns_);
          std::vector<E> args;
          for (const DataType t : fn.params) {
            args.push_back(t == DataType::kInt ? int_leaf(sc) : dbl_leaf(sc));
          }
          return call(fn.name, std::move(args));
        }
        return gen_dbl(depth - 1, sc) * dbl_leaf(sc);
    }
  }

  E gen_log(int depth, Scope& sc) {
    const auto log_scalars = typed_scalars(sc, DataType::kLogical);
    const auto log_arrays = typed_arrays(sc, DataType::kLogical);
    switch (irange(0, 5)) {
      case 0: {
        const E a = gen_dbl(1, sc);
        const E b = gen_dbl(1, sc);
        switch (irange(0, 3)) {
          case 0: return a < b;
          case 1: return a <= b;
          case 2: return a > b;
          default: return a >= b;
        }
      }
      case 1: {
        const E a = gen_int(1, sc);
        const E b = gen_int(1, sc);
        switch (irange(0, 2)) {
          case 0: return a == b;
          case 1: return a != b;
          default: return a < b;
        }
      }
      case 2:
        if (!log_scalars.empty()) return E(pick(log_scalars)->handle);
        if (!log_arrays.empty()) {
          const GridInfo& g = *pick(log_arrays);
          return Access(g.handle.id(), {}, to_nodes(simple_subscripts(g, sc)));
        }
        return gen_dbl(1, sc) < gen_dbl(1, sc);
      case 3:
        if (depth > 0) {
          const E a = gen_log(depth - 1, sc);
          const E b = gen_log(depth - 1, sc);
          return chance(50) ? (a && b) : (a || b);
        }
        return gen_int(1, sc) != gen_int(1, sc);
      default:
        if (depth > 0) return lnot(gen_log(depth - 1, sc));
        return gen_dbl(1, sc) > gen_dbl(1, sc);
    }
  }

  E gen_typed(DataType t, int depth, Scope& sc) {
    switch (t) {
      case DataType::kInt:
        return bound_int(gen_int(depth, sc));
      case DataType::kLogical:
        return gen_log(2, sc);
      default:
        return gen_dbl(depth, sc);
    }
  }

  static std::vector<ExprPtr> to_nodes(std::vector<E> es) {
    std::vector<ExprPtr> nodes;
    nodes.reserve(es.size());
    for (E& e : es) nodes.push_back(e.node());
    return nodes;
  }

  // ---- statements ----------------------------------------------------
  void gen_stmt(BodyBuilder& body, Scope& sc, int if_budget) {
    const int roll = irange(0, 99);
    if (roll < 30) {  // array element store
      if (!sc.arrays.empty()) {
        const GridInfo& g = *pick(sc.arrays);
        Access lhs(g.handle.id(), {}, to_nodes(gen_subscripts(g, sc)));
        if (g.type != DataType::kLogical && chance(30)) {
          // Self-update a[s] = a[s] op e with identical subscripts: feeds
          // the dependence analysis recognizable update patterns.
          Access same = lhs;
          E update = g.type == DataType::kInt
                         ? bound_int(E(same) + gen_int(1, sc))
                         : E(same) + call("TANH", {gen_dbl(1, sc)});
          body.assign(lhs, std::move(update));
        } else {
          body.assign(lhs, gen_typed(g.type, opts_.max_expr_depth, sc));
        }
        return;
      }
    } else if (roll < 42) {  // temp definition (always unconditional write)
      if (!sc.temps.empty()) {
        auto& [handle, written] = sc.temps[rng_.next_below(sc.temps.size())];
        body.assign(handle, gen_dbl(opts_.max_expr_depth, sc));
        written = true;
        return;
      }
    } else if (roll < 55) {  // reduction update
      if (sc.allow_reductions && !accs_.empty()) {
        const AccInfo& acc = pick(accs_);
        switch (acc.kind) {
          case AccKind::kSum:
            body.assign(acc.handle, E(acc.handle) + clamp3(gen_dbl(2, sc)));
            break;
          case AccKind::kMin:
            body.assign(acc.handle,
                        call("MIN", {E(acc.handle), clamp3(gen_dbl(2, sc))}));
            break;
          case AccKind::kMax:
            body.assign(acc.handle,
                        call("MAX", {E(acc.handle), clamp3(gen_dbl(2, sc))}));
            break;
          case AccKind::kSumInt:
            body.assign(acc.handle,
                        E(acc.handle) + call("MOD", {gen_int(2, sc), liti(97)}));
            break;
        }
        return;
      }
    } else if (roll < 70) {  // conditional
      if (if_budget > 0) {
        const E cond = gen_log(2, sc);
        const int then_count = irange(1, 2);
        const bool with_else = chance(40);
        // Writes inside an arm are conditional: they must not unlock temp
        // reads for later statements, so probe-write eligibility is saved
        // and restored around the arms.
        std::vector<std::pair<GridHandle, bool>> saved = sc.temps;
        body.if_(
            cond,
            [&](BodyBuilder& then_body) {
              for (int i = 0; i < then_count; ++i) {
                gen_stmt(then_body, sc, if_budget - 1);
              }
            },
            with_else ? std::function<void(BodyBuilder&)>(
                            [&](BodyBuilder& else_body) {
                              gen_stmt(else_body, sc, if_budget - 1);
                            })
                      : std::function<void(BodyBuilder&)>{});
        sc.temps = std::move(saved);
        return;
      }
    } else if (roll < 80) {  // whole-grid reduction into a Double scalar
      std::vector<const GridInfo*> targets;
      for (const GridInfo* g : sc.scalars) {
        if (g->type == DataType::kDouble && g->writable) targets.push_back(g);
      }
      std::vector<const GridInfo*> sources;
      for (const GridInfo* g : sc.arrays) {
        if (g->type != DataType::kLogical) sources.push_back(g);
      }
      if (!targets.empty() && !sources.empty()) {
        static constexpr const char* kWhole[] = {"SUM", "MINVAL", "MAXVAL"};
        body.assign(pick(targets)->handle,
                    call(kWhole[irange(0, 2)], {E(pick(sources)->handle)}));
        return;
      }
    }
    // Fallback: scalar store (always possible when any writable scalar
    // exists; otherwise an array store; otherwise a temp write).
    std::vector<const GridInfo*> writable;
    for (const GridInfo* g : sc.scalars) {
      if (g->writable) writable.push_back(g);
    }
    if (!writable.empty()) {
      const GridInfo& g = *pick(writable);
      body.assign(g.handle, gen_typed(g.type, opts_.max_expr_depth, sc));
    } else if (!sc.arrays.empty()) {
      const GridInfo& g = *pick(sc.arrays);
      body.assign(Access(g.handle.id(), {}, to_nodes(gen_subscripts(g, sc))),
                  gen_typed(g.type, opts_.max_expr_depth, sc));
    } else if (!sc.temps.empty()) {
      auto& [handle, written] = sc.temps[rng_.next_below(sc.temps.size())];
      body.assign(handle, gen_dbl(2, sc));
      written = true;
    }
  }

  // ---- functions -----------------------------------------------------
  void make_value_fns() {
    const int n = irange(0, opts_.max_aux_functions);
    for (int i = 0; i < n; ++i) {
      ValueFn fn;
      fn.name = cat("fz_fun", i);
      const int nparams = irange(1, 2);
      FunctionBuilder fb = pb_.function(fn.name, DataType::kDouble);
      std::vector<GridInfo> param_infos;
      for (int p = 0; p < nparams; ++p) {
        GridInfo info;
        info.type = chance(70) ? DataType::kDouble : DataType::kInt;
        info.name = cat("fz_a", p);
        info.handle = fb.param(info.name, info.type);
        fn.params.push_back(info.type);
        param_infos.push_back(std::move(info));
      }
      Scope sc;
      for (const GridInfo& p : param_infos) sc.scalars.push_back(&p);
      sc.allow_calls = false;  // keeps the call graph acyclic trivially
      StepBuilder st = fb.step("body");
      if (chance(50)) {
        const E cond = gen_log(1, sc);
        E early = gen_dbl(2, sc);
        st.if_(cond, [&](BodyBuilder& b) { b.ret(early); });
      }
      st.ret(gen_dbl(2, sc));
      value_fns_.push_back(std::move(fn));
    }
  }

  void make_subroutines() {
    std::vector<int> targets;
    for (std::size_t i = 0; i < grids_.size(); ++i) {
      if (grids_[i].is_array() && grids_[i].type != DataType::kLogical) {
        targets.push_back(static_cast<int>(i));
      }
    }
    if (targets.empty()) return;
    const int n = irange(0, opts_.max_aux_functions);
    for (int i = 0; i < n; ++i) {
      SubInfo sub;
      sub.name = cat("fz_sub", i);
      sub.target = pick(targets);
      sub.has_scalar_param = chance(50);
      const GridInfo& target = grids_[static_cast<std::size_t>(sub.target)];

      FunctionBuilder fb = pb_.function(sub.name);
      // The array parameter mirrors its bound global exactly (type and
      // literal extents) so flat addressing matches in the C backend.
      GridInfo param;
      param.name = "fz_p0";
      param.type = target.type;
      param.extents = target.extents;
      std::vector<E> dims;
      for (const std::int64_t ext : target.extents) {
        dims.push_back(liti(ext));
        param.extent_exprs.push_back(liti(ext).node());
      }
      param.handle = fb.param(param.name, param.type, std::move(dims));

      GridInfo scalar_param;
      if (sub.has_scalar_param) {
        scalar_param.name = "fz_s0";
        scalar_param.type = DataType::kDouble;
        scalar_param.writable = false;  // C passes scalars by value
        scalar_param.handle = fb.param(scalar_param.name, scalar_param.type);
      }
      GridHandle temp = fb.local("fz_t0", DataType::kDouble);

      const int nsteps = irange(1, 2);
      for (int s = 0; s < nsteps; ++s) {
        StepBuilder st = fb.step(cat("s", s));
        Scope sc;
        // No direct access to the bound global inside the subroutine: the
        // parameter aliases it, and mixed access would make the program's
        // meaning depend on the backend's argument-passing strategy.
        sc.arrays.push_back(&param);
        for (const GridInfo& g : grids_) {
          if (!g.is_array()) sc.scalars.push_back(&g);
        }
        for (const GridInfo& sp : size_params_) sc.scalars.push_back(&sp);
        if (sub.has_scalar_param) sc.scalars.push_back(&scalar_param);
        sc.temps.emplace_back(temp, false);
        sc.allow_calls = !value_fns_.empty();

        const int depth =
            std::min<int>(static_cast<int>(param.extents.size()), 2);
        for (int d = 0; d < depth; ++d) {
          const std::string var = cat("i", d);
          st.foreach_(var, liti(0), liti(param.extents[static_cast<std::size_t>(d)] - 1));
          sc.indices.emplace_back(var, param.extents[static_cast<std::size_t>(d)]);
        }
        const int nstmts = irange(1, 3);
        for (int k = 0; k < nstmts; ++k) gen_stmt(st, sc, 1);
      }
      subs_.push_back(std::move(sub));
    }
  }

  void make_entry() {
    FunctionBuilder fb = pb_.function(kEntryName);
    std::vector<GridHandle> temps;
    const int ntemps = irange(1, 2);
    for (int t = 0; t < ntemps; ++t) {
      temps.push_back(fb.local(cat("fz_t", t), DataType::kDouble));
    }

    const int nsteps = irange(1, opts_.max_steps);
    for (int s = 0; s < nsteps; ++s) {
      Scope sc;
      for (const GridInfo& g : grids_) {
        (g.is_array() ? sc.arrays : sc.scalars).push_back(&g);
      }
      for (const GridInfo& sp : size_params_) sc.scalars.push_back(&sp);
      for (const GridHandle& t : temps) sc.temps.emplace_back(t, false);
      sc.allow_calls = !value_fns_.empty();

      if (!subs_.empty() && chance(30)) {
        make_call_step(fb, s, sc);
      } else if (chance(15)) {
        make_straightline_step(fb, s, sc);
      } else {
        make_loop_step(fb, s, sc);
      }
    }
  }

  void make_call_step(FunctionBuilder& fb, int index, Scope& sc) {
    StepBuilder st = fb.step(cat("call", index));
    const SubInfo& sub = pick(subs_);
    std::vector<E> args;
    args.push_back(E(grids_[static_cast<std::size_t>(sub.target)].handle));
    if (sub.has_scalar_param) args.push_back(lit(dlit()));
    st.call_sub(sub.name, std::move(args));
    if (chance(50)) gen_stmt(st, sc, 0);
  }

  void make_straightline_step(FunctionBuilder& fb, int index, Scope& sc) {
    StepBuilder st = fb.step(cat("seq", index));
    // Occasional guarded early return: later steps are skipped under the
    // same condition in every backend.
    if (chance(25)) {
      const E cond = gen_log(1, sc);
      st.if_(cond, [](BodyBuilder& b) { b.ret(); });
    }
    const int nstmts = irange(1, 3);
    for (int k = 0; k < nstmts; ++k) gen_stmt(st, sc, 1);
  }

  void make_loop_step(FunctionBuilder& fb, int index, Scope& sc) {
    StepBuilder st = fb.step(cat("loop", index));
    const int depth = irange(1, opts_.max_loop_depth);
    std::vector<const AccInfo*> int_accs;
    for (const AccInfo& acc : accs_) {
      if (acc.kind == AccKind::kSumInt) int_accs.push_back(&acc);
    }
    const AccInfo* bound_acc = nullptr;
    for (int d = 0; d < depth; ++d) {
      std::int64_t bound = 0;
      ExprPtr extent;
      // Loop ranges usually follow a grid dimension (the common GLAF
      // idiom); sometimes an independent literal range.
      if (!sc.arrays.empty() && chance(70)) {
        const GridInfo& g = *pick(sc.arrays);
        const std::size_t dim = rng_.next_below(g.extents.size());
        bound = g.extents[dim];
        extent = g.extent_exprs[dim];
      } else {
        bound = irange(2, 6);
        extent = liti(bound).node();
      }
      const std::string var = cat("i", d);
      E last = E(extent) - liti(1);
      // Sometimes the outer loop's last index reads an INTEGER
      // accumulator the body updates: every backend must read the bound
      // once, at loop entry (also where the accumulator is a reduction).
      if (d == 0 && bound_acc == nullptr && !int_accs.empty() && chance(10)) {
        bound_acc = pick(int_accs);
        last = call("MOD", {call("ABS", {E(bound_acc->handle)}), liti(bound)});
      }
      const int roll = irange(0, 99);
      if (depth == 1 && roll < 10) {
        st.foreach_(var, liti(0), std::move(last), liti(2));
      } else if (roll < 20) {
        // The same indices downwards, by a negative literal stride.
        st.foreach_(var, std::move(last), liti(0), liti(chance(50) ? -1 : -2));
      } else {
        st.foreach_(var, liti(0), std::move(last));
      }
      sc.indices.emplace_back(var, bound);
    }
    sc.allow_reductions = opts_.use_reductions;
    if (bound_acc != nullptr) {
      st.assign(bound_acc->handle,
                E(bound_acc->handle) + call("MOD", {gen_int(2, sc), liti(97)}));
    }
    const int nstmts = irange(1, opts_.max_stmts_per_step);
    for (int k = 0; k < nstmts; ++k) gen_stmt(st, sc, 1);
  }

  SplitMix64 rng_;
  GeneratorOptions opts_;
  ProgramBuilder pb_;
  std::vector<GridInfo> grids_;
  std::vector<GridInfo> size_params_;
  std::vector<std::int64_t> size_values_;
  std::vector<AccInfo> accs_;
  std::vector<ValueFn> value_fns_;
  std::vector<SubInfo> subs_;
};

}  // namespace

StatusOr<FuzzProgram> generate_program(std::uint64_t seed,
                                       const GeneratorOptions& opts) {
  Generator gen(seed, opts);
  return gen.run();
}

}  // namespace glaf::fuzz
