#include "interp/plan.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "core/libfuncs.hpp"
#include "core/typecheck.hpp"
#include "interp/exec_common.hpp"
#include "support/strings.hpp"

namespace glaf::interp {
namespace {

/// Largest double that still represents every integer exactly.
constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53

bool integral(double v) {
  return std::isfinite(v) && v == std::floor(v) &&
         std::fabs(v) < kExactIntLimit;
}

/// An affine subscript: coeff * idx[slot] + constant (coeff == 0 means a
/// pure constant). Only exact-integer combinations are represented, so
/// evaluating in int64 matches llround(double evaluation) bit for bit.
struct Affine {
  std::int64_t coeff = 0;
  std::int64_t constant = 0;
  std::uint16_t slot = 0;
};

/// Compiles one function into a FunctionPlan. The compiler mirrors the
/// tree-walk Executor's semantics exactly, including its evaluation order
/// and failure behaviour: statements that would fail at run time compile
/// to kTrap instructions carrying the identical message, raised only if
/// actually executed.
class PlanCompiler {
 public:
  explicit PlanCompiler(const Program& program) : program_(program) {}

  FunctionPlan compile(const Function& fn) {
    out_ = FunctionPlan{};
    out_.fn = &fn;
    const_pool_.clear();
    ref_pool_.clear();
    out_.steps.reserve(fn.steps.size());
    for (const Step& step : fn.steps) compile_step(step);
    return std::move(out_);
  }

 private:
  // ---- pools -------------------------------------------------------------

  std::uint16_t alloc_reg() {
    const std::uint16_t r = next_reg_++;
    if (next_reg_ > out_.num_regs) out_.num_regs = next_reg_;
    return r;
  }

  std::uint32_t emit(PlanInstr in) {
    out_.code.push_back(in);
    return static_cast<std::uint32_t>(out_.code.size() - 1);
  }

  std::uint32_t add_const(double v) {
    // Key by bit pattern so -0.0 and NaN payloads round-trip exactly.
    const std::uint64_t key = std::bit_cast<std::uint64_t>(v);
    const auto it = const_pool_.find(key);
    if (it != const_pool_.end()) return it->second;
    out_.consts.push_back(v);
    const auto id = static_cast<std::uint32_t>(out_.consts.size() - 1);
    const_pool_.emplace(key, id);
    return id;
  }

  std::uint16_t emit_const(double v) {
    const std::uint16_t r = alloc_reg();
    emit({POp::kConst, 0, r, 0, 0, add_const(v)});
    return r;
  }

  std::uint32_t add_ref(GridId grid, const std::string& field) {
    const auto key = std::make_pair(grid, field);
    const auto it = ref_pool_.find(key);
    if (it != ref_pool_.end()) return it->second;
    out_.refs.push_back(GridRefPlan{grid, field});
    const auto id = static_cast<std::uint32_t>(out_.refs.size() - 1);
    ref_pool_.emplace(key, id);
    return id;
  }

  std::uint32_t add_trap(std::string msg) {
    out_.traps.push_back(std::move(msg));
    return static_cast<std::uint32_t>(out_.traps.size() - 1);
  }

  /// Emit a trap and return a dummy register (the trap unwinds first, but
  /// expression compilation needs a register to thread through).
  std::uint16_t emit_trap(std::string msg) {
    emit({POp::kTrap, 0, 0, 0, 0, add_trap(std::move(msg))});
    return alloc_reg();
  }

  // ---- index slots -------------------------------------------------------

  /// Innermost-binding-wins lookup, mirroring IndexEnv.
  std::optional<std::uint16_t> find_slot(const std::string& name) const {
    for (auto it = idx_names_.rbegin(); it != idx_names_.rend(); ++it) {
      if (*it->first == name) return it->second;
    }
    return std::nullopt;
  }

  // ---- interpreter-exact constant folding --------------------------------

  /// Folds pure-literal subtrees with the interpreter's operator
  /// semantics (exec_common.hpp). Refuses to fold anything the interpreter
  /// would fail on (integer division by zero), so lazy failure is
  /// preserved. This is deliberately NOT core/expr.cpp's fold_constant,
  /// whose integer rules differ from the interpreter (e.g. `1/0` folds to
  /// NaN there).
  std::optional<double> try_fold(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return value_as_double(e.literal);
      case Expr::Kind::kUnary: {
        const auto a = try_fold(*e.args[0]);
        if (!a) return std::nullopt;
        return unary_op(e.uop, *a);
      }
      case Expr::Kind::kBinary: {
        const auto a = try_fold(*e.args[0]);
        const auto b = try_fold(*e.args[1]);
        if (!a || !b) return std::nullopt;
        const bool idiv = int_div(e);
        if (idiv && *b == 0.0) return std::nullopt;  // runtime failure
        return binary_op(e.bop, *a, *b, idiv);
      }
      default:
        return std::nullopt;
    }
  }

  /// Match `e` as an exact-integer affine form over one index slot.
  std::optional<Affine> match_affine(const Expr& e) {
    if (const auto v = try_fold(e)) {
      if (!integral(*v)) return std::nullopt;
      return Affine{0, static_cast<std::int64_t>(*v), 0};
    }
    switch (e.kind) {
      case Expr::Kind::kIndex: {
        const auto slot = find_slot(e.index_name);
        if (!slot) return std::nullopt;
        return Affine{1, 0, *slot};
      }
      case Expr::Kind::kUnary: {
        if (e.uop != UnOp::kNeg) return std::nullopt;
        auto a = match_affine(*e.args[0]);
        if (!a) return std::nullopt;
        a->coeff = -a->coeff;
        a->constant = -a->constant;
        return a;
      }
      case Expr::Kind::kBinary: {
        if (e.bop == BinOp::kAdd || e.bop == BinOp::kSub) {
          auto a = match_affine(*e.args[0]);
          auto b = match_affine(*e.args[1]);
          if (!a || !b) return std::nullopt;
          if (e.bop == BinOp::kSub) {
            b->coeff = -b->coeff;
            b->constant = -b->constant;
          }
          if (a->coeff != 0 && b->coeff != 0 && a->slot != b->slot) {
            return std::nullopt;  // two distinct indices: not 1-D affine
          }
          Affine r;
          r.coeff = a->coeff + b->coeff;
          r.constant = a->constant + b->constant;
          r.slot = a->coeff != 0 ? a->slot : b->slot;
          return r;
        }
        if (e.bop == BinOp::kMul) {
          auto a = match_affine(*e.args[0]);
          auto b = match_affine(*e.args[1]);
          if (!a || !b) return std::nullopt;
          if (a->coeff != 0 && b->coeff != 0) return std::nullopt;
          if (a->coeff == 0) std::swap(a, b);  // a carries the index (if any)
          return Affine{a->coeff * b->constant, a->constant * b->constant,
                        a->slot};
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
  }

  // ---- expression compilation -------------------------------------------

  std::uint16_t compile_expr(const Expr& e) {
    if (const auto v = try_fold(e)) return emit_const(*v);
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return emit_const(value_as_double(e.literal));
      case Expr::Kind::kIndex: {
        const auto slot = find_slot(e.index_name);
        if (!slot) {
          return emit_trap(
              cat("index variable '", e.index_name, "' not bound"));
        }
        const std::uint16_t r = alloc_reg();
        emit({POp::kLoadIdx, 0, r, *slot, 0, 0});
        return r;
      }
      case Expr::Kind::kGridRead: {
        const Grid& g = program_.grid(e.grid);
        if (e.args.empty() && !g.dims.empty()) {
          // Mirror the tree-walk order: missing storage reports first,
          // then the whole-grid-read error.
          const std::uint32_t ref = add_ref(e.grid, e.field);
          emit({POp::kGuardRef, 0, 0, 0, 0, ref});
          return emit_trap(cat("whole-grid read of '", g.name,
                               "' outside a call argument"));
        }
        const std::uint32_t acc = compile_access(e.grid, e.field, e.args);
        const std::uint16_t r = alloc_reg();
        emit({POp::kLoadGrid, 0, r, 0, 0, acc});
        return r;
      }
      case Expr::Kind::kBinary: {
        const std::uint16_t a = compile_expr(*e.args[0]);
        const std::uint16_t b = compile_expr(*e.args[1]);
        POp op = POp::kAdd;
        switch (e.bop) {
          case BinOp::kAdd: op = POp::kAdd; break;
          case BinOp::kSub: op = POp::kSub; break;
          case BinOp::kMul: op = POp::kMul; break;
          case BinOp::kDiv:
            op = int_div(e) ? POp::kIntDiv : POp::kDiv;
            break;
          case BinOp::kPow: op = POp::kPow; break;
          case BinOp::kMod: op = POp::kMod; break;
          case BinOp::kLt: op = POp::kLt; break;
          case BinOp::kLe: op = POp::kLe; break;
          case BinOp::kGt: op = POp::kGt; break;
          case BinOp::kGe: op = POp::kGe; break;
          case BinOp::kEq: op = POp::kEq; break;
          case BinOp::kNe: op = POp::kNe; break;
          case BinOp::kAnd: op = POp::kAnd; break;
          case BinOp::kOr: op = POp::kOr; break;
        }
        const std::uint16_t r = alloc_reg();
        emit({op, 0, r, a, b, 0});
        return r;
      }
      case Expr::Kind::kUnary: {
        const std::uint16_t a = compile_expr(*e.args[0]);
        const std::uint16_t r = alloc_reg();
        emit({e.uop == UnOp::kNeg ? POp::kNeg : POp::kNot, 0, r, a, 0, 0});
        return r;
      }
      case Expr::Kind::kCall:
        return compile_call(e);
    }
    return emit_const(0.0);
  }

  /// Compile a grid element access: classify each subscript as constant,
  /// affine-in-one-index, or dynamic (evaluated into a register).
  std::uint32_t compile_access(GridId grid, const std::string& field,
                               const std::vector<ExprPtr>& subs) {
    AccessPlan ap;
    ap.ref = add_ref(grid, field);
    ap.dims.reserve(subs.size());
    // Classification is pure; emission below preserves evaluation order.
    bool any_dyn = false;
    std::vector<std::optional<Affine>> forms(subs.size());
    for (std::size_t d = 0; d < subs.size(); ++d) {
      forms[d] = match_affine(*subs[d]);
      if (!forms[d]) any_dyn = true;
    }
    if (any_dyn) {
      // The tree-walk checks storage before evaluating subscripts; keep
      // that order visible when a subscript evaluation could itself fail.
      emit({POp::kGuardRef, 0, 0, 0, 0, ap.ref});
    }
    for (std::size_t d = 0; d < subs.size(); ++d) {
      DimPlan dp;
      if (forms[d] && forms[d]->coeff == 0) {
        dp.kind = DimPlan::Kind::kConst;
        dp.constant = forms[d]->constant;
      } else if (forms[d]) {
        dp.kind = DimPlan::Kind::kAffine;
        dp.coeff = forms[d]->coeff;
        dp.constant = forms[d]->constant;
        dp.slot = forms[d]->slot;
      } else {
        dp.kind = DimPlan::Kind::kDyn;
        dp.reg = compile_expr(*subs[d]);
      }
      ap.dims.push_back(dp);
    }
    out_.accesses.push_back(std::move(ap));
    return static_cast<std::uint32_t>(out_.accesses.size() - 1);
  }

  std::uint16_t compile_call(const Expr& e) {
    if (const LibFunc* lib = find_lib_func(e.callee)) {
      if (lib->whole_grid) {
        if (e.args.empty() || e.args[0]->kind != Expr::Kind::kGridRead ||
            !e.args[0]->args.empty()) {
          return emit_trap(cat(lib->name, " expects a whole-grid argument"));
        }
        LibCallPlan lc;
        lc.lib = lib;
        lc.ref = add_ref(e.args[0]->grid, e.args[0]->field);
        out_.lib_calls.push_back(lc);
        const auto id =
            static_cast<std::uint32_t>(out_.lib_calls.size() - 1);
        const std::uint16_t r = alloc_reg();
        emit({POp::kCallLibGrid, 0, r, 0, 0, id});
        return r;
      }
      LibCallPlan lc;
      lc.lib = lib;
      lc.args_begin = static_cast<std::uint32_t>(out_.arg_regs.size());
      lc.argc = static_cast<std::uint32_t>(e.args.size());
      // Reserve the slots first: argument expressions may contain nested
      // lib calls that append to arg_regs themselves.
      out_.arg_regs.resize(out_.arg_regs.size() + e.args.size());
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        out_.arg_regs[lc.args_begin + i] = compile_expr(*e.args[i]);
      }
      const IntResult rule = int_result_rule(*lib, type_of(e));
      std::uint8_t flags = rule == IntResult::kNone ? 0 : kFlagTruncResult;
      if (rule == IntResult::kNint) flags |= kFlagNint;
      out_.lib_calls.push_back(lc);
      const auto id = static_cast<std::uint32_t>(out_.lib_calls.size() - 1);
      const std::uint16_t r = alloc_reg();
      emit({POp::kCallLib, flags, r, 0, 0, id});
      return r;
    }
    const Function* target = program_.find_function(e.callee);
    if (target == nullptr) {
      return emit_trap(cat("unknown function ", e.callee));
    }
    const std::uint32_t site = compile_call_args(*target, e.args);
    if (site == UINT32_MAX) {
      return emit_trap(cat("call to '", target->name, "': expected ",
                           target->params.size(), " arguments, got ",
                           e.args.size()));
    }
    const std::uint16_t r = alloc_reg();
    emit({POp::kCallUser, 0, r, 0, 0, site});
    return r;
  }

  /// Compile a call-site argument list; returns UINT32_MAX when a value
  /// argument has no corresponding parameter grid (arity mismatch that the
  /// callee would report anyway — we trap with the same message).
  std::uint32_t compile_call_args(const Function& target,
                                  const std::vector<ExprPtr>& args) {
    CallSitePlan site;
    site.callee = target.id;
    site.args.reserve(args.size());
    for (const ExprPtr& a : args) {
      CallSitePlan::Arg arg;
      if (a->kind == Expr::Kind::kGridRead && a->args.empty()) {
        arg.whole_grid = true;
        arg.grid = a->grid;
      } else {
        if (site.args.size() >= target.params.size()) return UINT32_MAX;
        arg.grid = target.params[site.args.size()];  // temp's grid binding
        arg.reg = compile_expr(*a);
      }
      site.args.push_back(arg);
    }
    out_.call_sites.push_back(std::move(site));
    return static_cast<std::uint32_t>(out_.call_sites.size() - 1);
  }

  // ---- statements --------------------------------------------------------

  void compile_stmt(const Stmt& stmt) {
    next_reg_ = 0;  // registers are statement-scoped
    switch (stmt.kind) {
      case Stmt::Kind::kAssign:
        compile_assign(stmt);
        return;
      case Stmt::Kind::kIf: {
        std::vector<std::uint32_t> end_jumps;
        for (const IfArm& arm : stmt.arms) {
          next_reg_ = 0;
          const std::uint16_t c = compile_expr(*arm.cond);
          const std::uint32_t jz = emit({POp::kJumpIfZero, 0, 0, c, 0, 0});
          for (const Stmt& s : arm.body) compile_stmt(s);
          end_jumps.push_back(emit({POp::kJump, 0, 0, 0, 0, 0}));
          out_.code[jz].c = static_cast<std::uint32_t>(out_.code.size());
        }
        for (const Stmt& s : stmt.else_body) compile_stmt(s);
        for (const std::uint32_t j : end_jumps) {
          out_.code[j].c = static_cast<std::uint32_t>(out_.code.size());
        }
        return;
      }
      case Stmt::Kind::kCallSub: {
        const Function* target = program_.find_function(stmt.callee);
        if (target == nullptr) {
          emit_trap(cat("unknown subroutine ", stmt.callee));
          return;
        }
        const std::uint32_t site = compile_call_args(*target, stmt.args);
        if (site == UINT32_MAX) {
          emit_trap(cat("call to '", target->name, "': expected ",
                        target->params.size(), " arguments, got ",
                        stmt.args.size()));
          return;
        }
        emit({POp::kCallSub, 0, 0, 0, 0, site});
        return;
      }
      case Stmt::Kind::kReturn: {
        if (stmt.ret) {
          const std::uint16_t r = compile_expr(*stmt.ret);
          emit({POp::kReturnValue, 0, 0, r, 0, 0});
        } else {
          emit({POp::kReturnVoid, 0, 0, 0, 0, 0});
        }
        return;
      }
    }
  }

  void compile_assign(const Stmt& stmt) {
    const Grid& g = program_.grid(stmt.lhs.grid);
    const bool trunc = g.field_type(stmt.lhs.field) == DataType::kInt;
    const std::uint16_t rhs = compile_expr(*stmt.rhs);
    const std::uint32_t acc =
        compile_access(stmt.lhs.grid, stmt.lhs.field, stmt.lhs.subscripts);
    emit({POp::kStoreGrid, static_cast<std::uint8_t>(trunc ? kFlagTruncStore : 0),
          0, rhs, 0, acc});
  }

  // ---- steps -------------------------------------------------------------

  ExprProg compile_prog(const Expr& e) {
    ExprProg p;
    next_reg_ = 0;
    p.begin = static_cast<std::uint32_t>(out_.code.size());
    p.reg = compile_expr(e);
    p.end = static_cast<std::uint32_t>(out_.code.size());
    if (p.end == p.begin + 1 && out_.code[p.begin].op == POp::kConst) {
      p.is_const = true;
      p.const_value = out_.consts[out_.code[p.begin].c];
    }
    return p;
  }

  void compile_step(const Step& step) {
    StepPlan sp;
    const std::size_t base = idx_names_.size();
    sp.loops.reserve(step.loops.size());
    for (std::size_t d = 0; d < step.loops.size(); ++d) {
      const LoopSpec& loop = step.loops[d];
      LoopPlan lp;
      // Bounds see the outer loops' indices only (the tree-walk evaluates
      // them before pushing this loop's binding).
      lp.begin = compile_prog(*loop.begin);
      lp.end = compile_prog(*loop.end);
      if (loop.stride) {
        lp.has_stride = true;
        lp.stride = compile_prog(*loop.stride);
      }
      lp.idx_slot = static_cast<std::uint16_t>(d);
      idx_names_.emplace_back(&loop.index_var, lp.idx_slot);
      sp.loops.push_back(std::move(lp));
    }
    if (step.loops.size() > out_.num_idx) {
      out_.num_idx = static_cast<std::uint16_t>(step.loops.size());
    }
    sp.body_begin = static_cast<std::uint32_t>(out_.code.size());
    for (const Stmt& s : step.body) compile_stmt(s);
    sp.body_end = static_cast<std::uint32_t>(out_.code.size());
    idx_names_.resize(base);
    out_.steps.push_back(std::move(sp));
  }

  /// A DIV of two INTEGER operands (truncating, failing on zero).
  bool int_div(const Expr& e) {
    return e.bop == BinOp::kDiv && type_of(*e.args[0]) == DataType::kInt &&
           type_of(*e.args[1]) == DataType::kInt;
  }

  DataType type_of(const Expr& e) {
    const auto it = type_cache_.find(&e);
    if (it != type_cache_.end()) return it->second;
    const DataType t = infer_type(program_, e);
    type_cache_.emplace(&e, t);
    return t;
  }

  const Program& program_;

  FunctionPlan out_;
  std::map<std::uint64_t, std::uint32_t> const_pool_;
  std::map<std::pair<GridId, std::string>, std::uint32_t> ref_pool_;
  std::vector<std::pair<const std::string*, std::uint16_t>> idx_names_;
  std::uint16_t next_reg_ = 0;
  std::map<const Expr*, DataType> type_cache_;
};

}  // namespace

ProgramPlan compile_plans(const Program& program,
                          const ProgramAnalysis& /*analysis*/,
                          const std::set<GridId>& /*atomic_grids*/) {
  ProgramPlan plans;
  plans.functions.resize(program.functions.size());
  PlanCompiler compiler(program);
  for (const Function& fn : program.functions) {
    plans.functions[fn.id] = compiler.compile(fn);
  }
  return plans;
}

}  // namespace glaf::interp
