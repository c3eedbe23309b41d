#pragma once
// Flat execution plans — the interpreter's bytecode tier. A one-time
// per-function compiler lowers each step's loop nest and statement list
// into a register-based instruction stream:
//
//  - index variables are resolved to integer slots (no string lookups);
//  - grid accesses are resolved to access descriptors whose constant and
//    loop-affine subscript parts are folded into precomputed row-major
//    stride terms at bind time, so the hot loop does one multiply-add per
//    varying dimension instead of re-evaluating subscript trees;
//  - literals are constant-folded with interpreter-exact semantics and
//    lib functions are pre-bound to their evaluator pointers.
//
// The plans are execution-engine input only: the tree-walk Executor in
// machine.cpp remains the semantic reference, and the VM (vm.cpp) is
// required to produce bit-identical results (the fuzz oracle and
// tests/interp enforce this).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "core/program.hpp"

namespace glaf {

struct LibFunc;

namespace interp {

/// Plan opcodes. All values flow through double registers, mirroring the
/// tree-walk evaluator's "everything is a double" model.
enum class POp : std::uint8_t {
  kConst,        ///< regs[dst] = consts[c]
  kLoadIdx,      ///< regs[dst] = idx[a]
  kLoadGrid,     ///< regs[dst] = *element(accesses[c])
  kStoreGrid,    ///< *element(accesses[c]) = regs[a] (flags: trunc-to-int)
  kAdd, kSub, kMul, kDiv, kIntDiv, kPow, kMod,
  kLt, kLe, kGt, kGe, kEq, kNe, kAnd, kOr,
  kNeg, kNot,
  kCallLib,      ///< regs[dst] = lib_calls[c].eval(args...)
  kCallLibGrid,  ///< whole-grid lib reduction (SUM/MINVAL/MAXVAL)
  kCallUser,     ///< regs[dst] = call user function (call_sites[c])
  kCallSub,      ///< CALL statement (call_sites[c]); no result
  kJump,         ///< pc = c
  kJumpIfZero,   ///< if (regs[a] == 0) pc = c
  kGuardRef,     ///< fail "has no storage" now if refs[c] is unbound
  kReturnValue,  ///< function RETURN expr (regs[a])
  kReturnVoid,   ///< function RETURN
  kTrap,         ///< raise traps[c] (lazily-failing statements)
};

/// Instruction flags.
inline constexpr std::uint8_t kFlagTruncStore = 1;  ///< INTEGER lhs truncation
inline constexpr std::uint8_t kFlagTruncResult = 2; ///< INTEGER lib result
inline constexpr std::uint8_t kFlagNint = 4;        ///< NINT rounding override

struct PlanInstr {
  POp op = POp::kTrap;
  std::uint8_t flags = 0;
  std::uint16_t dst = 0;  ///< destination register
  std::uint16_t a = 0;    ///< operand register / idx slot
  std::uint16_t b = 0;    ///< second operand register
  std::uint32_t c = 0;    ///< const / access / call-site / jump target
};

/// One grid (+field) referenced by a plan; bound to a raw buffer per call.
struct GridRefPlan {
  GridId grid = 0;
  std::string field;  ///< empty for non-struct grids
};

/// One subscript dimension of an access, classified at compile time.
struct DimPlan {
  enum class Kind : std::uint8_t {
    kConst,   ///< constant subscript
    kAffine,  ///< coeff * idx[slot] + constant
    kDyn,     ///< arbitrary expression, evaluated into a register
  };
  Kind kind = Kind::kConst;
  std::int64_t constant = 0;  ///< kConst value / kAffine addend
  std::int64_t coeff = 1;     ///< kAffine multiplier
  std::uint16_t slot = 0;     ///< kAffine index slot
  std::uint16_t reg = 0;      ///< kDyn source register
};

/// One grid element access (read or write site). The binder folds every
/// kConst part and pre-multiplies kAffine coefficients by the bound
/// row-major strides, hoisting all loop-invariant subscript arithmetic
/// out of the instruction stream.
struct AccessPlan {
  std::uint32_t ref = 0;  ///< index into FunctionPlan::refs
  std::vector<DimPlan> dims;
};

/// A call site (user function or subroutine) with pre-resolved target.
struct CallSitePlan {
  FunctionId callee = 0;
  struct Arg {
    bool whole_grid = false;
    /// Whole-grid argument: the slot passed by reference. Value argument:
    /// the callee's parameter grid (binds the temporary scalar instance).
    GridId grid = 0;
    std::uint16_t reg = 0;  ///< value argument: evaluated into this register
  };
  std::vector<Arg> args;
};

/// A pre-bound lib-function call.
struct LibCallPlan {
  const LibFunc* lib = nullptr;
  std::uint32_t args_begin = 0;  ///< range into FunctionPlan::arg_regs
  std::uint32_t argc = 0;
  std::uint32_t ref = 0;         ///< whole-grid calls: FunctionPlan::refs idx
};

/// A compiled expression program: run code[begin,end), read regs[reg].
/// Single-constant programs are precomputed (is_const) so loop bounds and
/// extents that fold don't touch the dispatch loop at all.
struct ExprProg {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint16_t reg = 0;
  bool is_const = false;
  double const_value = 0.0;
};

struct LoopPlan {
  ExprProg begin;
  ExprProg end;
  ExprProg stride;
  bool has_stride = false;
  std::uint16_t idx_slot = 0;
};

struct StepPlan {
  std::vector<LoopPlan> loops;
  std::uint32_t body_begin = 0;
  std::uint32_t body_end = 0;
};

/// Everything needed to execute one function without touching the AST.
struct FunctionPlan {
  const Function* fn = nullptr;
  std::vector<PlanInstr> code;     ///< all programs are ranges into this
  std::vector<double> consts;
  std::vector<GridRefPlan> refs;
  std::vector<AccessPlan> accesses;
  std::vector<CallSitePlan> call_sites;
  std::vector<LibCallPlan> lib_calls;
  std::vector<std::uint16_t> arg_regs;  ///< lib-call argument registers
  std::vector<std::string> traps;
  std::vector<StepPlan> steps;
  std::uint16_t num_regs = 0;
  std::uint16_t num_idx = 0;
};

/// Plans for a whole program, indexed by FunctionId.
struct ProgramPlan {
  std::vector<FunctionPlan> functions;
};

/// Compile every function. The plans run serially, so they read neither
/// the analysis nor the ATOMIC grid set; both parameters stay for the
/// callers that already pass them (the benchmark harness replays this
/// stage with them).
ProgramPlan compile_plans(const Program& program,
                          const ProgramAnalysis& analysis,
                          const std::set<GridId>& atomic_grids);

}  // namespace interp
}  // namespace glaf
