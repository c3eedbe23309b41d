#pragma once
// Semantics shared by the two execution engines (the tree-walk Executor in
// machine.cpp and the plan VM in vm.cpp), written down once: error
// unwinding, operator and library-result rules, and the routines that
// build every grid instance (globals, locals, SAVE'd locals and
// parallel-region private copies).

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/libfuncs.hpp"
#include "interp/machine.hpp"

namespace glaf::interp {

/// Internal unwinding for runtime errors; converted to Status at the API
/// boundary (Machine::call).
struct InterpError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void fail(const std::string& msg) {
  throw InterpError(msg);
}

/// A binary operator on the interpreter's doubles. `int_div` marks a DIV
/// whose operands are both INTEGER: it truncates toward zero and fails on
/// a zero divisor (FORTRAN / C semantics).
inline double binary_op(BinOp op, double a, double b, bool int_div) {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kMul: return a * b;
    case BinOp::kDiv:
      if (!int_div) return a / b;
      if (b == 0.0) fail("integer division by zero");
      return std::trunc(a / b);
    case BinOp::kPow: return std::pow(a, b);
    case BinOp::kMod: return std::fmod(a, b);
    case BinOp::kLt: return a < b ? 1.0 : 0.0;
    case BinOp::kLe: return a <= b ? 1.0 : 0.0;
    case BinOp::kGt: return a > b ? 1.0 : 0.0;
    case BinOp::kGe: return a >= b ? 1.0 : 0.0;
    case BinOp::kEq: return a == b ? 1.0 : 0.0;
    case BinOp::kNe: return a != b ? 1.0 : 0.0;
    case BinOp::kAnd: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case BinOp::kOr: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  return 0.0;
}

inline double unary_op(UnOp op, double a) {
  return op == UnOp::kNeg ? -a : (a == 0.0 ? 1.0 : 0.0);
}

/// The INTEGER-result rule for library calls: a call of INTEGER type
/// truncates the library's value, except NINT, which rounds its argument
/// to nearest.
enum class IntResult : std::uint8_t { kNone, kTrunc, kNint };

inline IntResult int_result_rule(const LibFunc& lib, DataType call_type) {
  if (lib.result != LibResult::kInt &&
      !(lib.result == LibResult::kSameAsArg && call_type == DataType::kInt)) {
    return IntResult::kNone;
  }
  return lib.name == "NINT" ? IntResult::kNint : IntResult::kTrunc;
}

inline double apply_int_result(IntResult rule, double value,
                               const double* args) {
  if (rule == IntResult::kNint) return std::nearbyint(args[0]);
  return rule == IntResult::kTrunc ? std::trunc(value) : value;
}

/// Runs a user function met inside an extent expression. The engine that
/// builds the storage passes its own call path, so plan-VM frames keep
/// their global overrides and their stats.
class UserCalls {
 public:
  virtual double call_user(const Function& fn, Instance* const* args,
                           std::size_t nargs) = 0;

 protected:
  ~UserCalls() = default;
};

/// (Re)builds `inst` in place as storage for `g`: extents evaluated over
/// `slots` (indexed by GridId, no loop index bound), every element zero,
/// then the grid's initial data. A recycled instance keeps its buffers.
void build_instance(const Program& program, Instance& inst, const Grid& g,
                    Instance* const* slots, UserCalls& calls);

/// Binds `fn`'s locals into `slots`. SAVE'd locals (every local under
/// `save_temporaries`) come from `save_cache`, built on first use — the
/// FUN3D §4.2.1 mechanism; the others are built per call and owned by
/// `keepalive`. Each array built counts in `stats.local_allocations`.
void materialize_locals(const Program& program, const Function& fn,
                        bool save_temporaries, Instance** slots,
                        std::vector<std::shared_ptr<Instance>>& keepalive,
                        std::map<GridId, std::shared_ptr<Instance>>& save_cache,
                        InterpStats& stats, UserCalls& calls);

}  // namespace glaf::interp
