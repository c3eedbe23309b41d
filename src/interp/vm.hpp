#pragma once
// The plan VM: executes FunctionPlans compiled by plan.cpp. One
// PlanExecutor runs one top-level call tree; parallel regions reuse a
// persistent per-rank worker PlanExecutor whose frames, bindings and
// private-copy instances are recycled across chunks and steps — parallel
// dispatch stops copying shared_ptr maps entirely.
//
// Run serially, the VM must be observably identical to the tree-walk
// Executor (machine.cpp): same results bit for bit, same stats, same
// trace entries, same failure messages. Where it is deliberately cheaper
// (flat offset guard instead of per-dimension subscript checks), the
// GLAF_CHECKED_PLANS build option restores the full checks. Its parallel
// path is the interpreter's only one. Outside the plans it evaluates
// nothing itself: locals, SAVE'd locals and private copies are built by
// the routines the tree-walk uses (exec_common.hpp).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "interp/exec_common.hpp"
#include "interp/machine.hpp"
#include "interp/plan.hpp"

namespace glaf::interp {

/// One grid(+field) resolved to a raw buffer for the current call.
struct BoundRef {
  double* base = nullptr;
  std::int64_t size = 0;        ///< buffer element count
  const Instance* inst = nullptr;
  std::uint8_t err = 0;         ///< 0 ok, 1 no storage, 2 missing field
};

/// One folded offset term: scale * (idx[src] or llround(regs[src])).
struct BoundTerm {
  std::int64_t scale = 0;
  std::uint16_t src = 0;
  bool dyn = false;
};

/// An access with constant parts folded and strides pre-multiplied.
struct BoundAccess {
  std::uint32_t ref = 0;
  std::int64_t folded = 0;  ///< loop-invariant part of the flat offset
  std::uint32_t terms_begin = 0;
  std::uint32_t terms_end = 0;
  bool arity_bad = false;   ///< subscript count != instance rank
};

/// Execution frame: raw slot pointers, a register file and index slots.
struct PlanFrame {
  std::vector<Instance*> slots;     ///< indexed by GridId
  std::vector<double> regs;
  std::vector<std::int64_t> idx;
  bool returned = false;
  double ret_value = 0.0;
};

/// Per-call-depth scratch, pooled and reused across calls.
struct CallScratch {
  PlanFrame frame;
  std::vector<BoundRef> refs;
  std::vector<BoundAccess> accesses;
  std::vector<BoundTerm> terms;
  /// Owners for per-call instances (locals, thread copies); the frame's
  /// raw pointers stay valid exactly as long as these do.
  std::vector<std::shared_ptr<Instance>> keepalive;
  std::vector<Instance*> call_args;
  /// Reusable scalar temporaries for by-value call arguments.
  std::vector<std::shared_ptr<Instance>> temp_pool;
  std::size_t temps_used = 0;
};

class PlanExecutor final : public UserCalls {
 public:
  explicit PlanExecutor(Machine& m);
  ~PlanExecutor();

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Execute one function; `args` are the bound parameter instances.
  double call_function(const FunctionPlan& plan, Instance* const* args,
                       std::size_t nargs);
  /// A user function called from an extent expression: runs on this
  /// executor, under its global overrides and into its stats.
  double call_user(const Function& fn, Instance* const* args,
                   std::size_t nargs) override;

  InterpStats stats;

  /// Per-rank replacements for global grids (private/firstprivate/
  /// reduction copies inside a parallel region), threaded into every
  /// callee frame so subprograms called from the region see the rank's
  /// copies, mirroring OpenMP's threadprivate semantics. Raw pointers,
  /// owned by the worker's caches.
  std::map<GridId, Instance*> global_overrides;
  /// True on the per-rank workers of a parallel region: updates to
  /// machine-level atomic grids are then serialized (orphaned OMP
  /// ATOMIC directives in callees), and nested regions run serially.
  bool in_parallel_region = false;

 private:
  struct Ctx {
    const FunctionPlan* plan = nullptr;
    CallScratch* cs = nullptr;
    const StepVerdict* verdict = nullptr;
    bool parallel_active = false;
  };

  CallScratch& acquire_scratch();
  void release_scratch(CallScratch& cs);
  void reset_after_error();

  void bind(CallScratch& cs, const FunctionPlan& plan);
  double* elem_addr(Ctx& C, std::uint32_t access);
  [[noreturn]] void ref_fail(Ctx& C, std::uint32_t ref_idx);

  void run_range(Ctx& C, std::uint32_t begin, std::uint32_t end);
  std::int64_t eval_prog_int(Ctx& C, const ExprProg& p);
  void run_loops(Ctx& C, const StepPlan& sp, std::size_t depth);
  void run_step_parallel(CallScratch& cs, const FunctionPlan& plan,
                         const StepPlan& sp, const Step& step,
                         const StepVerdict& verdict);

  void run_call_site(Ctx& C, const PlanInstr& in, double* result);

  /// Parallel-region copy cache:
  /// private/firstprivate/reduction instances recycled across chunks.
  std::shared_ptr<Instance> cached_copy(GridId id);
  PlanExecutor& worker(int rank);

  Machine& m_;
  std::vector<std::unique_ptr<CallScratch>> scratch_;
  std::size_t depth_ = 0;

  std::vector<std::unique_ptr<PlanExecutor>> workers_;
  std::map<GridId, std::shared_ptr<Instance>> copy_cache_;
  /// Per-rank SAVE'd-locals cache inside parallel regions: SAVE'd
  /// temporaries become threadprivate there (§4.2.1 pairs the SAVE
  /// attribute with private/thread-private declarations).
  std::map<GridId, std::shared_ptr<Instance>> saved_locals_local_;

  std::unique_lock<std::mutex> atomic_lock_;
  int atomic_depth_ = 0;
};

}  // namespace glaf::interp
