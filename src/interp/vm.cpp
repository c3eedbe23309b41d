#include "interp/vm.hpp"

#include <cmath>

#include "core/libfuncs.hpp"
#include "support/strings.hpp"

namespace glaf::interp {

namespace {
std::int64_t to_index(double v) {
  return static_cast<std::int64_t>(std::llround(v));
}
}  // namespace

PlanExecutor::PlanExecutor(Machine& m) : m_(m) {}

PlanExecutor::~PlanExecutor() = default;

// ---- scratch pool ----------------------------------------------------------

CallScratch& PlanExecutor::acquire_scratch() {
  if (depth_ == scratch_.size()) {
    scratch_.push_back(std::make_unique<CallScratch>());
  }
  return *scratch_[depth_++];
}

void PlanExecutor::release_scratch(CallScratch& cs) {
  cs.keepalive.clear();
  cs.temps_used = 0;
  --depth_;
}

// ---- binding ---------------------------------------------------------------

void PlanExecutor::bind(CallScratch& cs, const FunctionPlan& plan) {
  cs.refs.resize(plan.refs.size());
  for (std::size_t i = 0; i < plan.refs.size(); ++i) {
    const GridRefPlan& rp = plan.refs[i];
    BoundRef& br = cs.refs[i];
    br = BoundRef{};
    Instance* inst = cs.frame.slots[rp.grid];
    if (inst == nullptr) {
      br.err = 1;
      continue;
    }
    br.inst = inst;
    std::vector<double>* buf = nullptr;
    if (rp.field.empty()) {
      buf = &inst->data;
    } else {
      const auto it = inst->fields.find(rp.field);
      if (it == inst->fields.end()) {
        br.err = 2;
        br.size = inst->element_count();
        continue;
      }
      buf = &it->second;
    }
    br.base = buf->data();
    br.size = static_cast<std::int64_t>(buf->size());
  }
  cs.terms.clear();
  cs.accesses.resize(plan.accesses.size());
  for (std::size_t i = 0; i < plan.accesses.size(); ++i) {
    const AccessPlan& ap = plan.accesses[i];
    BoundAccess& ba = cs.accesses[i];
    ba = BoundAccess{};
    ba.ref = ap.ref;
    ba.terms_begin = ba.terms_end =
        static_cast<std::uint32_t>(cs.terms.size());
    const BoundRef& br = cs.refs[ap.ref];
    if (br.err == 1) continue;  // reported at access time
    const auto& extents = br.inst->extents;
    if (ap.dims.size() != extents.size()) {
      ba.arity_bad = true;
      continue;
    }
    // Fold constant subscript parts and pre-multiply affine coefficients
    // by the row-major strides (built right-to-left so no stride array is
    // needed). Term order within an access is irrelevant to the sum.
    std::int64_t stride = 1;
    for (std::size_t d = ap.dims.size(); d-- > 0;) {
      const DimPlan& dp = ap.dims[d];
      switch (dp.kind) {
        case DimPlan::Kind::kConst:
          ba.folded += stride * dp.constant;
          break;
        case DimPlan::Kind::kAffine:
          ba.folded += stride * dp.constant;
          cs.terms.push_back(BoundTerm{stride * dp.coeff, dp.slot, false});
          break;
        case DimPlan::Kind::kDyn:
          cs.terms.push_back(BoundTerm{stride, dp.reg, true});
          break;
      }
      stride *= extents[d];
    }
    ba.terms_end = static_cast<std::uint32_t>(cs.terms.size());
  }
}

void PlanExecutor::ref_fail(Ctx& C, std::uint32_t ref_idx) {
  const GridRefPlan& rp = C.plan->refs[ref_idx];
  fail(cat("grid '", m_.program_.grid(rp.grid).name, "' has no storage here"));
}

double* PlanExecutor::elem_addr(Ctx& C, std::uint32_t access) {
  CallScratch& cs = *C.cs;
  const BoundAccess& ba = cs.accesses[access];
  const BoundRef& br = cs.refs[ba.ref];
  if (br.err == 1) ref_fail(C, ba.ref);
  if (ba.arity_bad) {
    fail(cat("subscript count does not match rank of grid '",
             br.inst->grid->name, "'"));
  }
#ifdef GLAF_CHECKED_PLANS
  // Debug mode: re-derive every subscript and bounds-check it per
  // dimension, with the tree-walk's exact failure message.
  const AccessPlan& ap = C.plan->accesses[access];
  const auto& extents = br.inst->extents;
  const double* regs = cs.frame.regs.data();
  const std::int64_t* idx = cs.frame.idx.data();
  std::int64_t off = 0;
  for (std::size_t d = 0; d < ap.dims.size(); ++d) {
    const DimPlan& dp = ap.dims[d];
    std::int64_t i = 0;
    switch (dp.kind) {
      case DimPlan::Kind::kConst: i = dp.constant; break;
      case DimPlan::Kind::kAffine:
        i = dp.coeff * idx[dp.slot] + dp.constant;
        break;
      case DimPlan::Kind::kDyn: i = to_index(regs[dp.reg]); break;
    }
    if (i < 0 || i >= extents[d]) {
      fail(cat("subscript ", i, " out of range [0,", extents[d] - 1,
               "] in dimension ", d, " of grid '", br.inst->grid->name,
               "'"));
    }
    off = off * extents[d] + i;
  }
#else
  // Validated-plan fast path: one flat range compare guards memory safety
  // and keeps the failure-as-Status contract for runtime errors.
  std::int64_t off = ba.folded;
  const double* regs = cs.frame.regs.data();
  const std::int64_t* idx = cs.frame.idx.data();
  for (std::uint32_t t = ba.terms_begin; t < ba.terms_end; ++t) {
    const BoundTerm& bt = cs.terms[t];
    off += bt.scale * (bt.dyn ? to_index(regs[bt.src]) : idx[bt.src]);
  }
  if (static_cast<std::uint64_t>(off) >=
      static_cast<std::uint64_t>(br.size)) {
    fail(cat("subscript out of range in grid '", br.inst->grid->name,
             "' (flat offset ", off, ", size ", br.size, ")"));
  }
#endif
  if (br.err == 2) {
    fail(cat("no field '", C.plan->refs[ba.ref].field, "' in grid '",
             br.inst->grid->name, "'"));
  }
  return br.base + off;
}

// ---- dispatch --------------------------------------------------------------

void PlanExecutor::run_range(Ctx& C, std::uint32_t begin, std::uint32_t end) {
  const PlanInstr* code = C.plan->code.data();
  const double* consts = C.plan->consts.data();
  PlanFrame& f = C.cs->frame;
  double* regs = f.regs.data();
  const std::int64_t* idx = f.idx.data();
  std::uint32_t pc = begin;
  while (pc < end) {
    const PlanInstr& in = code[pc++];
    switch (in.op) {
      case POp::kConst: regs[in.dst] = consts[in.c]; break;
      case POp::kLoadIdx:
        regs[in.dst] = static_cast<double>(idx[in.a]);
        break;
      case POp::kLoadGrid: regs[in.dst] = *elem_addr(C, in.c); break;
      case POp::kStoreGrid: {
        const double v = regs[in.a];
        double* p = elem_addr(C, in.c);
        *p = (in.flags & kFlagTruncStore) != 0 ? std::trunc(v) : v;
        break;
      }
      case POp::kAdd: regs[in.dst] = regs[in.a] + regs[in.b]; break;
      case POp::kSub: regs[in.dst] = regs[in.a] - regs[in.b]; break;
      case POp::kMul: regs[in.dst] = regs[in.a] * regs[in.b]; break;
      case POp::kDiv: regs[in.dst] = regs[in.a] / regs[in.b]; break;
      case POp::kIntDiv: {
        const double b = regs[in.b];
        if (b == 0.0) fail("integer division by zero");
        regs[in.dst] = std::trunc(regs[in.a] / b);
        break;
      }
      case POp::kPow: regs[in.dst] = std::pow(regs[in.a], regs[in.b]); break;
      case POp::kMod: regs[in.dst] = std::fmod(regs[in.a], regs[in.b]); break;
      case POp::kLt: regs[in.dst] = regs[in.a] < regs[in.b] ? 1.0 : 0.0; break;
      case POp::kLe:
        regs[in.dst] = regs[in.a] <= regs[in.b] ? 1.0 : 0.0;
        break;
      case POp::kGt: regs[in.dst] = regs[in.a] > regs[in.b] ? 1.0 : 0.0; break;
      case POp::kGe:
        regs[in.dst] = regs[in.a] >= regs[in.b] ? 1.0 : 0.0;
        break;
      case POp::kEq:
        regs[in.dst] = regs[in.a] == regs[in.b] ? 1.0 : 0.0;
        break;
      case POp::kNe:
        regs[in.dst] = regs[in.a] != regs[in.b] ? 1.0 : 0.0;
        break;
      case POp::kAnd:
        regs[in.dst] = (regs[in.a] != 0.0 && regs[in.b] != 0.0) ? 1.0 : 0.0;
        break;
      case POp::kOr:
        regs[in.dst] = (regs[in.a] != 0.0 || regs[in.b] != 0.0) ? 1.0 : 0.0;
        break;
      case POp::kNeg: regs[in.dst] = -regs[in.a]; break;
      case POp::kNot: regs[in.dst] = regs[in.a] == 0.0 ? 1.0 : 0.0; break;
      case POp::kCallLib: {
        const LibCallPlan& lc = C.plan->lib_calls[in.c];
        double stack_args[8];
        std::vector<double> heap_args;
        double* args = stack_args;
        if (lc.argc > 8) {
          heap_args.resize(lc.argc);
          args = heap_args.data();
        }
        const std::uint16_t* arg_regs = C.plan->arg_regs.data();
        for (std::uint32_t i = 0; i < lc.argc; ++i) {
          args[i] = regs[arg_regs[lc.args_begin + i]];
        }
        double result = lc.lib->eval(args, static_cast<int>(lc.argc));
        // The INTEGER-result rule (exec_common.hpp), as compiled into the
        // flags: truncate, or NINT's round-to-nearest on the raw argument.
        if ((in.flags & kFlagTruncResult) != 0) result = std::trunc(result);
        if ((in.flags & kFlagNint) != 0) result = std::nearbyint(args[0]);
        regs[in.dst] = result;
        break;
      }
      case POp::kCallLibGrid: {
        const LibCallPlan& lc = C.plan->lib_calls[in.c];
        const BoundRef& br = C.cs->refs[lc.ref];
        if (br.err == 1) {
          fail(cat("grid has no storage for ", lc.lib->name));
        }
        if (br.err == 2) {
          fail(cat("no field '", C.plan->refs[lc.ref].field, "' in grid '",
                   br.inst->grid->name, "'"));
        }
        regs[in.dst] = lc.lib->eval(br.base, static_cast<int>(br.size));
        break;
      }
      case POp::kCallUser: {
        double result = 0.0;
        run_call_site(C, in, &result);
        regs[in.dst] = result;
        break;
      }
      case POp::kCallSub: run_call_site(C, in, nullptr); break;
      case POp::kJump: pc = in.c; break;
      case POp::kJumpIfZero:
        if (regs[in.a] == 0.0) pc = in.c;
        break;
      case POp::kGuardRef:
        if (C.cs->refs[in.c].err == 1) ref_fail(C, in.c);
        break;
      case POp::kReturnValue:
        f.ret_value = regs[in.a];
        f.returned = true;
        return;
      case POp::kReturnVoid: f.returned = true; return;
      case POp::kTrap: fail(C.plan->traps[in.c]);
    }
  }
}

void PlanExecutor::run_call_site(Ctx& C, const PlanInstr& in, double* result) {
  CallScratch& cs = *C.cs;
  const CallSitePlan& site = C.plan->call_sites[in.c];
  const FunctionPlan& callee = m_.plans_->functions[site.callee];
  auto& argv = cs.call_args;
  argv.clear();
  const std::size_t tmark = cs.temps_used;
  const double* regs = cs.frame.regs.data();
  for (const CallSitePlan::Arg& a : site.args) {
    if (a.whole_grid) {
      argv.push_back(cs.frame.slots[a.grid]);
    } else {
      if (cs.temps_used == cs.temp_pool.size()) {
        cs.temp_pool.push_back(std::make_shared<Instance>());
      }
      Instance* t = cs.temp_pool[cs.temps_used++].get();
      t->grid = &m_.program_.grid(a.grid);
      t->extents.clear();
      t->fields.clear();
      t->data.assign(1, regs[a.reg]);
      argv.push_back(t);
    }
  }
  const double r = call_function(callee, argv.data(), argv.size());
  cs.temps_used = tmark;
  if (result != nullptr) *result = r;
}

// ---- loops and calls -------------------------------------------------------

std::int64_t PlanExecutor::eval_prog_int(Ctx& C, const ExprProg& p) {
  if (p.is_const) return to_index(p.const_value);
  run_range(C, p.begin, p.end);
  return to_index(C.cs->frame.regs[p.reg]);
}

void PlanExecutor::run_loops(Ctx& C, const StepPlan& sp, std::size_t depth) {
  if (depth == sp.loops.size()) {
    run_range(C, sp.body_begin, sp.body_end);
    return;
  }
  PlanFrame& f = C.cs->frame;
  const LoopPlan& lp = sp.loops[depth];
  const std::int64_t begin = eval_prog_int(C, lp.begin);
  const std::int64_t end = eval_prog_int(C, lp.end);
  const std::int64_t stride =
      lp.has_stride ? eval_prog_int(C, lp.stride) : 1;
  if (stride == 0) fail("zero loop stride");
  for (std::int64_t i = begin; stride > 0 ? i <= end : i >= end;
       i += stride) {
    f.idx[lp.idx_slot] = i;
    if (depth + 1 == sp.loops.size()) ++stats.loop_iterations;
    run_loops(C, sp, depth + 1);
    if (f.returned) break;
  }
}

double PlanExecutor::call_user(const Function& fn, Instance* const* args,
                               std::size_t nargs) {
  return call_function(m_.plans_->functions[fn.id], args, nargs);
}

double PlanExecutor::call_function(const FunctionPlan& plan,
                                   Instance* const* args, std::size_t nargs) {
  ++stats.function_calls;
  const Function& fn = *plan.fn;
  CallScratch& cs = acquire_scratch();
  PlanFrame& f = cs.frame;
  f.slots.assign(m_.global_slots_.begin(), m_.global_slots_.end());

  if (nargs != fn.params.size()) {
    fail(cat("call to '", fn.name, "': expected ", fn.params.size(),
             " arguments, got ", nargs));
  }
  for (std::size_t i = 0; i < nargs; ++i) f.slots[fn.params[i]] = args[i];

  materialize_locals(m_.program_, fn, m_.options_.save_temporaries,
                     f.slots.data(), cs.keepalive, m_.saved_locals_, stats,
                     *this);

  f.regs.resize(plan.num_regs);
  f.idx.resize(plan.num_idx);
  f.ret_value = 0.0;
  bind(cs, plan);

  Ctx C{&plan, &cs};
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    ++stats.steps_executed;
    f.returned = false;
    const std::uint64_t iterations_before = stats.loop_iterations;
    run_loops(C, plan.steps[s], 0);
    if (m_.options_.trace) {
      m_.trace_.push_back(TraceEntry{fn.name, fn.steps[s].name,
                                     stats.loop_iterations -
                                         iterations_before});
    }
    if (f.returned) break;
  }
  const double ret = f.ret_value;
  release_scratch(cs);
  return ret;
}

}  // namespace glaf::interp
