#include "interp/machine.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>

#include "core/libfuncs.hpp"
#include "core/typecheck.hpp"
#include "interp/exec_common.hpp"
#include "interp/native_options.hpp"
#include "interp/plan.hpp"
#include "interp/vm.hpp"
#include "jit/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "support/strings.hpp"

namespace glaf {

// Shared with the plan VM (interp/exec_common.hpp): both engines must
// agree exactly on error unwinding.
using interp::InterpError;
using interp::fail;

// ---- Instance --------------------------------------------------------------

std::int64_t Instance::element_count() const {
  std::int64_t n = 1;
  for (const std::int64_t e : extents) n *= e;
  return n;
}

std::int64_t Instance::offset(const std::vector<std::int64_t>& idx) const {
  std::int64_t off = 0;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    const std::int64_t i = idx[d];
    if (i < 0 || i >= extents[d]) {
      fail(cat("subscript ", i, " out of range [0,", extents[d] - 1,
               "] in dimension ", d, " of grid '",
               grid != nullptr ? grid->name : "?", "'"));
    }
    off = off * extents[d] + i;
  }
  return off;
}

// ---- Evaluator and Executor ------------------------------------------------

using InstancePtr = std::shared_ptr<Instance>;

namespace {

/// Loop index bindings; tiny linear map (loop nests are 1-3 deep).
class IndexEnv {
 public:
  void push(const std::string& name, std::int64_t value) {
    vars_.emplace_back(&name, value);
  }
  void pop() { vars_.pop_back(); }
  void set_top(std::int64_t value) { vars_.back().second = value; }

  [[nodiscard]] std::int64_t lookup(const std::string& name) const {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (*it->first == name) return it->second;
    }
    fail(cat("index variable '", name, "' not bound"));
  }

 private:
  std::vector<std::pair<const std::string*, std::int64_t>> vars_;
};

/// Evaluates GLAF expressions over raw storage slots (indexed by GridId).
/// The tree-walk runs on it, and both engines evaluate grid extents with
/// it. A user function met in an expression runs through `calls`, the
/// calling engine's own call path.
class Evaluator {
 public:
  Evaluator(const Program& program, interp::UserCalls& calls)
      : program_(program), calls_(calls) {}

  double eval(Instance* const* slots, const Expr& e, const IndexEnv& env);
  std::int64_t eval_int(Instance* const* slots, const Expr& e,
                        const IndexEnv& env) {
    return static_cast<std::int64_t>(std::llround(eval(slots, e, env)));
  }
  double* element_ptr(Instance* const* slots, GridId grid,
                      const std::string& field,
                      const std::vector<ExprPtr>& subs, const IndexEnv& env);
  /// Calls a user function: whole grids pass by reference, anything else
  /// by value in a scalar temporary bound to the callee's parameter grid.
  double call(Instance* const* slots, const Function& target,
              const std::vector<ExprPtr>& args, const IndexEnv& env);

 private:
  double eval_call(Instance* const* slots, const Expr& e, const IndexEnv& env);
  std::vector<double>& buffer_of(Instance& inst, const std::string& field);

  DataType type_of(const Expr& e) {
    // Per-evaluator memoization keeps repeated evaluation cheap.
    const auto it = type_cache_.find(&e);
    if (it != type_cache_.end()) return it->second;
    const DataType t = infer_type(program_, e);
    type_cache_.emplace(&e, t);
    return t;
  }

  const Program& program_;
  interp::UserCalls& calls_;
  std::map<const Expr*, DataType> type_cache_;
};

std::vector<double>& Evaluator::buffer_of(Instance& inst,
                                          const std::string& field) {
  if (field.empty()) return inst.data;
  const auto it = inst.fields.find(field);
  if (it == inst.fields.end()) {
    fail(cat("no field '", field, "' in grid '", inst.grid->name, "'"));
  }
  return it->second;
}

double* Evaluator::element_ptr(Instance* const* slots, GridId grid,
                               const std::string& field,
                               const std::vector<ExprPtr>& subs,
                               const IndexEnv& env) {
  Instance* inst = slots[grid];
  if (inst == nullptr) {
    fail(cat("grid '", program_.grid(grid).name, "' has no storage here"));
  }
  std::vector<std::int64_t> idx;
  idx.reserve(subs.size());
  for (const ExprPtr& s : subs) idx.push_back(eval_int(slots, *s, env));
  const std::int64_t off = inst->offset(idx);
  return &buffer_of(*inst, field)[static_cast<std::size_t>(off)];
}

double Evaluator::eval(Instance* const* slots, const Expr& e,
                       const IndexEnv& env) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return value_as_double(e.literal);
    case Expr::Kind::kIndex:
      return static_cast<double>(env.lookup(e.index_name));
    case Expr::Kind::kGridRead: {
      const Instance* inst = slots[e.grid];
      if (inst == nullptr) {
        fail(cat("grid '", program_.grid(e.grid).name,
                 "' has no storage here"));
      }
      if (e.args.empty() && !inst->grid->dims.empty()) {
        fail(cat("whole-grid read of '", inst->grid->name,
                 "' outside a call argument"));
      }
      return *element_ptr(slots, e.grid, e.field, e.args, env);
    }
    case Expr::Kind::kBinary: {
      const double a = eval(slots, *e.args[0], env);
      const double b = eval(slots, *e.args[1], env);
      const bool int_div = e.bop == BinOp::kDiv &&
                           type_of(*e.args[0]) == DataType::kInt &&
                           type_of(*e.args[1]) == DataType::kInt;
      return interp::binary_op(e.bop, a, b, int_div);
    }
    case Expr::Kind::kUnary:
      return interp::unary_op(e.uop, eval(slots, *e.args[0], env));
    case Expr::Kind::kCall:
      return eval_call(slots, e, env);
  }
  return 0.0;
}

double Evaluator::eval_call(Instance* const* slots, const Expr& e,
                            const IndexEnv& env) {
  if (const LibFunc* lib = find_lib_func(e.callee)) {
    if (lib->whole_grid) {
      const Expr& arg = *e.args[0];
      if (arg.kind != Expr::Kind::kGridRead || !arg.args.empty()) {
        fail(cat(lib->name, " expects a whole-grid argument"));
      }
      Instance* inst = slots[arg.grid];
      if (inst == nullptr) fail(cat("grid has no storage for ", lib->name));
      const std::vector<double>& buf = buffer_of(*inst, arg.field);
      return lib->eval(buf.data(), static_cast<int>(buf.size()));
    }
    double stack_args[8];
    std::vector<double> heap_args;
    double* args = stack_args;
    if (e.args.size() > 8) {
      heap_args.resize(e.args.size());
      args = heap_args.data();
    }
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      args[i] = eval(slots, *e.args[i], env);
    }
    const double result = lib->eval(args, static_cast<int>(e.args.size()));
    return interp::apply_int_result(interp::int_result_rule(*lib, type_of(e)),
                                    result, args);
  }
  const Function* target = program_.find_function(e.callee);
  if (target == nullptr) fail(cat("unknown function ", e.callee));
  return call(slots, *target, e.args, env);
}

double Evaluator::call(Instance* const* slots, const Function& target,
                       const std::vector<ExprPtr>& args, const IndexEnv& env) {
  std::vector<Instance*> argv;
  std::vector<Instance> temps(args.size());
  argv.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Expr& a = *args[i];
    if (a.kind == Expr::Kind::kGridRead && a.args.empty()) {
      argv.push_back(slots[a.grid]);
      continue;
    }
    if (i >= target.params.size()) {
      fail(cat("call to '", target.name, "': expected ",
               target.params.size(), " arguments, got ", args.size()));
    }
    temps[i].grid = &program_.grid(target.params[i]);
    temps[i].data.assign(1, eval(slots, a, env));
    argv.push_back(&temps[i]);
  }
  return calls_.call_user(target, argv.data(), argv.size());
}

}  // namespace

namespace interp {

void build_instance(const Program& program, Instance& inst, const Grid& g,
                    Instance* const* slots, UserCalls& calls) {
  inst.grid = &g;
  inst.extents.clear();
  Evaluator ev(program, calls);
  const IndexEnv no_indices;
  for (const Dim& d : g.dims) {
    const std::int64_t e = ev.eval_int(slots, *d.extent, no_indices);
    if (e < 1) fail(cat("non-positive extent ", e, " for grid '", g.name, "'"));
    inst.extents.push_back(e);
  }
  const std::size_t n = static_cast<std::size_t>(inst.element_count());
  if (g.is_struct()) {
    for (const Field& f : g.fields) inst.fields[f.name].assign(n, 0.0);
  } else {
    inst.data.assign(n, 0.0);
    for (std::size_t i = 0; i < g.init_data.size() && i < n; ++i) {
      inst.data[i] = value_as_double(g.init_data[i]);
    }
  }
}

void materialize_locals(const Program& program, const Function& fn,
                        bool save_temporaries, Instance** slots,
                        std::vector<InstancePtr>& keepalive,
                        std::map<GridId, InstancePtr>& save_cache,
                        InterpStats& stats, UserCalls& calls) {
  for (const GridId id : fn.locals) {
    const Grid& g = program.grid(id);
    const bool save = g.save_attr || save_temporaries;
    if (save) {
      const auto it = save_cache.find(id);
      if (it != save_cache.end()) {
        slots[id] = it->second.get();
        continue;
      }
    }
    auto inst = std::make_shared<Instance>();
    build_instance(program, *inst, g, slots, calls);
    if (!g.dims.empty()) ++stats.local_allocations;
    slots[id] = inst.get();
    if (save) {
      save_cache.emplace(id, std::move(inst));
    } else {
      keepalive.push_back(std::move(inst));
    }
  }
}

}  // namespace interp

/// Executes one top-level call tree, serially: the semantic reference the
/// plan VM and the native kernels are checked against.
class Executor final : public interp::UserCalls {
 public:
  explicit Executor(Machine& m) : m_(m), ev_(m.program_, *this) {}

  double call_user(const Function& fn, Instance* const* args,
                   std::size_t nargs) override;

  InterpStats stats;

 private:
  void exec_loops(Instance* const* slots, const Step& step, std::size_t depth,
                  IndexEnv& env, bool* returned, double* ret_value);
  bool exec_body(Instance* const* slots, const std::vector<Stmt>& body,
                 IndexEnv& env, double* ret_value);
  bool exec_stmt(Instance* const* slots, const Stmt& stmt, IndexEnv& env,
                 double* ret_value);
  void exec_assign(Instance* const* slots, const Stmt& stmt, IndexEnv& env);

  Machine& m_;
  Evaluator ev_;
};

double Executor::call_user(const Function& fn, Instance* const* args,
                           std::size_t nargs) {
  ++stats.function_calls;
  // Globals are visible everywhere; parameters bind by reference.
  std::vector<Instance*> slots = m_.global_slots_;
  if (nargs != fn.params.size()) {
    fail(cat("call to '", fn.name, "': expected ", fn.params.size(),
             " arguments, got ", nargs));
  }
  for (std::size_t i = 0; i < nargs; ++i) slots[fn.params[i]] = args[i];
  std::vector<InstancePtr> keepalive;
  interp::materialize_locals(m_.program_, fn, m_.options_.save_temporaries,
                             slots.data(), keepalive, m_.saved_locals_, stats,
                             *this);

  double ret_value = 0.0;
  for (const Step& step : fn.steps) {
    ++stats.steps_executed;
    // A RETURN inside any step ends the subprogram.
    bool returned = false;
    const std::uint64_t iterations_before = stats.loop_iterations;
    IndexEnv env;
    exec_loops(slots.data(), step, 0, env, &returned, &ret_value);
    if (m_.options_.trace) {
      const std::lock_guard<std::mutex> lock(m_.trace_mutex_);
      m_.trace_.push_back(TraceEntry{
          fn.name, step.name, stats.loop_iterations - iterations_before,
          false});
    }
    if (returned) break;
  }
  return ret_value;
}

void Executor::exec_loops(Instance* const* slots, const Step& step,
                          std::size_t depth, IndexEnv& env, bool* returned,
                          double* ret_value) {
  if (depth == step.loops.size()) {
    if (exec_body(slots, step.body, env, ret_value)) *returned = true;
    return;
  }
  const LoopSpec& loop = step.loops[depth];
  const std::int64_t begin = ev_.eval_int(slots, *loop.begin, env);
  const std::int64_t end = ev_.eval_int(slots, *loop.end, env);
  const std::int64_t stride =
      loop.stride ? ev_.eval_int(slots, *loop.stride, env) : 1;
  if (stride == 0) fail("zero loop stride");
  env.push(loop.index_var, begin);
  for (std::int64_t i = begin; stride > 0 ? i <= end : i >= end;
       i += stride) {
    env.set_top(i);
    if (depth + 1 == step.loops.size()) ++stats.loop_iterations;
    exec_loops(slots, step, depth + 1, env, returned, ret_value);
    if (*returned) break;
  }
  env.pop();
}

bool Executor::exec_body(Instance* const* slots, const std::vector<Stmt>& body,
                         IndexEnv& env, double* ret_value) {
  for (const Stmt& s : body) {
    if (exec_stmt(slots, s, env, ret_value)) return true;
  }
  return false;
}

bool Executor::exec_stmt(Instance* const* slots, const Stmt& stmt,
                         IndexEnv& env, double* ret_value) {
  switch (stmt.kind) {
    case Stmt::Kind::kAssign:
      exec_assign(slots, stmt, env);
      return false;
    case Stmt::Kind::kIf: {
      for (const IfArm& arm : stmt.arms) {
        if (ev_.eval(slots, *arm.cond, env) != 0.0) {
          return exec_body(slots, arm.body, env, ret_value);
        }
      }
      return exec_body(slots, stmt.else_body, env, ret_value);
    }
    case Stmt::Kind::kCallSub: {
      const Function* target = m_.program_.find_function(stmt.callee);
      if (target == nullptr) fail(cat("unknown subroutine ", stmt.callee));
      ev_.call(slots, *target, stmt.args, env);
      return false;
    }
    case Stmt::Kind::kReturn: {
      if (stmt.ret) *ret_value = ev_.eval(slots, *stmt.ret, env);
      return true;
    }
  }
  return false;
}

void Executor::exec_assign(Instance* const* slots, const Stmt& stmt,
                           IndexEnv& env) {
  const double value = ev_.eval(slots, *stmt.rhs, env);
  double* p = ev_.element_ptr(slots, stmt.lhs.grid, stmt.lhs.field,
                              stmt.lhs.subscripts, env);
  // FORTRAN semantics: assignment to INTEGER truncates.
  const Grid& g = m_.program_.grid(stmt.lhs.grid);
  *p = g.field_type(stmt.lhs.field) == DataType::kInt ? std::trunc(value)
                                                        : value;
}

// ---- Machine ----------------------------------------------------------------

jit::NativeEngine::Options native_engine_options(const InterpOptions& options,
                                                 ThreadPool* pool) {
  jit::NativeEngine::Options nopts;
  nopts.parallel = options.parallel;
  nopts.policy = options.policy;
  nopts.save_temporaries = options.save_temporaries;
  nopts.gate_always_dispatch = options.gate_always_dispatch;
  nopts.pool = pool;
  nopts.cc = options.native_cc;
  nopts.cache_dir = options.native_cache_dir;
  nopts.model = options.native_model;
  nopts.portable = options.native_portable;
  return nopts;
}

Machine::Machine(Program program, InterpOptions options)
    : program_(std::move(program)), options_(std::move(options)),
      analysis_(analyze_program(program_, options_.tweaks)) {
  // The tree-walk is the serial semantic reference: it has no parallel
  // path, so a parallel request runs it serially.
  if (options_.engine == ExecEngine::kTreeWalk) options_.parallel = false;
  // The pool serves the plan VM and interp-tier kernels. An opt-tier
  // kernel is serial (KernelUnit::parallel), so that machine builds one
  // below only if the kernel did not load and its plan fallback runs the
  // parallel steps.
  const bool serial_kernel = options_.engine == ExecEngine::kNative &&
                             options_.native_model == NumericModel::kOpt;
  if (options_.parallel && !serial_kernel) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  // Allocate global grids in declaration order: scalars that define other
  // globals' extents are created (and initialized) before their users.
  // Global instances are stable for the machine's lifetime, so the raw
  // slot pointers every call frame starts from stay valid.
  Executor boot(*this);
  global_slots_.assign(program_.grids.size(), nullptr);
  for (const GridId id : program_.global_grids) {
    auto inst = std::make_shared<Instance>();
    interp::build_instance(program_, *inst, program_.grid(id),
                           global_slots_.data(), boot);
    global_slots_[id] = inst.get();
    globals_[id] = std::move(inst);
  }
  // Plan engine: compile once per machine. kNative compiles plans too —
  // they are its per-call fallback path.
  if (options_.engine != ExecEngine::kTreeWalk) {
    // Union of atomic-update targets across all verdicts and tweaks: these
    // are serialized anywhere inside a parallel region (orphaned ATOMIC).
    std::set<GridId> atomic_grids;
    for (const auto& [fn_id, verdicts] : analysis_.verdicts) {
      for (const StepVerdict& v : verdicts) {
        atomic_grids.insert(v.atomic_grids.begin(), v.atomic_grids.end());
      }
    }
    for (const auto& [fn_name, tweaks] : options_.tweaks) {
      atomic_grids.insert(tweaks.force_atomic.begin(),
                          tweaks.force_atomic.end());
    }
    plans_ = std::make_unique<interp::ProgramPlan>(
        interp::compile_plans(program_, analysis_, atomic_grids));
  }
  if (options_.engine == ExecEngine::kNative) {
    if (options_.trace) {
      // The kernel cannot record per-step traces; run on plans instead.
      native_report_.fallback_reason = "tracing requested";
    } else {
      StatusOr<std::unique_ptr<jit::NativeEngine>> engine =
          jit::NativeEngine::create(
              program_, analysis_,
              native_engine_options(options_, pool_.get()));
      if (engine.is_ok()) {
        native_ = std::move(engine).value();
        for (const jit::AbiSlot& slot : native_->slots()) {
          native_globals_.push_back(globals_.at(slot.grid).get());
        }
        native_report_.available = true;
        native_report_.cache_hit = native_->cache_hit();
        native_report_.object_path = native_->object_path();
        native_report_.num_threads = pool_ != nullptr ? pool_->size() : 1;
        native_report_.regions_total = native_->regions_total();
        native_report_.regions_fused = native_->fused_regions();
        native_report_.gate_mode = native_->gate_mode();
        native_report_.model = native_->model();
        native_report_.compiler = native_->compiler();
        native_report_.compiler_version = native_->compiler_version();
        native_report_.compile_flags = native_->compile_flags();
        native_report_.host_key = native_->host_key();
      } else {
        native_report_.fallback_reason =
            std::string(engine.status().message());
      }
    }
  }
  if (options_.parallel && pool_ == nullptr && native_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Machine::~Machine() = default;

Instance* Machine::find_global(const std::string& name) {
  for (const auto& [id, inst] : globals_) {
    if (program_.grid(id).name == name) return inst.get();
  }
  return nullptr;
}

const Instance* Machine::find_global(const std::string& name) const {
  for (const auto& [id, inst] : globals_) {
    if (program_.grid(id).name == name) return inst.get();
  }
  return nullptr;
}

Status Machine::set_scalar(const std::string& grid, double value) {
  Instance* inst = find_global(grid);
  if (inst == nullptr) return not_found(cat("global grid '", grid, "'"));
  if (!inst->grid->is_scalar()) {
    return invalid_argument(cat("'", grid, "' is not a scalar"));
  }
  inst->data[0] = value;
  return Status::ok();
}

Status Machine::set_array(const std::string& grid,
                          const std::vector<double>& data,
                          const std::string& field) {
  Instance* inst = find_global(grid);
  if (inst == nullptr) return not_found(cat("global grid '", grid, "'"));
  std::vector<double>& buf =
      field.empty() ? inst->data : inst->fields[field];
  if (buf.size() != data.size()) {
    return invalid_argument(cat("'", grid, "' holds ", buf.size(),
                                " elements, got ", data.size()));
  }
  buf = data;
  return Status::ok();
}

StatusOr<double> Machine::scalar(const std::string& grid) const {
  const Instance* inst = find_global(grid);
  if (inst == nullptr) return not_found(cat("global grid '", grid, "'"));
  if (!inst->grid->is_scalar()) {
    return invalid_argument(cat("'", grid, "' is not a scalar"));
  }
  return inst->data[0];
}

StatusOr<std::vector<double>> Machine::array(const std::string& grid,
                                             const std::string& field) const {
  const Instance* inst = find_global(grid);
  if (inst == nullptr) return not_found(cat("global grid '", grid, "'"));
  if (field.empty()) return inst->data;
  const auto it = inst->fields.find(field);
  if (it == inst->fields.end()) {
    return not_found(cat("field '", field, "' of '", grid, "'"));
  }
  return it->second;
}

StatusOr<double> Machine::call(const std::string& function,
                               const std::vector<CallArg>& args) {
  const Function* fn = program_.find_function(function);
  if (fn == nullptr) return not_found(cat("function '", function, "'"));
  if (args.size() != fn->params.size()) {
    return invalid_argument(cat("'", function, "' expects ",
                                fn->params.size(), " arguments, got ",
                                args.size()));
  }
  // Native dispatch: the kernel handles calls whose arguments are all
  // literal scalars (C passes scalar parameters by value, so a global
  // passed by name — bound by reference in the interpreter — must take
  // the plan path).
  if (native_ != nullptr) {
    const jit::AbiFunction* abi = native_->find(function);
    const bool literal_args =
        std::all_of(args.begin(), args.end(), [](const CallArg& a) {
          return std::holds_alternative<double>(a);
        });
    if (abi != nullptr && abi->supported && literal_args) {
      for (std::size_t i = 0; i < args.size(); ++i) {
        native_->bind_scalar(i, std::get<double>(args[i]));
      }
      for (std::size_t i = 0; i < native_globals_.size(); ++i) {
        std::vector<double>& data = native_globals_[i]->data;
        native_->bind_global(i, data.data(),
                             static_cast<std::int64_t>(data.size()));
      }
      const std::uint64_t regions_before = native_->parallel_regions();
      const std::uint64_t gated_before = native_->gated_regions();
      const std::uint64_t probes_before = native_->gate_probes();
      StatusOr<double> result = native_->call(*abi);
      if (!result.is_ok()) return result.status();
      const std::uint64_t regions =
          native_->parallel_regions() - regions_before;
      native_report_.parallel_regions += regions;
      native_report_.gated_serial_regions +=
          native_->gated_regions() - gated_before;
      native_report_.gate_probes += native_->gate_probes() - probes_before;
      if (regions > 0) ++native_report_.parallel_calls;
      ++native_report_.native_calls;
      ++stats_.function_calls;
      return result;
    }
  }
  // Count every kNative call the kernel did not run — per-call routing
  // (unsupported ABI, grid-name arguments) and whole-engine
  // unavailability alike — so --strict-engine can refuse both.
  if (options_.engine == ExecEngine::kNative) ++native_report_.fallback_calls;

  // Grid names borrow the global's storage by reference; literals bind
  // by value in scalar temporaries.
  std::vector<Instance*> argv;
  std::vector<Instance> temps(args.size());
  argv.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (const auto* name = std::get_if<std::string>(&args[i])) {
      Instance* inst = find_global(*name);
      if (inst == nullptr) {
        return not_found(cat("argument ", i + 1, ": global grid '", *name,
                             "'"));
      }
      argv.push_back(inst);
    } else {
      temps[i].grid = &program_.grid(fn->params[i]);
      temps[i].data.assign(1, std::get<double>(args[i]));
      argv.push_back(&temps[i]);
    }
  }
  try {
    double result = 0.0;
    if (plans_ != nullptr) {
      interp::PlanExecutor ex(*this);
      result = ex.call_function(plans_->functions[fn->id], argv.data(),
                                argv.size());
      stats_ += ex.stats;
    } else {
      Executor ex(*this);
      result = ex.call_user(*fn, argv.data(), argv.size());
      stats_ += ex.stats;
    }
    return result;
  } catch (const InterpError& err) {
    return failed_precondition(err.what());
  }
}

}  // namespace glaf
