#include "interp/machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>

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

}  // namespace

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

std::int64_t Instance::offset_unchecked(
    const std::vector<std::int64_t>& idx) const {
  std::int64_t off = 0;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    off = off * extents[d] + idx[d];
  }
  return off;
}

// ---- Executor ---------------------------------------------------------------

using InstancePtr = std::shared_ptr<Instance>;

/// Per-call binding of GridId -> storage (TU-local implementation detail).
struct Frame {
  const Function* fn = nullptr;
  std::vector<InstancePtr> slots;  ///< indexed by GridId
};

/// Executes one top-level call tree, serially: the semantic reference the
/// plan VM and the native kernels are checked against.
class Executor {
 public:
  Executor(Machine& m) : m_(m) {}

  double call_function(const Function& fn, std::vector<InstancePtr> args);

  /// Allocate storage for a grid, evaluating extents in `frame`.
  InstancePtr make_instance(const Grid& g, const Frame& frame);

  InterpStats stats;

 private:
  void init_instance(Instance& inst, const Grid& g);

  void exec_loops(Frame& frame, const Step& step, std::size_t depth,
                  IndexEnv& env, bool* returned, double* ret_value);
  bool exec_body(Frame& frame, const std::vector<Stmt>& body, IndexEnv& env,
                 double* ret_value);
  bool exec_stmt(Frame& frame, const Stmt& stmt, IndexEnv& env,
                 double* ret_value);
  void exec_assign(Frame& frame, const Stmt& stmt, IndexEnv& env);

  double eval(Frame& frame, const Expr& e, IndexEnv& env);
  std::int64_t eval_int(Frame& frame, const Expr& e, IndexEnv& env) {
    return static_cast<std::int64_t>(std::llround(eval(frame, e, env)));
  }
  double eval_call(Frame& frame, const Expr& e, IndexEnv& env);
  double* element_ptr(Frame& frame, GridId grid, const std::string& field,
                      const std::vector<ExprPtr>& subs, IndexEnv& env);
  std::vector<double>& buffer_of(Instance& inst, const std::string& field);

  DataType type_of(const Expr& e) {
    // Per-executor memoization keeps repeated evaluation cheap.
    const auto it = type_cache_.find(&e);
    if (it != type_cache_.end()) return it->second;
    const DataType t = infer_type(m_.program_, e);
    type_cache_.emplace(&e, t);
    return t;
  }

  Machine& m_;
  std::map<const Expr*, DataType> type_cache_;
};

std::vector<double>& Executor::buffer_of(Instance& inst,
                                         const std::string& field) {
  if (field.empty()) return inst.data;
  const auto it = inst.fields.find(field);
  if (it == inst.fields.end()) {
    fail(cat("no field '", field, "' in grid '", inst.grid->name, "'"));
  }
  return it->second;
}

InstancePtr Executor::make_instance(const Grid& g, const Frame& frame) {
  auto inst = std::make_shared<Instance>();
  inst->grid = &g;
  IndexEnv no_indices;
  for (const Dim& d : g.dims) {
    // Extents are expressions over scalar grids; evaluate in the caller's
    // frame (size parameters are already bound).
    Frame& mutable_frame = const_cast<Frame&>(frame);
    const std::int64_t e = eval_int(mutable_frame, *d.extent, no_indices);
    if (e < 1) fail(cat("non-positive extent ", e, " for grid '", g.name, "'"));
    inst->extents.push_back(e);
  }
  init_instance(*inst, g);
  return inst;
}

void Executor::init_instance(Instance& inst, const Grid& g) {
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

double Executor::call_function(const Function& fn,
                               std::vector<InstancePtr> args) {
  ++stats.function_calls;
  Frame frame;
  frame.fn = &fn;
  frame.slots.resize(m_.program_.grids.size());

  // Globals are visible everywhere.
  for (const auto& [id, inst] : m_.globals_) frame.slots[id] = inst;

  // Bind parameters by reference.
  if (args.size() != fn.params.size()) {
    fail(cat("call to '", fn.name, "': expected ", fn.params.size(),
             " arguments, got ", args.size()));
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    frame.slots[fn.params[i]] = std::move(args[i]);
  }

  // Materialize locals. SAVE'd locals (or the global no-reallocation
  // option) are created once and cached across calls — the FUN3D §4.2.1
  // mechanism; everything else is reallocated per call and counted.
  for (const GridId id : fn.locals) {
    const Grid& g = m_.program_.grid(id);
    const bool save = g.save_attr || m_.options_.save_temporaries;
    if (save) {
      // The machine-wide FORTRAN SAVE storage.
      auto& cache = m_.saved_locals_;
      auto it = cache.find(id);
      if (it == cache.end()) {
        it = cache.emplace(id, make_instance(g, frame)).first;
        if (!g.dims.empty()) ++stats.local_allocations;
      }
      frame.slots[id] = it->second;
    } else {
      frame.slots[id] = make_instance(g, frame);
      if (!g.dims.empty()) ++stats.local_allocations;
    }
  }

  double ret_value = 0.0;
  for (const Step& step : fn.steps) {
    ++stats.steps_executed;
    // A RETURN inside any step ends the subprogram.
    bool returned = false;
    const std::uint64_t iterations_before = stats.loop_iterations;
    IndexEnv env;
    exec_loops(frame, step, 0, env, &returned, &ret_value);
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

void Executor::exec_loops(Frame& frame, const Step& step, std::size_t depth,
                          IndexEnv& env, bool* returned, double* ret_value) {
  if (depth == step.loops.size()) {
    if (exec_body(frame, step.body, env, ret_value)) *returned = true;
    return;
  }
  const LoopSpec& loop = step.loops[depth];
  const std::int64_t begin = eval_int(frame, *loop.begin, env);
  const std::int64_t end = eval_int(frame, *loop.end, env);
  const std::int64_t stride =
      loop.stride ? eval_int(frame, *loop.stride, env) : 1;
  if (stride == 0) fail("zero loop stride");
  env.push(loop.index_var, begin);
  for (std::int64_t i = begin; stride > 0 ? i <= end : i >= end;
       i += stride) {
    env.set_top(i);
    if (depth + 1 == step.loops.size()) ++stats.loop_iterations;
    exec_loops(frame, step, depth + 1, env, returned, ret_value);
    if (*returned) break;
  }
  env.pop();
}

bool Executor::exec_body(Frame& frame, const std::vector<Stmt>& body,
                         IndexEnv& env, double* ret_value) {
  for (const Stmt& s : body) {
    if (exec_stmt(frame, s, env, ret_value)) return true;
  }
  return false;
}

bool Executor::exec_stmt(Frame& frame, const Stmt& stmt, IndexEnv& env,
                         double* ret_value) {
  switch (stmt.kind) {
    case Stmt::Kind::kAssign:
      exec_assign(frame, stmt, env);
      return false;
    case Stmt::Kind::kIf: {
      for (const IfArm& arm : stmt.arms) {
        if (eval(frame, *arm.cond, env) != 0.0) {
          return exec_body(frame, arm.body, env, ret_value);
        }
      }
      return exec_body(frame, stmt.else_body, env, ret_value);
    }
    case Stmt::Kind::kCallSub: {
      const Function* target = m_.program_.find_function(stmt.callee);
      if (target == nullptr) fail(cat("unknown subroutine ", stmt.callee));
      std::vector<InstancePtr> args;
      args.reserve(stmt.args.size());
      for (const ExprPtr& a : stmt.args) {
        if (a->kind == Expr::Kind::kGridRead && a->args.empty()) {
          // Whole grid (or scalar grid) passed by reference.
          args.push_back(frame.slots[a->grid]);
        } else {
          auto tmp = std::make_shared<Instance>();
          tmp->grid = &m_.program_.grid(
              target->params[args.size()]);
          tmp->data.assign(1, eval(frame, *a, env));
          args.push_back(std::move(tmp));
        }
      }
      call_function(*target, std::move(args));
      return false;
    }
    case Stmt::Kind::kReturn: {
      if (stmt.ret) *ret_value = eval(frame, *stmt.ret, env);
      return true;
    }
  }
  return false;
}

void Executor::exec_assign(Frame& frame, const Stmt& stmt, IndexEnv& env) {
  const double value = eval(frame, *stmt.rhs, env);
  double* p = element_ptr(frame, stmt.lhs.grid, stmt.lhs.field,
                          stmt.lhs.subscripts, env);
  // FORTRAN semantics: assignment to INTEGER truncates.
  const Grid& g = m_.program_.grid(stmt.lhs.grid);
  if (g.field_type(stmt.lhs.field) == DataType::kInt) {
    *p = std::trunc(value);
  } else {
    *p = value;
  }
}

double* Executor::element_ptr(Frame& frame, GridId grid,
                              const std::string& field,
                              const std::vector<ExprPtr>& subs,
                              IndexEnv& env) {
  const InstancePtr& inst = frame.slots[grid];
  if (!inst) {
    fail(cat("grid '", m_.program_.grid(grid).name, "' has no storage here"));
  }
  std::vector<std::int64_t> idx;
  idx.reserve(subs.size());
  for (const ExprPtr& s : subs) idx.push_back(eval_int(frame, *s, env));
  const std::int64_t off = inst->offset(idx);
  return &buffer_of(*inst, field)[static_cast<std::size_t>(off)];
}

double Executor::eval(Frame& frame, const Expr& e, IndexEnv& env) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return value_as_double(e.literal);
    case Expr::Kind::kIndex:
      return static_cast<double>(env.lookup(e.index_name));
    case Expr::Kind::kGridRead: {
      const InstancePtr& inst = frame.slots[e.grid];
      if (!inst) {
        fail(cat("grid '", m_.program_.grid(e.grid).name,
                 "' has no storage here"));
      }
      if (e.args.empty() && !inst->grid->dims.empty()) {
        fail(cat("whole-grid read of '", inst->grid->name,
                 "' outside a call argument"));
      }
      return *element_ptr(frame, e.grid, e.field, e.args, env);
    }
    case Expr::Kind::kBinary: {
      const double a = eval(frame, *e.args[0], env);
      const double b = eval(frame, *e.args[1], env);
      switch (e.bop) {
        case BinOp::kAdd: return a + b;
        case BinOp::kSub: return a - b;
        case BinOp::kMul: return a * b;
        case BinOp::kDiv: {
          // Integer division truncates (FORTRAN / C semantics).
          if (type_of(*e.args[0]) == DataType::kInt &&
              type_of(*e.args[1]) == DataType::kInt) {
            if (b == 0.0) fail("integer division by zero");
            return std::trunc(a / b);
          }
          return a / b;
        }
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
    case Expr::Kind::kUnary: {
      const double a = eval(frame, *e.args[0], env);
      return e.uop == UnOp::kNeg ? -a : (a == 0.0 ? 1.0 : 0.0);
    }
    case Expr::Kind::kCall:
      return eval_call(frame, e, env);
  }
  return 0.0;
}

double Executor::eval_call(Frame& frame, const Expr& e, IndexEnv& env) {
  if (const LibFunc* lib = find_lib_func(e.callee)) {
    if (lib->whole_grid) {
      const Expr& arg = *e.args[0];
      if (arg.kind != Expr::Kind::kGridRead || !arg.args.empty()) {
        fail(cat(lib->name, " expects a whole-grid argument"));
      }
      const InstancePtr& inst = frame.slots[arg.grid];
      if (!inst) fail(cat("grid has no storage for ", lib->name));
      const std::vector<double>& buf =
          arg.field.empty() ? inst->data : inst->fields.at(arg.field);
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
      args[i] = eval(frame, *e.args[i], env);
    }
    double result = lib->eval(args, static_cast<int>(e.args.size()));
    if (lib->result == LibResult::kInt ||
        (lib->result == LibResult::kSameAsArg && type_of(e) == DataType::kInt)) {
      result = std::trunc(result);
      if (lib->name == "NINT") result = std::nearbyint(args[0]);
    }
    return result;
  }
  const Function* target = m_.program_.find_function(e.callee);
  if (target == nullptr) fail(cat("unknown function ", e.callee));
  std::vector<InstancePtr> args;
  args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) {
    if (a->kind == Expr::Kind::kGridRead && a->args.empty()) {
      args.push_back(frame.slots[a->grid]);
    } else {
      auto tmp = std::make_shared<Instance>();
      tmp->grid = &m_.program_.grid(target->params[args.size()]);
      tmp->data.assign(1, eval(frame, *a, env));
      args.push_back(std::move(tmp));
    }
  }
  return call_function(*target, std::move(args));
}

// ---- Machine ----------------------------------------------------------------

jit::NativeEngine::Options native_engine_options(const InterpOptions& options,
                                                 ThreadPool* pool) {
  jit::NativeEngine::Options nopts;
  nopts.parallel = options.parallel;
  nopts.policy = options.policy;
  nopts.save_temporaries = options.save_temporaries;
  nopts.dynamic_schedule = options.dynamic_schedule;
  nopts.schedule_chunk = options.schedule_chunk;
  nopts.fuse_regions = options.fuse_regions;
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
  if (options_.parallel) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  // Allocate global grids in declaration order: scalars that define other
  // globals' extents are created (and initialized) before their users.
  Executor boot(*this);
  Frame scope;
  scope.slots.resize(program_.grids.size());
  for (const GridId id : program_.global_grids) {
    auto inst = boot.make_instance(program_.grid(id), scope);
    scope.slots[id] = inst;
    globals_[id] = std::move(inst);
  }
  // Plan engine: compile once per machine, and precompute the slot
  // prototype (raw global pointers) every call frame starts from. Global
  // instances are stable for the machine's lifetime, so the raw pointers
  // stay valid. kNative compiles plans too — they are its per-call
  // fallback path.
  plan_slots_proto_.assign(program_.grids.size(), nullptr);
  for (const auto& [id, inst] : globals_) plan_slots_proto_[id] = inst.get();
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

  std::vector<InstancePtr> bound;
  bound.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Grid& param = program_.grid(fn->params[i]);
    if (const auto* name = std::get_if<std::string>(&args[i])) {
      Instance* inst = find_global(*name);
      if (inst == nullptr) {
        return not_found(cat("argument ", i + 1, ": global grid '", *name,
                             "'"));
      }
      // Borrow the global's storage by reference.
      for (const auto& [id, shared] : globals_) {
        if (shared.get() == inst) bound.push_back(shared);
      }
    } else {
      auto tmp = std::make_shared<Instance>();
      tmp->grid = &param;
      tmp->data.assign(1, std::get<double>(args[i]));
      bound.push_back(std::move(tmp));
    }
  }
  try {
    double result = 0.0;
    InterpStats call_stats;
    if (plans_ != nullptr) {
      interp::PlanExecutor ex(*this);
      std::vector<Instance*> argv;
      argv.reserve(bound.size());
      for (const InstancePtr& b : bound) argv.push_back(b.get());
      result =
          ex.call_function(plans_->functions[fn->id], argv.data(), argv.size());
      call_stats = ex.stats;
    } else {
      Executor ex(*this);
      result = ex.call_function(*fn, std::move(bound));
      call_stats = ex.stats;
    }
    stats_.steps_executed += call_stats.steps_executed;
    stats_.loop_iterations += call_stats.loop_iterations;
    stats_.local_allocations += call_stats.local_allocations;
    stats_.parallel_regions += call_stats.parallel_regions;
    stats_.function_calls += call_stats.function_calls;
    return result;
  } catch (const InterpError& err) {
    return failed_precondition(err.what());
  }
}

}  // namespace glaf
