#include "jit/engine.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>

#include <thread>

#include "jit/cache.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf::jit {
namespace {

/// Host mirror of the emitted glaf_nat_args struct (emit.cpp keeps the
/// layouts in lockstep; both are plain C-compatible PODs).
struct NatArgs {
  double* const* grids;
  const long* extents;
  const double* scalars;
  double result;
};

using WrapperFn = long (*)(NatArgs*);
using MetaFn = long (*)(void);

// C-side pfor callback types (must match the emitted typedefs).
using RangeFn = void (*)(void* ctx, long lo, long hi, long rank);
using PforFn = void (*)(void* hctx, RangeFn fn, void* ctx, long n);
using GateOpenFn = long (*)(void* hctx, GateSlot* slot, long n);
using GateCloseFn = void (*)(void* hctx, GateSlot* slot);
using SetPforFn = void (*)(PforFn pf, GateOpenFn open, GateCloseFn close,
                           void* hctx, long nranks);

/// The trampoline the kernel calls for every dispatched region:
/// partitions [0, n) across the host pool in static chunks, OMP's
/// default schedule. Each rank only ever touches its own reduction
/// scratch row, and the kernel combines rows in rank order afterwards,
/// so the result is identical to running the range serially.
void pfor_trampoline(void* hctx, RangeFn fn, void* ctx, long n) {
  auto* host = static_cast<PforHost*>(hctx);
  host->regions.fetch_add(1, std::memory_order_relaxed);
  if (host->pool == nullptr || n <= 1) {
    fn(ctx, 0, n, 0);
    return;
  }
  host->pool->parallel_for(n,
                           [&](int rank, std::int64_t begin, std::int64_t end) {
                             if (begin < end) fn(ctx, begin, end, rank);
                           });
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A region call site's countdown ran out (GateSlot::left). A fixed mode
/// arms the slot for good; the measured gate asks the ledger, which
/// settles the pending timed run and runs the site's next decided run or
/// opens a timed run of the branch its GateSite picks.
long gate_open(void* hctx, GateSlot* slot, long n) {
  auto* host = static_cast<PforHost*>(hctx);
  if (host->gate != GateMode::kMeasured) {
    slot->nmin = host->gate == GateMode::kDispatch ? 0 : kNeverDispatch;
    slot->left = std::numeric_limits<long>::max();
    return n >= slot->nmin ? 1 : 0;
  }
  return host->ledger.open(slot, n, now_ns()) ? 1 : 0;
}

/// The kernel closed a timed run after its branch; the ledger keeps it
/// open on the clock until the next gate event or the end of the call.
void gate_close(void* hctx, GateSlot* slot) {
  auto* host = static_cast<PforHost*>(hctx);
  const bool dispatched = host->ledger.close(slot, now_ns());
  host->probes.fetch_add(1, std::memory_order_relaxed);
  if (!dispatched) {
    host->serial_probes.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Copy the published object to a private temp file and dlopen that
/// (see the header: per-engine static state), unlinking immediately so
/// the copy lives exactly as long as the handle. The copy goes under
/// $TMPDIR when set (hosts with a noexec /tmp, sandboxed callers), else
/// /tmp.
StatusOr<void*> open_private_copy(const std::string& object_path) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string copy_path =
      cat(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp",
          "/glaf_nat_", getpid(), "_XXXXXX");
  const int fd = mkstemp(copy_path.data());
  if (fd < 0) {
    // The host's temporary directory is at fault, not the kernel object.
    return failed_precondition(cat("cannot create private kernel copy ",
                                   copy_path, ": ", std::strerror(errno)));
  }
  {
    std::ifstream in(object_path, std::ios::binary);
    std::ofstream out(copy_path, std::ios::binary);
    out << in.rdbuf();
    if (!in || !out) {
      close(fd);
      std::remove(copy_path.c_str());
      return internal_error(cat("cannot copy ", object_path));
    }
  }
  close(fd);
  void* handle = dlopen(copy_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  std::remove(copy_path.c_str());
  if (handle == nullptr) {
    const char* err = dlerror();
    return internal_error(
        cat("dlopen failed: ", err != nullptr ? err : "unknown error"));
  }
  return handle;
}

}  // namespace

StatusOr<std::unique_ptr<NativeEngine>> NativeEngine::create(
    const Program& program, const ProgramAnalysis& analysis,
    const Options& options) {
  StatusOr<CompiledKernel> compiled =
      compile_object(program, analysis, options);
  if (!compiled.is_ok()) return compiled.status();
  return load_compiled(std::move(compiled).value(), options);
}

StatusOr<CompiledKernel> NativeEngine::compile_object(
    const Program& program, const ProgramAnalysis& analysis,
    const Options& options) {
  const bool opt_tier = options.model == NumericModel::kOpt;
  EmitOptions eopts;
  eopts.parallel = options.parallel;
  eopts.policy = options.policy;
  eopts.save_temporaries = options.save_temporaries;
  eopts.model = options.model;
  StatusOr<KernelUnit> unit = emit_kernel_unit(program, analysis, eopts);
  if (!unit.is_ok()) return unit.status();
  // The unit's resolved mode (opt units are serial), so the cache key,
  // the ABI check and the pfor installation all agree with the source.
  const bool parallel = unit.value().parallel;

  const std::string cc = default_cc(options.cc);
  const bool portable =
      options.portable || std::getenv("GLAF_NATIVE_PORTABLE") != nullptr;
  // interp tier: -ffp-contract=off because FMA contraction would round
  // differently than the interpreter's plain double arithmetic, breaking
  // bit-identity; -fno-builtin because the compiler constant-folds libm
  // calls on literal arguments (correctly rounded via MPFR), which can
  // differ by an ulp from the runtime libm the interpreter calls.
  // -fvect-cost-model=cheap lets -O2 vectorise loops whose trip count is
  // only known at run time (the default very-cheap model takes only
  // multiples of the vector width), without the runtime alias and
  // alignment checks the dynamic model would add; the restrict-bound
  // grids and hoisted bounds need none. Vector lanes round like scalar
  // code, and without fast-math gcc keeps FP reductions in order, so the
  // kernel stays bitwise equal to the plan VM. -O3 and -march=native
  // would cost 60-100% more cc time.
  // opt tier: the opposite trade — typed storage, -O3 with contraction
  // on, -fno-math-errno so libm calls vectorize, and -march=native
  // unless a portable object was requested. Its output is compared
  // under ulp budgets, never bitwise.
  const std::string flags =
      opt_tier
          ? cat("-shared -fPIC -O3 -ffp-contract=fast -fno-math-errno",
                portable ? "" : " -march=native")
          : "-shared -fPIC -O2 -ffp-contract=off -fno-builtin "
            "-fvect-cost-model=cheap";
  // The emitted source already encodes the parallel partitioning, but
  // folding the engine configuration into the key as well keeps serial
  // and parallel objects (and per-policy / per-tier variants) as
  // distinct cache entries even when their sources coincide.
  // -march=native objects additionally key the host CPU fingerprint, so
  // a cache directory shared across hosts can never serve an
  // incompatible object (the compiler identity is already part of every
  // key via KernelCache::key).
  // The profit gate lives on the host, behind the callbacks installed
  // through glaf_set_pfor, and is deliberately NOT part of the key:
  // changing the gate must never recompile or split the cache.
  const std::string host_key =
      opt_tier && !portable ? host_arch_fingerprint() : std::string();
  const std::string config =
      cat("parallel=", parallel ? 1 : 0, ";policy=",
          to_string(options.policy), ";model=", to_string(options.model),
          ";host=", host_key, ";emit=", kAbiVersion);

  CompiledKernel compiled;
  compiled.unit = std::move(unit).value();
  compiled.parallel = parallel;
  compiled.cc = cc;
  compiled.cc_identity = compiler_identity(cc);
  compiled.flags = flags;
  compiled.host_key = host_key;
  compiled.config = config;

  KernelCache cache(options.cache_dir);
  compiled.cache_dir = cache.dir();
  StatusOr<std::string> object = cache.object_for(
      compiled.unit.source, cc, flags, &compiled.cache_hit, config);
  if (!object.is_ok()) return object.status();
  compiled.object_path = std::move(object).value();
  return compiled;
}

StatusOr<std::unique_ptr<NativeEngine>> NativeEngine::load_compiled(
    CompiledKernel compiled, const Options& options) {
  if (fault::should_fail("jit.engine.load")) {
    return internal_error("fault injected: kernel load refused");
  }
  const bool opt_tier = options.model == NumericModel::kOpt;
  const bool parallel = compiled.unit.parallel;

  auto engine = std::unique_ptr<NativeEngine>(new NativeEngine());
  engine->unit_ = std::move(compiled.unit);
  engine->options_ = options;
  engine->cc_ = compiled.cc;
  engine->cc_identity_ = compiled.cc_identity;
  engine->flags_ = compiled.flags;
  engine->host_key_ = compiled.host_key;
  engine->cache_hit_ = compiled.cache_hit;
  engine->object_path_ = std::move(compiled.object_path);

  StatusOr<void*> handle = open_private_copy(engine->object_path_);
  if (!handle.is_ok() &&
      handle.status().code() != StatusCode::kFailedPrecondition) {
    // The published entry may be stale or corrupted in a way the ELF
    // sniff missed: discard it and rebuild once.
    KernelCache cache(compiled.cache_dir);
    cache.invalidate(engine->object_path_);
    StatusOr<std::string> object =
        cache.object_for(engine->unit_.source, compiled.cc, compiled.flags,
                         nullptr, compiled.config);
    if (!object.is_ok()) return object.status();
    engine->cache_hit_ = false;
    engine->object_path_ = std::move(object).value();
    handle = open_private_copy(engine->object_path_);
  }
  if (!handle.is_ok()) return handle.status();
  engine->handle_ = handle.value();

  // ABI sanity before any call goes through.
  const auto meta = [&](const char* symbol) -> long {
    auto* fn =
        reinterpret_cast<MetaFn>(dlsym(engine->handle_, symbol));
    return fn != nullptr ? fn() : -1;
  };
  if (meta("glaf_nat_abi_version") != kAbiVersion) {
    return internal_error("kernel ABI version mismatch");
  }
  if (meta("glaf_nat_num_slots") !=
      static_cast<long>(engine->unit_.slots.size())) {
    return internal_error("kernel slot count mismatch");
  }
  if (meta("glaf_nat_parallel") != (parallel ? 1 : 0)) {
    return internal_error("kernel parallel-mode mismatch");
  }
  if (meta("glaf_nat_model") != (opt_tier ? 1 : 0)) {
    return internal_error("kernel numeric-model mismatch");
  }
  if (parallel) {
    auto* set_pfor = reinterpret_cast<SetPforFn>(
        dlsym(engine->handle_, "glaf_set_pfor"));
    if (set_pfor == nullptr) {
      return internal_error("parallel kernel lacks glaf_set_pfor");
    }
    engine->pfor_host_ = std::make_unique<PforHost>();
    engine->pfor_host_->pool = options.pool;
    const int ranks = options.pool != nullptr ? options.pool->size() : 1;
    engine->pfor_host_->ledger = GateLedger(ranks);
    engine->pfor_host_->gate =
        resolve_gate(options.gate_always_dispatch, ranks,
                     std::thread::hardware_concurrency());
    set_pfor(pfor_trampoline, gate_open, gate_close, engine->pfor_host_.get(),
             ranks);
    engine->gated_fn_ = reinterpret_cast<long (*)()>(
        dlsym(engine->handle_, "glaf_nat_gated"));
    if (engine->gated_fn_ == nullptr) {
      return internal_error("parallel kernel lacks glaf_nat_gated");
    }
  }
  // Argument-block staging, sized once so the dispatch path allocates
  // nothing. Unbound slots keep extent 0, which copy-in rejects.
  engine->grids_.assign(engine->unit_.slots.size(), nullptr);
  engine->extents_.assign(engine->unit_.slots.size(), 0);
  engine->by_address_.resize(engine->unit_.slots.size());
  std::iota(engine->by_address_.begin(), engine->by_address_.end(),
            std::size_t{0});
  std::size_t max_scalars = 0;
  engine->entry_points_.resize(engine->unit_.functions.size(), nullptr);
  for (std::size_t i = 0; i < engine->unit_.functions.size(); ++i) {
    const AbiFunction& fn = engine->unit_.functions[i];
    if (!fn.supported) continue;
    max_scalars = std::max(max_scalars,
                           static_cast<std::size_t>(fn.num_scalar_params));
    void* sym = dlsym(engine->handle_, fn.symbol.c_str());
    if (sym == nullptr) {
      return internal_error(cat("missing kernel symbol ", fn.symbol));
    }
    engine->entry_points_[i] = sym;
  }
  engine->scalars_.assign(max_scalars, 0.0);
  return engine;
}

NativeEngine::~NativeEngine() {
  if (handle_ != nullptr) dlclose(handle_);
}

const AbiFunction* NativeEngine::find(const std::string& function) const {
  for (const AbiFunction& fn : unit_.functions) {
    if (fn.name == function) return &fn;
  }
  return nullptr;
}

void NativeEngine::bind_global(std::size_t slot, double* data,
                               std::int64_t elements) {
  if (grids_[slot] != data || extents_[slot] != elements) {
    bindings_checked_ = false;
  }
  grids_[slot] = data;
  extents_[slot] = static_cast<long>(elements);
}

Status NativeEngine::check_disjoint_bindings() {
  std::sort(by_address_.begin(), by_address_.end(),
            [this](std::size_t a, std::size_t b) {
              return std::less<const double*>()(grids_[a], grids_[b]);
            });
  const double* end = nullptr;
  std::size_t owner = 0;
  for (const std::size_t slot : by_address_) {
    if (grids_[slot] == nullptr || extents_[slot] <= 0) continue;
    if (end != nullptr && std::less<const double*>()(grids_[slot], end)) {
      return invalid_argument(cat("native kernel slots ", owner, " and ",
                                  slot, " share storage"));
    }
    end = grids_[slot] + extents_[slot];
    owner = slot;
  }
  return Status::ok();
}

StatusOr<double> NativeEngine::call(const AbiFunction& fn) {
  const std::ptrdiff_t index = &fn - unit_.functions.data();
  if (index < 0 ||
      index >= static_cast<std::ptrdiff_t>(entry_points_.size()) ||
      entry_points_[index] == nullptr) {
    return failed_precondition(cat("'", fn.name, "' has no native entry"));
  }
  if (!bindings_checked_) {
    const Status disjoint = check_disjoint_bindings();
    if (!disjoint.is_ok()) return disjoint;
    bindings_checked_ = true;
  }
  NatArgs args{grids_.data(), extents_.data(), scalars_.data(), 0.0};
  const long status =
      reinterpret_cast<WrapperFn>(entry_points_[index])(&args);
  // A timed gate run is charged through the call's copy-out.
  if (pfor_host_ != nullptr && pfor_host_->ledger.pending()) {
    pfor_host_->ledger.settle(now_ns());
  }
  if (status < 0) return failed_precondition("zero loop stride");
  if (status != 0) {
    return internal_error(cat("native kernel rejected slot ", status - 1,
                              " of '", fn.name, "' (extent mismatch)"));
  }
  return args.result;
}

const char* NativeEngine::gate_mode() const {
  return pfor_host_ != nullptr ? gate_mode_name(pfor_host_->gate) : "none";
}

}  // namespace glaf::jit
