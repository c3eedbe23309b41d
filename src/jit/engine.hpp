#pragma once
// The native execution engine: compiles the emitted kernel unit with the
// system C compiler (through the content-addressed KernelCache), loads
// the shared object with dlopen, and calls functions in-process through
// the flat-argument-block ABI.
//
// Isolation: the cached object is copied to a private temp file before
// dlopen (then unlinked). glibc dedupes dlopen by inode, so loading the
// cache file directly would share one copy of the unit's static state
// (SAVE'd locals, owned globals) between every Machine in the process;
// the private copy gives each engine fresh statics, mirroring the
// interpreter's per-Machine saved_locals_. Compilation — the expensive
// step — is still shared through the cache.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "core/program.hpp"
#include "jit/emit.hpp"
#include "jit/gate.hpp"
#include "runtime/thread_pool.hpp"
#include "support/status.hpp"

namespace glaf::jit {

/// Host context behind the kernel's exported glaf_set_pfor hook: the
/// thread pool the trampoline partitions over, the profit gate the
/// kernel's call sites ask (jit/gate.hpp), and counts of parallel
/// regions actually dispatched and of timed gate runs. Heap-held by the
/// engine so its address stays stable for the kernel's whole lifetime.
struct PforHost {
  ThreadPool* pool = nullptr;
  GateMode gate = GateMode::kDispatch;
  GateLedger ledger;
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> serial_probes{0};  ///< probes that ran serial
};

/// A compiled-but-not-loaded kernel: the emitted unit plus the published
/// cache object and the exact build identity it was keyed under. Produced
/// by NativeEngine::compile_object (which never dlopens — safe on a
/// background thread) and consumed by NativeEngine::load_compiled.
struct CompiledKernel {
  KernelUnit unit;
  std::string object_path;  ///< published cache entry
  bool cache_hit = false;   ///< compilation skipped (entry already valid)
  /// The mode the unit was emitted with: unit.parallel, the resolved
  /// value of Options::parallel (opt units are serial).
  bool parallel = false;
  /// Build provenance / cache identity: resolved compiler command, its
  /// --version line, the flag string, the host fingerprint (opt tier,
  /// non-portable only) and the full cache-key config string.
  std::string cc;
  std::string cc_identity;
  std::string flags;
  std::string host_key;
  std::string config;
  /// Cache directory the object was published into (resolved, so the
  /// load half rebuilds through the same cache on a stale entry).
  std::string cache_dir;
};

class NativeEngine {
 public:
  struct Options {
    bool parallel = false;
    DirectivePolicy policy = DirectivePolicy::kV0;
    bool save_temporaries = false;
    /// Unread: kept only because the benchmark harness still copies them
    /// into EmitOptions. Parallel units always dispatch fused regions
    /// over static partitions.
    bool dynamic_schedule = false;
    std::int64_t schedule_chunk = 4;
    bool fuse_regions = true;
    /// Profit gate. By default it measures: each region call site times
    /// its first 2 x kGateProbeRuns executions, alternating the serial
    /// and the dispatched branch, fits a serial cost per trip and a
    /// parallel overhead from the medians, and then dispatches a run of
    /// n trips only when the fitted fork/join pays for n. It re-times the
    /// branch it did not choose after kGateRevisitFirst decided runs, a
    /// period that doubles up to kGateRevisitMax while the decision holds
    /// (jit/gate.hpp). Both branches compute the same bits (the serial
    /// branch is the original loops, the dispatched one combines ranks in
    /// a fixed order), so the choice changes time only. A single-rank
    /// pool or a single-core host never dispatches. Installed at load
    /// time, so it never splits the kernel cache.
    ///
    /// Test hook: gate_always_dispatch dispatches every region instead,
    /// for tests and fuzz legs of the dispatch machinery.
    bool gate_always_dispatch = false;
    /// Pool for parallel kernels (borrowed, must outlive the engine).
    /// nullptr runs parallel units serially through the same range
    /// functions — results are identical either way.
    ThreadPool* pool = nullptr;
    /// Compiler command; "" resolves $GLAF_CC, then "cc".
    std::string cc;
    /// Cache directory override ("" = $GLAF_KERNEL_CACHE / XDG default).
    std::string cache_dir;
    /// Numeric model of the emitted unit: kInterp compiles the
    /// bit-identical all-double tier (-O2, contraction off); kOpt
    /// compiles the typed tier with -O3 -march=native and contraction
    /// on — its results are ulp-close, not bitwise. kOpt units are
    /// always serial (emit_kernel_unit resolves it; KernelUnit::parallel).
    NumericModel model = NumericModel::kInterp;
    /// Compile the opt tier without -march=native (generic -O3), for
    /// cache directories or objects that must run on any host. Also
    /// forced by the GLAF_NATIVE_PORTABLE environment variable.
    bool portable = false;
  };

  /// Emit, compile (or reuse the cached object) and load the program.
  /// Any failure here means the whole engine is unavailable and the
  /// caller should fall back. Equivalent to compile_object() followed by
  /// load_compiled() — the synchronous path and the serve subsystem's
  /// async compile queue share those two halves.
  static StatusOr<std::unique_ptr<NativeEngine>> create(
      const Program& program, const ProgramAnalysis& analysis,
      const Options& options);

  /// Compile-only half: emit the kernel unit and compile (or reuse) the
  /// cached object, WITHOUT dlopening it. Safe to run on a background
  /// thread; the returned record carries everything load_compiled()
  /// needs, and the published cache path means a later create() with the
  /// same options is a pure cache hit.
  static StatusOr<CompiledKernel> compile_object(
      const Program& program, const ProgramAnalysis& analysis,
      const Options& options);

  /// Load half: dlopen a compiled kernel (private copy) and wire the
  /// ABI. Recompiles once through the cache when the published object
  /// turns out stale or corrupt. `options` must be the ones the kernel
  /// was compiled with (the dispatch knobs — pool and gate — are
  /// consumed here; the emission knobs were consumed by compile_object).
  static StatusOr<std::unique_ptr<NativeEngine>> load_compiled(
      CompiledKernel compiled, const Options& options);

  ~NativeEngine();
  NativeEngine(const NativeEngine&) = delete;
  NativeEngine& operator=(const NativeEngine&) = delete;

  /// ABI record for `function`, or nullptr when unknown. A record with
  /// !supported means per-call fallback (with its reason).
  [[nodiscard]] const AbiFunction* find(const std::string& function) const;

  /// Stage the flat argument block for the next call(): slot `slot`
  /// (slots() order) reads and writes `elements` doubles at `data`, and
  /// scalar argument `i` of the entry is `value`. The staging arrays are
  /// owned by the engine and sized at load, so binding and calling
  /// allocate nothing; bindings persist until rebound. Distinct slots
  /// must not share storage: call() refuses bindings that overlap.
  void bind_global(std::size_t slot, double* data, std::int64_t elements);
  void bind_scalar(std::size_t i, double value) { scalars_[i] = value; }

  /// Call a supported function on the staged argument block.
  StatusOr<double> call(const AbiFunction& fn);

  [[nodiscard]] const std::vector<AbiSlot>& slots() const {
    return unit_.slots;
  }
  /// Parallel regions dispatched through the pfor trampoline so far
  /// (0 for serial units).
  [[nodiscard]] std::uint64_t parallel_regions() const {
    return pfor_host_ != nullptr
               ? pfor_host_->regions.load(std::memory_order_relaxed)
               : 0;
  }
  /// Region executions the profit gate chose to keep on the calling
  /// thread so far (0 for serial units; the measured gate's timed runs
  /// are not included).
  [[nodiscard]] std::uint64_t gated_regions() const {
    if (gated_fn_ == nullptr) return 0;
    return static_cast<std::uint64_t>(gated_fn_()) -
           pfor_host_->serial_probes.load(std::memory_order_relaxed);
  }
  /// Region executions the measured gate timed so far, either branch
  /// (0 for serial units and the fixed modes).
  [[nodiscard]] std::uint64_t gate_probes() const {
    return pfor_host_ != nullptr
               ? pfor_host_->probes.load(std::memory_order_relaxed)
               : 0;
  }
  /// Static dispatch regions in the unit, and how many fused >= 2 steps.
  [[nodiscard]] std::size_t regions_total() const {
    return unit_.regions.size();
  }
  [[nodiscard]] std::size_t fused_regions() const {
    std::size_t fused = 0;
    for (const ParallelRegion& r : unit_.regions) {
      if (r.step_count >= 2) ++fused;
    }
    return fused;
  }
  /// How the installed gate decides: "measured", "dispatch" (always),
  /// "serial" (never dispatches; resolve_gate), or "none" for a serial
  /// unit.
  [[nodiscard]] const char* gate_mode() const;
  /// Compilation was skipped because a valid cached object existed.
  [[nodiscard]] bool cache_hit() const { return cache_hit_; }
  [[nodiscard]] const std::string& object_path() const {
    return object_path_;
  }
  [[nodiscard]] const std::string& source() const { return unit_.source; }
  /// Numeric model the unit was emitted with.
  [[nodiscard]] NumericModel model() const { return options_.model; }
  /// Build provenance, recorded into NativeReport: the resolved compiler
  /// command, its --version identity, the exact flag string, and the
  /// host fingerprint keyed for -march=native objects ("" when the
  /// object is portable).
  [[nodiscard]] const std::string& compiler() const { return cc_; }
  [[nodiscard]] const std::string& compiler_version() const {
    return cc_identity_;
  }
  [[nodiscard]] const std::string& compile_flags() const { return flags_; }
  [[nodiscard]] const std::string& host_key() const { return host_key_; }

 private:
  NativeEngine() = default;

  KernelUnit unit_;
  Options options_;
  std::string object_path_;  ///< published cache entry
  bool cache_hit_ = false;
  /// Build provenance (see the accessors above).
  std::string cc_;
  std::string cc_identity_;
  std::string flags_;
  std::string host_key_;
  void* handle_ = nullptr;   ///< dlopen handle of the private copy
  /// Set when the unit was emitted parallel: the context installed via
  /// the kernel's glaf_set_pfor.
  std::unique_ptr<PforHost> pfor_host_;
  /// Resolved kernel-side gated-region counter (glaf_nat_gated).
  long (*gated_fn_)() = nullptr;
  /// Resolved wrapper entry points, parallel to unit_.functions
  /// (nullptr for unsupported entries) — the in-memory handle table
  /// that makes repeat binds symbol-lookup-free.
  std::vector<void*> entry_points_;
  /// The flat argument block's host-side arrays (glaf_nat_args grids,
  /// extents and scalars), reused across calls.
  std::vector<double*> grids_;
  std::vector<long> extents_;
  std::vector<double> scalars_;
  /// Slot indices sorted by bound address (scratch of
  /// check_disjoint_bindings), and whether the bindings have been
  /// checked since they last changed.
  std::vector<std::size_t> by_address_;
  bool bindings_checked_ = false;

  /// Refuse slots whose bound buffers overlap: kernels of either tier
  /// declare each double global array `restrict` and write it in place
  /// (binds_global_array), which is only sound when every slot has
  /// storage of its own.
  Status check_disjoint_bindings();
};


}  // namespace glaf::jit
