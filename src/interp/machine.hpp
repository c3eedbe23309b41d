#pragma once
// Direct execution of GLAF programs — the reproduction's substitute for
// compiling the generated FORTRAN with gfortran/ifort (no Fortran compiler
// is available offline). The interpreter implements the same semantics the
// generators emit:
//
//  - every engine mirrors the "GLAF serial" build;
//  - the native engine's parallel mode honours the auto-parallelization
//    verdicts and a directive policy (v0..v3), running the directive-kept
//    steps it can thread without changing a bit on a thread pool behind
//    a profit gate. The tree-walk and the plan VM are serial only.
//
// This is what enables the paper's §4.1.1 methodology: "a code-wide
// side-by-side comparison of the results from the execution using the GLAF
// auto-generated subroutines, against the results from executing the
// original code ... for both the serial and parallel versions". The
// parallel versions' OpenMP clauses (private copies, reductions, atomic
// updates) are checked on the C back-end's OpenMP output, compiled and
// run at several thread counts (codegen/c_run.hpp).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "analysis/parallelize.hpp"
#include "codegen/options.hpp"
#include "core/program.hpp"
#include "support/status.hpp"

namespace glaf {

class ThreadPool;

namespace interp {
class PlanExecutor;
struct ProgramPlan;
}  // namespace interp

namespace jit {
class NativeEngine;
struct AbiFunction;
}  // namespace jit

/// Runtime storage for one grid instance. All numeric values are held as
/// doubles (integers are exact below 2^53, far beyond any workload here);
/// struct grids hold one buffer per field (SoA).
struct Instance {
  const Grid* grid = nullptr;
  std::vector<std::int64_t> extents;  ///< evaluated dimension extents
  std::vector<double> data;           ///< non-struct grids
  std::map<std::string, std::vector<double>> fields;  ///< struct grids

  [[nodiscard]] std::int64_t element_count() const;
  /// Flat row-major offset (bounds-checked).
  [[nodiscard]] std::int64_t offset(const std::vector<std::int64_t>& idx) const;
};

/// Which execution engine runs function calls.
enum class ExecEngine {
  /// The reference AST interpreter (Executor in machine.cpp): serial
  /// only, the semantic definition the other engines are checked
  /// against. A machine built with `parallel` set runs it serially.
  kTreeWalk,
  /// Compiled flat plans (plan.cpp) on the VM (vm.cpp); serial only,
  /// like the tree-walk.
  kPlan,
  kNative,    ///< JIT-compiled shared object (src/jit), serial plan fallback
};

/// Native (JIT) engine status for one machine (see native_report()).
struct NativeReport {
  bool available = false;       ///< the kernel compiled and loaded
  std::string fallback_reason;  ///< why not, when !available
  std::uint64_t native_calls = 0;    ///< calls run in the kernel
  std::uint64_t fallback_calls = 0;  ///< calls routed to the plan engine
  /// Native calls that dispatched at least one threaded range (subset of
  /// native_calls; a parallel kernel whose steps all lost their
  /// directives under the policy counts as serial).
  std::uint64_t parallel_calls = 0;
  /// Total parallel regions dispatched through the host pfor trampoline.
  std::uint64_t parallel_regions = 0;
  /// Region executions the profit gate chose to keep on the calling
  /// thread (learned, or every one under the "serial" mode; the measured
  /// gate's timed runs count in gate_probes instead).
  std::uint64_t gated_serial_regions = 0;
  /// Region executions the measured gate spent timing a branch: its
  /// probe window and its revisits, dispatched or serial.
  std::uint64_t gate_probes = 0;
  /// Static dispatch regions in the kernel, and how many of them fused
  /// two or more adjacent steps into a single fork/join.
  std::uint64_t regions_total = 0;
  std::uint64_t regions_fused = 0;
  /// How the kernel's profit gate decides: "measured", "dispatch"
  /// (always), "serial" (never: one rank), or "none" for a serial kernel.
  std::string gate_mode = "none";
  int num_threads = 1;          ///< pool width behind parallel kernels
  bool cache_hit = false;       ///< compilation skipped (kernel cache)
  std::string object_path;      ///< published cache entry ("" if none)
  /// Numeric model the kernel was emitted with (kInterp = bit-identical,
  /// kOpt = typed/ulp-bounded).
  NumericModel model = NumericModel::kInterp;
  /// Build provenance as keyed into the kernel cache: the resolved
  /// compiler command, its --version identity line, the exact flag
  /// string, and the host-CPU fingerprint for -march=native objects
  /// ("" when the object is portable).
  std::string compiler;
  std::string compiler_version;
  std::string compile_flags;
  std::string host_key;
};

/// Interpreter execution options.
struct InterpOptions {
  /// Execution engine; plans are the default, the tree-walk remains as the
  /// serial semantic reference (the fuzz oracle cross-checks them).
  ExecEngine engine = ExecEngine::kPlan;
  /// kNative: thread the directive-kept bit-exact steps of the kernel on
  /// a pool of num_threads. Every other engine, and the plan fallback of
  /// a kernel that did not load, runs serially.
  bool parallel = false;
  int num_threads = 4;
  DirectivePolicy policy = DirectivePolicy::kV0;
  /// Manual tweaks forwarded to the analysis (ioff_search critical etc.).
  TweaksByFunction tweaks;
  /// Treat every function-local array as SAVE'd (no-reallocation option).
  bool save_temporaries = false;
  /// Record a per-step execution trace (the GPI's debugging/visualization
  /// facility): which steps ran, in order, with iteration counts.
  bool trace = false;
  /// kNative: compiler command ("" resolves $GLAF_CC, then "cc") and
  /// kernel-cache directory ("" resolves $GLAF_KERNEL_CACHE / XDG).
  std::string native_cc;
  std::string native_cache_dir;
  /// kNative parallel kernels: the profit gate measures by default. Each
  /// region call site times both branches over a probe window of
  /// 2 x kGateProbeRuns runs, then dispatches only where its fitted
  /// fork/join pays, re-timing the other branch after kGateRevisitFirst
  /// decided runs and then every doubling period up to kGateRevisitMax.
  /// Both branches compute the same bits, so the choice never changes a
  /// result. Test hook: gate_always_dispatch dispatches every region
  /// (NativeEngine::Options::gate_always_dispatch).
  bool gate_always_dispatch = false;
  /// kNative: numeric model of the emitted kernel. kInterp is the
  /// bit-identical all-double tier; kOpt stores grids in native widths
  /// and compiles -O3 -march=native — fast, but compared against the
  /// interpreter under ulp budgets rather than bitwise. kOpt kernels
  /// are always serial.
  NumericModel native_model = NumericModel::kInterp;
  /// kNative opt tier: compile a portable object (generic -O3, no
  /// -march=native). Also forced by $GLAF_NATIVE_PORTABLE.
  bool native_portable = false;
};

/// One trace record: a step that executed.
struct TraceEntry {
  std::string function;
  std::string step;
  std::uint64_t iterations = 0;  ///< innermost-loop iterations executed
};

/// Execution statistics of the interpreter engines (drive the
/// reallocation analysis). A native call counts in function_calls only;
/// its regions are in NativeReport.
struct InterpStats {
  std::uint64_t steps_executed = 0;
  std::uint64_t loop_iterations = 0;
  std::uint64_t local_allocations = 0;  ///< local-array materializations
  std::uint64_t function_calls = 0;

  InterpStats& operator+=(const InterpStats& o) {
    steps_executed += o.steps_executed;
    loop_iterations += o.loop_iterations;
    local_allocations += o.local_allocations;
    function_calls += o.function_calls;
    return *this;
  }
};

/// A host-side call argument: a literal scalar, or the name of a Global
/// Scope grid passed by reference.
using CallArg = std::variant<double, std::string>;

/// The GLAF abstract machine: owns global-grid storage and executes
/// functions of one validated program.
class Machine {
 public:
  /// Takes the program by value: the machine owns its own copy, so callers
  /// may pass temporaries safely.
  explicit Machine(Program program, InterpOptions options = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// --- host access to Global Scope grids -------------------------------
  Status set_scalar(const std::string& grid, double value);
  Status set_array(const std::string& grid, const std::vector<double>& data,
                   const std::string& field = {});
  [[nodiscard]] StatusOr<double> scalar(const std::string& grid) const;
  [[nodiscard]] StatusOr<std::vector<double>> array(
      const std::string& grid, const std::string& field = {}) const;

  /// Call a function. Returns its value (0.0 for subroutines).
  StatusOr<double> call(const std::string& function,
                        const std::vector<CallArg>& args = {});

  [[nodiscard]] const InterpStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// The recorded execution trace (empty unless options.trace).
  [[nodiscard]] const std::vector<TraceEntry>& trace() const {
    return trace_;
  }
  void clear_trace() { trace_.clear(); }

  [[nodiscard]] const ProgramAnalysis& analysis() const { return analysis_; }
  [[nodiscard]] const Program& program() const { return program_; }

  /// Native-engine status: whether the kernel loaded, the fallback
  /// reason when it did not, and per-call dispatch counters. Meaningful
  /// only under ExecEngine::kNative.
  [[nodiscard]] const NativeReport& native_report() const {
    return native_report_;
  }

 private:
  friend class Executor;
  friend class interp::PlanExecutor;

  Instance* find_global(const std::string& name);
  const Instance* find_global(const std::string& name) const;

  const Program program_;
  InterpOptions options_;
  ProgramAnalysis analysis_;
  /// The parallel interp-tier kernel's pool (null otherwise).
  std::unique_ptr<ThreadPool> pool_;

  /// GridId -> storage for globals; save-cache for SAVE'd locals.
  std::map<GridId, std::shared_ptr<Instance>> globals_;
  std::map<GridId, std::shared_ptr<Instance>> saved_locals_;
  /// The slot prototype every call frame of either engine starts from:
  /// raw global-instance pointers indexed by GridId (null elsewhere).
  /// Global instances live as long as the machine.
  std::vector<Instance*> global_slots_;

  /// Plan-engine state: the compiled plans.
  std::unique_ptr<interp::ProgramPlan> plans_;

  /// Native-engine state (kNative): the loaded kernel, or null when the
  /// machine fell back to plans (see native_report_.fallback_reason).
  std::unique_ptr<jit::NativeEngine> native_;
  /// The kernel's slots as global instances (slots() order), rebound
  /// into the engine's argument block on every native call. Interp-tier
  /// kernels work on these instances' data in place; each slot is a
  /// distinct global with its own Instance, so no two slots share
  /// storage (the `restrict` invariant NativeEngine::call checks).
  std::vector<Instance*> native_globals_;
  NativeReport native_report_;

  InterpStats stats_;
  std::vector<TraceEntry> trace_;
};

}  // namespace glaf
