#pragma once
// Shared pieces of the benchmark harness: the fixed workload constants,
// the run context, result bookkeeping, order statistics, and the seeded
// inputs every workload feeds its programs.

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/mesh.hpp"
#include "interp/machine.hpp"

namespace perfbench {

// ---- workloads and fixed constants (BENCHMARK.json's `why` lines quote
// them) ----------------------------------------------------------------------

/// A workload: every run goes through all three phases (compile, kernels,
/// serve) and reports every metric; the workload sets the problem sizes
/// and the serve phase's request mix.
struct Workload {
  const char* name;
  /// SARB atmosphere for the kernels phase.
  int sarb_levels;
  /// Full FUN3D decomposition mesh for the compile and kernels phases:
  /// large enough that edgejp is not all call overhead, small enough that
  /// the plan VM leg stays a minority of the kernels phase.
  std::int64_t fun3d_cells;
  /// Serve phase: weight the mix toward the spectral integrations instead
  /// of the cheap per-level entries.
  bool heavy_mix;
};
inline constexpr Workload kWorkloads[] = {
    {"paper", 60, 120, false},
    {"large", 4096, 150, true},
};

/// SARB atmosphere for the compile and serve phases: the paper's size,
/// the only one the hand-written reference (fuliou::run_reference) and the
/// server's builtin program have.
inline constexpr int kSarbLevels = 60;
/// Serve phase (b): fixed absolute open-loop rate and the latency limit
/// beyond which a request counts as a miss.
inline constexpr double kOpenLoopRate = 4000.0;  // requests per second
inline constexpr double kLatencyLimitMs = 50.0;
/// Serve phase (c): requests per kRunBatch frame.
inline constexpr std::uint32_t kBatchSize = 512;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// ---- run context --------------------------------------------------------

struct RunContext {
  Workload workload{};
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required; run.py passes run_seconds
  bool trace = false;
  bool smoke = false;
  int nproc = 1;
  /// Threads of the parallel engine and the server, and connections of
  /// the serve load: half of nproc (at least 1). On a shared virtual
  /// machine other tenants take vCPUs away for stretches; a fork-join
  /// region or a request path that needs every vCPU at once then measures
  /// the host rather than the code.
  int threads = 1;
  std::string work_dir;  ///< absolute; caches and the socket live here

  /// A new, empty kernel-cache namespace under work_dir.
  [[nodiscard]] std::string fresh_cache_dir() const;
  /// Set-ups per run: `scale` x kSetupRepeats (one in smoke mode).
  [[nodiscard]] int setup_repeats(int scale = 1) const {
    return smoke ? 1 : scale * kSetupRepeats;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: operation counts, metrics, and details for the
/// side report.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Free-form numbers for the side report (not part of the contract).
  std::map<std::string, double> notes;

  /// Count one operation; a false `ok` also counts a failure.
  void check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// Fold in one phase's result: counts and failures add up, setup_s is
  /// the sum of the phases' set-up times, notes get the phase's prefix.
  void merge(const std::string& phase, const Result& r);
};

// ---- CPU placement --------------------------------------------------------

/// Keeps threads on one CPU at a time, moving round-robin over the CPUs
/// the process may use; the destructor restores the original placement.
/// On a shared virtual machine each vCPU gets its own share of the host
/// (another tenant on its hyperthread sibling, for one): a thread the
/// scheduler leaves on one vCPU for a whole phase measured 1.4x faster or
/// slower from one run to the next. Pooling the samples of rounds that
/// each ran on another CPU averages that out.
class CpuRotation {
 public:
  enum class Scope {
    kCallingThread,  ///< only the calling thread (its pools stay free)
    kAllThreads,     ///< every thread of the process; threads started
                     ///< meanwhile inherit it from their creators
  };
  explicit CpuRotation(Scope scope);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move to the `round`-th CPU (modulo their number).
  void pin(int round);

 private:
  void set(const cpu_set_t& cpus) const;

  Scope scope_;
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

// ---- order statistics -----------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Interquartile mean: the mean of the middle half of the sample (of all
/// of it below four samples); 0 for an empty sample. The end-to-end times
/// use it in place of the median. On a shared virtual machine a call's
/// time is often bimodal (the same plan-VM call took either ~3.5 or
/// ~5.5 ms, depending on the host rather than the call), and with the two
/// modes near half each, the median jumped from one to the other between
/// runs; the interquartile mean moves only as far as their shares do and,
/// like the median, ignores the stalls in the tails.
double iq_mean(std::vector<double> v);
/// Geometric mean of the positive entries (0 when there are none).
double geomean(const std::vector<double>& v);

// ---- inputs -----------------------------------------------------------------

/// The four inputs of the small FUN3D kernel program, seeded.
struct Fun3dSmallInputs {
  std::vector<double> edge_a, edge_b, w, q;
};
Fun3dSmallInputs make_fun3d_small_inputs(std::uint64_t seed);
glaf::Status load_fun3d_small(glaf::Machine& m, const Fun3dSmallInputs& in);

/// How close a result must be to its reference: bitwise when every field
/// is 0; otherwise within `max_ulp` ulps or the band `atol + rtol * |x|`
/// (support/ulp's ulp_close).
struct Tolerance {
  std::uint64_t max_ulp = 0;
  double rtol = 0.0;
  double atol = 0.0;
};
/// The opt tier's band. FMA contraction in long multiply-add chains moves
/// results by a few 1e-14 relative (up to 6e-14 on the seeded inputs);
/// sums of O(1) terms that cancel toward zero keep an absolute error near
/// 1e-16 but can be thousands of ulps of the small result. 1e-12 on both
/// leaves headroom and still catches a wrong value.
inline constexpr Tolerance opt_band(std::uint64_t max_ulp) {
  return {max_ulp, 1e-12, 1e-12};
}

/// Compare every non-struct global of two machines under `tol`; the worst
/// ulp distance seen is folded into *worst.
bool globals_match(const glaf::Machine& reference, const glaf::Machine& other,
                   const Tolerance& tol, std::uint64_t* worst,
                   std::string* where);

/// InterpOptions for the four engines the benchmark exercises.
enum class Engine { kPlan, kNative, kOpt, kParallel };
const char* engine_name(Engine e);
glaf::InterpOptions engine_options(Engine e, int threads,
                                   const std::string& cache_dir);

/// A native machine must have loaded its kernel and never fallen back.
bool native_ok(const glaf::Machine& m, std::string* why);

}  // namespace perfbench
