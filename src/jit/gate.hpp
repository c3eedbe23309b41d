#pragma once
// The measured profit gate of parallel kernels (DESIGN.md §7.2): each
// region call site decides from its own timings whether a fork/join pays
// on this host.
//
// The kernel keeps one GateSlot per region call site (a static, so per
// engine: every engine dlopens a private copy). Its hot path stays in the
// kernel: while `left` counts down, a run of n trips dispatches iff
// n >= nmin. When the countdown runs out the kernel asks the host, which
// either fixes the slot for good (always or never dispatch) or opens a
// timed run that the kernel closes after the branch. Everything else —
// the probe window, the fit and the revisit schedule — is GateSite, and
// the clock of the timed runs is GateLedger, here.
//
// Both branches of a call site compute the same bits (the serial branch
// is the original loops; the dispatched one combines ranks in a fixed
// order), so no decision of this gate can change a result.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace glaf::jit {

/// A site's first 2 * kGateProbeRuns runs are timed in two blocks: the
/// serial branch kGateProbeRuns times, then the dispatched branch as many
/// times, so each branch is measured in its own steady state (its caches,
/// the pool's spinning or parked workers); each branch then keeps its
/// newest kGateProbeRuns samples. After kGateRevisitFirst decided runs the
/// site revisits: it times the branch it did not choose, then the other
/// branch, and refits. The period doubles up to kGateRevisitMax while the
/// decision holds and restarts when it flips; when the unchosen branch
/// beat the fit's prediction for the chosen one, the next run revisits
/// again.
inline constexpr int kGateProbeRuns = 4;
inline constexpr long kGateRevisitFirst = 16;
inline constexpr long kGateRevisitMax = long{1} << 16;

/// nmin meaning "never dispatch".
inline constexpr long kNeverDispatch = std::numeric_limits<long>::max();

/// How an engine's call sites decide
/// (NativeEngine::Options::gate_always_dispatch resolved against the pool
/// and the host; resolve_gate).
enum class GateMode {
  kMeasured,  ///< each call site times itself (GateSite)
  kDispatch,  ///< always dispatch (gate_always_dispatch)
  kSerial,    ///< never dispatch: only one rank could run
};

/// "measured", "dispatch" or "serial" (NativeReport::gate_mode).
const char* gate_mode_name(GateMode mode);

/// Resolve the gate: always_dispatch dispatches everywhere; otherwise it
/// measures, except that a single-rank pool or a single-core host never
/// dispatches (a fork/join there buys nothing). Pure — exposed for tests.
GateMode resolve_gate(bool always_dispatch, int pool_threads,
                      unsigned hardware_threads);

/// Host mirror of the emitted glaf_site (codegen/c.cpp keeps the layouts
/// in lockstep).
struct GateSlot {
  long left;    ///< decided runs before the kernel asks the host again
  long nmin;    ///< a decided run of n trips dispatches iff n >= nmin
  long timing;  ///< 1 while a timed run is open
  void* state;  ///< the host's GateSite, created on the first timed run
};

/// The measured gate of one call site. From the medians of its timed runs
/// it fits a serial cost per trip `a` and a parallel overhead `f`
/// (parallel ns - a * n / nranks, a parked worker's wake-up included); a
/// run of n trips then dispatches when a * n * (1 - 1/nranks) > f.
class GateSite {
 public:
  explicit GateSite(int nranks);

  /// Open a timed run of n trips at time `now_ns`; returns whether it
  /// dispatches.
  bool open(long n, std::int64_t now_ns);
  /// Close the open run at `now_ns`: record it and, once the probe window
  /// or a revisit pair is complete, refit and re-arm.
  void close(std::int64_t now_ns);

  /// Whether the open (or last closed) run dispatched.
  [[nodiscard]] bool dispatching() const { return open_dispatch_; }
  /// The slot state the kernel runs with until it asks again.
  [[nodiscard]] long nmin() const { return nmin_; }
  [[nodiscard]] long left() const { return left_; }

 private:
  struct Samples {
    std::array<double, kGateProbeRuns> n{};
    std::array<double, kGateProbeRuns> ns{};
    long count = 0;
  };

  void fit();
  /// The fit's time for n trips on one branch.
  [[nodiscard]] double predict(bool dispatch, double n) const;

  const int nranks_;
  long runs_ = 0;  ///< timed runs closed so far
  double a_ = 0.0, f_ = 0.0;
  long nmin_ = kNeverDispatch;
  long left_ = 0;
  long period_ = kGateRevisitFirst;
  /// The first run of a revisit pair closed: its branch (the one the fit
  /// did not choose at its n) and whether it beat the fit's prediction
  /// for the chosen branch. The pair's second run takes the other branch.
  bool revisit_ = false;
  bool revisit_dispatch_ = false;
  bool revisit_won_ = false;
  Samples serial_, parallel_;
  /// The open run.
  long open_n_ = 0;
  bool open_dispatch_ = false;
  std::int64_t open_ns_ = 0;
};

/// The timed runs of one kernel's call sites (one ledger per engine). A
/// timed run is charged past the end of its branch, until the next
/// host-visible gate event — any site's open or close — or the end of the
/// kernel call (settle): a dispatched run then also pays for what it
/// leaves behind, such as the copy-out of data the workers wrote. Until a
/// closed run is settled its slot's countdown stays at 0, so the site's
/// next run asks the host again, which settles it first.
class GateLedger {
 public:
  explicit GateLedger(int nranks = 1) : nranks_(nranks) {}

  /// The countdown of `slot` ran out at `now_ns` before a run of n trips.
  /// Settles the pending run; if that armed this slot's countdown, the
  /// run is its first decided run, else it opens a timed run (slot->timing
  /// = 1). Returns whether the run dispatches.
  bool open(GateSlot* slot, long n, std::int64_t now_ns);
  /// The kernel closed the timed run of `slot` at `now_ns`: settle any
  /// pending run and leave this one pending. Returns whether the closed
  /// run dispatched.
  bool close(GateSlot* slot, std::int64_t now_ns);
  /// Close the pending run, if any, at `now_ns` and arm its slot.
  void settle(std::int64_t now_ns);
  /// Whether a closed run waits to be settled.
  [[nodiscard]] bool pending() const { return pending_ != nullptr; }

 private:
  int nranks_;
  std::vector<std::unique_ptr<GateSite>> sites_;
  GateSlot* pending_ = nullptr;
};

}  // namespace glaf::jit
