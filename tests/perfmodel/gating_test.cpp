// Profit-gate tests: the native engine must keep parallel regions on
// the calling thread where a fork/join cannot pay, and dispatch them
// where it does.
//
//  - GateSite, the measured gate's per-call-site logic, driven with
//    synthetic timings through the engine's GateLedger: the probe window
//    (a serial block, then a dispatched block), the fitted break-even
//    trip count, the doubling revisit period and its cap, a trip count
//    that moves across the break-even, the correction of a decision
//    fitted in a noisy window, and a dispatch whose downstream cost keeps
//    the site serial; the ledger keeps a closed run on the clock until the
//    next gate event or the end of the call;
//  - the measured default in a real kernel: a sub-threshold region (the
//    smooth_q shape that motivated the gate) never dispatches after the
//    window except on revisit probes, every one of its runs is a probe
//    or a learned serial run; a site whose trip count moves across the
//    break-even stays bitwise-equal to the plan VM after every call. The
//    claims that need a real win of a dispatch (a heavy region learns to
//    dispatch) are checked only when a dispatch clearly beat serial on
//    this host's usable CPUs both before and right after the gate's
//    window, and skipped with both timings otherwise;
//  - gate_always_dispatch always dispatches, and no mode changes a
//    result bit;
//  - resolve_gate maps the Options hook to a mode (always dispatch, else
//    measured; single-rank pools and single-core hosts = serial).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "jit/engine.hpp"
#include "jit/gate.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "testing/cross_entry.hpp"

namespace glaf {
namespace {

bool have_cc() { return cc_available("cc"); }

std::string fresh_cache_dir(const std::string& tag) {
  std::string tmpl = cat(::testing::TempDir(), "glaf_gcache_", tag, "_XXXXXX");
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : tmpl;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

/// The shape that motivated the gate: smooth_q's neighbour average over
/// a handful of nodes — parallelizable, bit-exact, and far too small to
/// pay for a fork/join.
Program tiny_smooth_program(int n) {
  ProgramBuilder pb("m");
  auto q = pb.global("q", DataType::kDouble, {E(n + 2)});
  auto q2 = pb.global("q2", DataType::kDouble, {E(n)});
  auto fb = pb.function("smooth");
  auto s = fb.step("s");
  s.foreach_("i", 0, n - 1);
  s.assign(q2(idx("i")),
           (q(idx("i")) + q(idx("i") + 1) + q(idx("i") + 2)) / 3.0);
  return pb.build().value();
}

InterpOptions gated_native(int threads = 4, bool always_dispatch = false) {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.parallel = true;
  o.num_threads = threads;
  o.gate_always_dispatch = always_dispatch;
  return o;
}

/// Run `smooth` once and return the report.
NativeReport run_tiny(const Program& p, const InterpOptions& o) {
  Machine m(p, o);
  EXPECT_TRUE(m.native_report().available)
      << m.native_report().fallback_reason;
  EXPECT_TRUE(m.call("smooth").is_ok());
  return m.native_report();
}

/// Region executions in a measured site's probe window, and the decided
/// runs before its first revisit.
constexpr std::uint64_t kWindow = 2 * jit::kGateProbeRuns;
constexpr int kRevisit = static_cast<int>(jit::kGateRevisitFirst);

// ---- GateSite with synthetic timings ----------------------------------------

/// One call site in a kernel call, on a fake clock: the emitted
/// glaf_site countdown around the engine's GateLedger. A serial run of n
/// trips costs `per_trip * n` ns, a dispatched one
/// `overhead + per_trip * n / ranks`, plus `downstream_ns` after the
/// branch (e.g. the copy-out of data the workers wrote); the call ends
/// right after, which settles the run.
struct SimulatedSite {
  explicit SimulatedSite(int ranks) : ranks(ranks), ledger(ranks) {}

  /// One kernel call running the site once; returns whether it
  /// dispatched.
  bool run(long n) {
    const bool dispatch = --slot.left >= 0 ? n >= slot.nmin
                                           : ledger.open(&slot, n, clock);
    const bool timed = slot.timing != 0;
    clock += static_cast<std::int64_t>(
        dispatch ? overhead + per_trip * static_cast<double>(n) / ranks
                 : per_trip * static_cast<double>(n));
    if (timed) {
      if (noise_runs > 0) {
        --noise_runs;
        if (dispatch) clock += static_cast<std::int64_t>(noise_ns);
      }
      EXPECT_EQ(ledger.close(&slot, clock), dispatch);
      ++probes;
    }
    if (dispatch) clock += static_cast<std::int64_t>(downstream_ns);
    ledger.settle(clock);
    return dispatch;
  }

  int ranks;
  jit::GateLedger ledger;
  jit::GateSlot slot{0, 0, 0, nullptr};
  std::int64_t clock = 0;
  double per_trip = 10.0;     ///< ns per trip, serial
  double overhead = 20000.0;  ///< ns per dispatch
  double downstream_ns = 0.0;  ///< ns a dispatch leaves behind
  int noise_runs = 0;         ///< timed runs whose dispatch is slowed
  double noise_ns = 0.0;
  int probes = 0;
};

TEST(GateSite, WindowTimesASerialBlockThenADispatchedBlock) {
  SimulatedSite s(2);
  // 100 trips: 1 us serial against a 20 us fork/join.
  for (std::uint64_t k = 0; k < kWindow; ++k) {
    EXPECT_EQ(s.run(100), k >= jit::kGateProbeRuns) << k;
  }
  EXPECT_EQ(s.probes, static_cast<int>(kWindow));
  for (int k = 0; k < kRevisit; ++k) EXPECT_FALSE(s.run(100)) << k;
  EXPECT_EQ(s.probes, static_cast<int>(kWindow));
  // The revisit: the other branch, then the chosen one.
  EXPECT_TRUE(s.run(100));
  EXPECT_FALSE(s.run(100));
  EXPECT_EQ(s.probes, static_cast<int>(kWindow) + 2);
}

TEST(GateSite, DownstreamCostOfADispatchKeepsTheSiteSerial) {
  // 100000 trips at 10 ns: 1 ms serial, 0.52 ms dispatched on 2 ranks by
  // the branch's own clock — but each dispatch leaves 0.6 ms of work
  // behind it in the call. Timed to the end of the branch, the site
  // would dispatch; charged to the end of the call, it stays serial.
  jit::GateSite branch_only(2);
  std::int64_t clock = 0;
  for (std::uint64_t k = 0; k < kWindow; ++k) {
    const bool dispatch = branch_only.open(100000, clock);
    clock += dispatch ? 20000 + 500000 : 1000000;
    branch_only.close(clock);
  }
  EXPECT_LE(branch_only.nmin(), 100000);

  SimulatedSite s(2);
  s.downstream_ns = 6e5;
  for (std::uint64_t k = 0; k < kWindow; ++k) s.run(100000);
  EXPECT_GT(s.slot.nmin, 100000);
  for (int k = 0; k < kRevisit; ++k) EXPECT_FALSE(s.run(100000)) << k;
}

TEST(GateLedger, ClosedRunPendsUntilTheNextGateEvent) {
  jit::GateLedger ledger(2);
  jit::GateSlot a{0, 0, 0, nullptr}, b{0, 0, 0, nullptr};
  std::int64_t clock = 0;
  // Site a's window, each run alone in its call.
  for (std::uint64_t k = 0; k < kWindow; ++k) {
    ASSERT_EQ(--a.left, -1) << k;
    EXPECT_EQ(ledger.open(&a, 100, clock), k >= jit::kGateProbeRuns) << k;
    EXPECT_EQ(a.timing, 1);
    clock += 1000;
    ledger.close(&a, clock);
    EXPECT_EQ(a.timing, 0);
    // Closed but not settled: the countdown stays at 0.
    EXPECT_TRUE(ledger.pending());
    EXPECT_EQ(a.left, 0) << k;
    if (k + 1 < kWindow) ledger.settle(clock);
  }
  // The window's last run is still pending; site b's open settles it and
  // arms a's countdown.
  EXPECT_FALSE(ledger.open(&b, 100, clock)) << "b's window starts serial";
  EXPECT_FALSE(ledger.pending());
  // a = 10 ns/trip, F = 1000 - a * 100 / 2 = 500 ns: n > 100 pays.
  EXPECT_EQ(a.left, jit::kGateRevisitFirst);
  EXPECT_EQ(a.nmin, 101);
  EXPECT_EQ(b.timing, 1);
  ledger.close(&b, clock);

  // A pending run whose own site runs next: the site's open settles it
  // and the run is the first decided one.
  jit::GateLedger solo(2);
  jit::GateSlot c{0, 0, 0, nullptr};
  for (std::uint64_t k = 0; k < kWindow; ++k) {
    --c.left;
    solo.open(&c, 100, clock);
    clock += 1000;
    solo.close(&c, clock);
  }
  ASSERT_TRUE(solo.pending());
  ASSERT_EQ(--c.left, -1);
  EXPECT_FALSE(solo.open(&c, 100, clock));
  EXPECT_FALSE(solo.pending());
  EXPECT_EQ(c.timing, 0);
  EXPECT_EQ(c.left, jit::kGateRevisitFirst - 1);
}

TEST(GateSite, FitsTheBreakEvenTripCount) {
  // a = 10 ns/trip, F = 20 us, 2 ranks: dispatch pays from
  // n > F / (a * (1 - 1/2)) = 4000 trips, wherever the site probed.
  for (const long probe_n : {100L, 1000L, 100000L}) {
    SimulatedSite s(2);
    for (std::uint64_t k = 0; k < kWindow; ++k) s.run(probe_n);
    EXPECT_NEAR(static_cast<double>(s.slot.nmin), 4000.0, 2.0) << probe_n;
    EXPECT_FALSE(s.run(3000)) << probe_n;
    EXPECT_TRUE(s.run(5000)) << probe_n;
  }
  // More ranks save more of the serial time: the break-even drops.
  SimulatedSite four(4);
  for (std::uint64_t k = 0; k < kWindow; ++k) four.run(1000);
  EXPECT_NEAR(static_cast<double>(four.slot.nmin), 20000.0 / 7.5, 2.0);
}

TEST(GateSite, RevisitPeriodDoublesUpToTheCap) {
  SimulatedSite s(2);
  for (std::uint64_t k = 0; k < kWindow; ++k) s.run(100);
  long expected = jit::kGateRevisitFirst;
  for (int revisit = 0; revisit < 20; ++revisit) {
    long decided = 0;
    while (true) {
      const int before = s.probes;
      s.run(100);
      if (s.probes != before) break;
      ++decided;
    }
    s.run(100);  // the chosen branch closes the pair
    EXPECT_EQ(decided, expected) << revisit;
    expected = std::min(2 * expected, jit::kGateRevisitMax);
  }
  EXPECT_EQ(expected, jit::kGateRevisitMax);
}

TEST(GateSite, NoisyWindowIsCorrectedWithinAFewPairs) {
  // 100000 trips at 10 ns: 1 ms serial, 0.52 ms dispatched on 2 ranks —
  // but the window's dispatches are slowed by 2 ms (a busy host).
  SimulatedSite s(2);
  s.noise_runs = static_cast<int>(kWindow);
  s.noise_ns = 2e6;
  for (std::uint64_t k = 0; k < kWindow; ++k) s.run(100000);
  EXPECT_FALSE(s.run(100000)) << "the noisy window settles serial";
  for (int k = 1; k < kRevisit; ++k) s.run(100000);
  // Revisit pairs whose dispatch beat the fit's serial time follow each
  // other until the newest samples outvote the window's.
  int runs = 0;
  while (!(s.slot.left > 0 && s.slot.nmin <= 100000) &&
         runs < 4 * jit::kGateProbeRuns) {
    s.run(100000);
    ++runs;
  }
  EXPECT_LE(runs, 2 * jit::kGateProbeRuns);
  for (int k = 0; k < kRevisit; ++k) EXPECT_TRUE(s.run(100000)) << k;
}

TEST(GateSite, TripCountAcrossTheBreakEvenKeepsThePeriodDoubling) {
  // a = 10 ns/trip, F = 20 us, 2 ranks: nmin = 4001. Calls alternate 3000
  // and 5000 trips, so each revisit pair runs at two sides of nmin; its
  // second run still takes the branch its first did not, and neither
  // branch beats the fit, so the period keeps doubling.
  SimulatedSite s(2);
  for (std::uint64_t k = 0; k < kWindow; ++k) s.run(1000);
  ASSERT_EQ(s.slot.nmin, 4001);
  long call = 0;
  const auto next_n = [&] { return (call++ % 2 == 0) ? 3000L : 5000L; };
  long expected = jit::kGateRevisitFirst;
  for (int revisit = 0; revisit < 8; ++revisit) {
    long decided = 0;
    bool first = false;
    while (true) {
      const int before = s.probes;
      const long n = next_n();
      const bool dispatched = s.run(n);
      if (s.probes != before) {
        // The revisit's first run takes the branch the fit does not
        // choose at its n.
        EXPECT_EQ(dispatched, n < s.slot.nmin) << revisit;
        first = dispatched;
        break;
      }
      EXPECT_EQ(dispatched, n >= s.slot.nmin) << revisit << " " << n;
      ++decided;
    }
    const int before = s.probes;
    EXPECT_NE(s.run(next_n()), first) << "the pair times both branches";
    EXPECT_EQ(s.probes, before + 1) << revisit;
    EXPECT_EQ(decided, expected) << revisit;
    EXPECT_EQ(s.slot.nmin, 4001) << revisit;
    expected = std::min(2 * expected, jit::kGateRevisitMax);
  }
}

// ---- the measured gate in real kernels --------------------------------------

/// The engine resolves its gate against hardware_concurrency().
bool multi_core() { return std::thread::hardware_concurrency() >= 2; }

/// CPUs this process may run on: a container's CPU set or an affinity
/// mask can hold it below hardware_concurrency().
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Ranks for the heavy region: up to one per usable CPU, so a dispatch
/// wins by a wide margin wherever it can win at all.
int heavy_threads() { return std::clamp(usable_cpus(), 2, 4); }

TEST(ProfitGate, SubThresholdKernelNeverLeavesSerial) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("tiny"));
  const Program p = tiny_smooth_program(16);
  // The measured default: on a multi-core host the site probes both
  // branches, then learns that 16 cheap iterations never pay for a
  // fork/join; on a single-core host the gate is "never dispatch".
  Machine m(p, gated_native());
  ASSERT_TRUE(m.native_report().available)
      << m.native_report().fallback_reason;
  EXPECT_EQ(m.native_report().gate_mode,
            multi_core() ? "measured" : "serial");
  std::uint64_t calls = 0;
  const auto call = [&] {
    ASSERT_TRUE(m.call("smooth").is_ok());
    ++calls;
  };
  for (std::uint64_t k = 0; k < kWindow; ++k) call();
  // After the window, no run dispatches until the first revisit: each
  // call adds exactly one learned serial run.
  for (int k = 0; k < kRevisit; ++k) {
    const NativeReport before = m.native_report();
    call();
    const NativeReport& after = m.native_report();
    EXPECT_EQ(after.parallel_regions, before.parallel_regions) << k;
    EXPECT_EQ(after.gated_serial_regions, before.gated_serial_regions + 1)
        << k;
    EXPECT_EQ(after.gate_probes, before.gate_probes) << k;
  }
  // Through several revisits: every run is a probe or a learned serial
  // run, and every dispatch was a probe.
  for (int k = 0; k < 4 * kRevisit; ++k) call();
  const NativeReport& r = m.native_report();
  EXPECT_EQ(r.gated_serial_regions + r.gate_probes, calls);
  EXPECT_LE(r.parallel_regions, r.gate_probes);
  EXPECT_EQ(r.parallel_calls, r.parallel_regions);
  if (multi_core()) {
    // The window plus at least two revisit pairs were timed.
    EXPECT_GE(r.gate_probes, kWindow + 4);
  } else {
    EXPECT_EQ(r.gate_probes, 0u);
    EXPECT_EQ(r.parallel_regions, 0u);
  }
}

/// A region heavy enough that a fork/join pays on any host with a
/// second free CPU: `n` trips of a few libm calls each. The trip count
/// is the global scalar `n`, so a caller can move one site across the
/// break-even.
Program heavy_program(int capacity) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {},
                     {.init = {std::int64_t{capacity}}});
  auto x = pb.global("x", DataType::kDouble, {E(capacity)});
  auto y = pb.global("y", DataType::kDouble, {E(capacity)});
  auto fb = pb.function("heavy");
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(y(idx("i")),
           call("SQRT", {E(x(idx("i")))}) * call("SIN", {E(x(idx("i")))}) +
               call("COS", {E(x(idx("i"))) * 0.5}) +
               call("EXP", {E(x(idx("i"))) * -0.25}));
  return pb.build().value();
}

constexpr int kHeavyTrips = 1 << 16;

void load_heavy(Machine& m) {
  std::vector<double> x(kHeavyTrips);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 + 1e-4 * static_cast<double>(i);
  }
  ASSERT_TRUE(m.set_array("x", x).is_ok());
}

/// How many times faster the full heavy region runs dispatched than
/// serially on this host right now: the median of a few always-dispatched
/// calls against the median of a few serial ones (a single-rank pool),
/// interleaved. 0 when only one CPU is usable.
double dispatch_speedup(const Program& p) {
  if (usable_cpus() < 2) return 0.0;
  Machine dispatched(p, gated_native(heavy_threads(), true));
  Machine serial(p, gated_native(1));
  if (!dispatched.native_report().available ||
      !serial.native_report().available) {
    return 0.0;
  }
  load_heavy(dispatched);
  load_heavy(serial);
  constexpr int kRuns = 5;
  std::vector<double> ns[2];
  for (int k = 0; k <= kRuns; ++k) {
    for (int side = 0; side < 2; ++side) {
      Machine& m = side == 0 ? dispatched : serial;
      const auto t0 = std::chrono::steady_clock::now();
      if (!m.call("heavy").is_ok()) return 0.0;
      const auto t1 = std::chrono::steady_clock::now();
      // The first round warms both kernels up.
      if (k > 0) {
        ns[side].push_back(std::chrono::duration<double>(t1 - t0).count());
      }
    }
  }
  for (auto& v : ns) std::sort(v.begin(), v.end());
  return ns[1][kRuns / 2] / ns[0][kRuns / 2];
}

/// A speedup no measured site can miss, even through a noisy window.
constexpr double kClearWin = 1.5;

/// dispatch_speedup measured before a gate ran its window and again right
/// after it. This host's cross-CPU latency can switch phase in between,
/// which leaves the gate rightly serial, so a learned dispatch is claimed
/// only when both measurements clearly win.
struct DispatchWin {
  double before = 0.0;
  double after = 0.0;

  [[nodiscard]] bool clear() const {
    return before >= kClearWin && after >= kClearWin;
  }
  [[nodiscard]] std::string str() const {
    return cat("dispatch ", before, "x serial before the gate's window and ",
               after, "x after it, on ", usable_cpus(), " usable CPUs");
  }
};

TEST(ProfitGate, HeavyRegionLearnsToDispatch) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  if (!multi_core()) GTEST_SKIP() << "a single-core host never dispatches";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("heavy"));
  const Program p = heavy_program(kHeavyTrips);
  const double before = dispatch_speedup(p);
  Machine m(p, gated_native(heavy_threads()));
  ASSERT_TRUE(m.native_report().available)
      << m.native_report().fallback_reason;
  load_heavy(m);
  // The window plus a few revisits: a window timed while the host was
  // busy may first settle serial, and the revisits correct it.
  const std::uint64_t calls = kWindow + 3 * kRevisit;
  for (std::uint64_t k = 0; k < calls; ++k) {
    ASSERT_TRUE(m.call("heavy").is_ok());
  }
  const DispatchWin win{before, dispatch_speedup(p)};
  if (!win.clear()) GTEST_SKIP() << "no clear win throughout: " << win.str();
  // Every run is a probe, a learned serial run or a learned dispatch,
  // and at least one decided run dispatched.
  const NativeReport& r = m.native_report();
  ASSERT_LE(r.gate_probes + r.gated_serial_regions, calls);
  const std::uint64_t learned = calls - r.gate_probes - r.gated_serial_regions;
  EXPECT_GT(learned, 0u) << win.str();
  EXPECT_LE(learned, r.parallel_regions);
  EXPECT_GE(r.gate_probes, kWindow);
}

TEST(ProfitGate, DecisionChangesMidSequenceAndStaysBitwise) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("flip"));
  const Program p = heavy_program(kHeavyTrips);
  const double before = dispatch_speedup(p);
  InterpOptions plan;
  plan.engine = ExecEngine::kPlan;
  Machine reference(p, plan);
  Machine native(p, gated_native(heavy_threads()));
  ASSERT_TRUE(native.native_report().available)
      << native.native_report().fallback_reason;
  load_heavy(reference);
  load_heavy(native);
  // Small trip counts through the window and past the first revisit,
  // then the full range, then small again: the site fits once and
  // applies the fit to each call's trip count.
  struct Phase {
    int trips;
    int calls;
  };
  const Phase phases[] = {{16, static_cast<int>(kWindow) + 2 * kRevisit},
                          {kHeavyTrips, 2 * kRevisit},
                          {16, kRevisit}};
  std::uint64_t dispatched[3] = {}, gated[3] = {}, probes[3] = {};
  int round = 0;
  for (int ph = 0; ph < 3; ++ph) {
    for (int k = 0; k < phases[ph].calls; ++k, ++round) {
      const std::string step = cat("phase ", ph, " call ", k);
      const NativeReport before = native.native_report();
      testing::overwrite_floating_globals(reference, native, round);
      for (Machine* mach : {&reference, &native}) {
        ASSERT_TRUE(
            mach->set_scalar("n", static_cast<double>(phases[ph].trips))
                .is_ok());
        ASSERT_TRUE(mach->call("heavy").is_ok()) << step;
      }
      testing::expect_globals_bitwise(reference, native, step);
      if (::testing::Test::HasFailure()) return;
      const NativeReport& after = native.native_report();
      dispatched[ph] += after.parallel_regions - before.parallel_regions;
      gated[ph] += after.gated_serial_regions - before.gated_serial_regions;
      probes[ph] += after.gate_probes - before.gate_probes;
    }
  }
  // Small runs never pay for a fork/join: there every run is a probe or
  // a learned serial run, and every dispatch was a probe.
  for (const int ph : {0, 2}) {
    EXPECT_EQ(gated[ph] + probes[ph],
              static_cast<std::uint64_t>(phases[ph].calls))
        << ph;
    EXPECT_LE(dispatched[ph], probes[ph]) << ph;
    EXPECT_GT(gated[ph], 0u) << ph;
  }
  const DispatchWin win{before, dispatch_speedup(p)};
  if (!win.clear()) GTEST_SKIP() << "no clear win throughout: " << win.str();
  // Where a dispatch wins, the full range flips the site to dispatching
  // decided runs (the small phase after it flipped it back above).
  const std::uint64_t learned = phases[1].calls - probes[1] - gated[1];
  EXPECT_GT(learned, 0u) << win.str();
}

TEST(ProfitGate, GateOffAlwaysDispatches) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("off"));
  // Gating off: even the tiny kernel dispatches, at any pool size.
  for (const int threads : {1, 4}) {
    const NativeReport off =
        run_tiny(tiny_smooth_program(16), gated_native(threads, true));
    EXPECT_EQ(off.gate_mode, "dispatch") << threads;
    EXPECT_EQ(off.gated_serial_regions, 0u) << threads;
    EXPECT_EQ(off.gate_probes, 0u) << threads;
    EXPECT_GT(off.parallel_regions, 0u) << threads;
  }
}

TEST(ProfitGate, GateDoesNotChangeResults) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("same"));
  const Program p = tiny_smooth_program(16);
  std::vector<double> q(18);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  // Each mode through the measured site's window and past its first
  // revisit.
  const auto run = [&](const InterpOptions& o) {
    Machine m(p, o);
    EXPECT_TRUE(m.set_array("q", q).is_ok());
    for (int k = 0; k < static_cast<int>(kWindow) + kRevisit + 2; ++k) {
      EXPECT_TRUE(m.call("smooth").is_ok());
    }
    return std::make_pair(m.native_report().gate_mode, m.array("q2").value());
  };
  const auto serial = run(gated_native(1));
  const auto dispatched = run(gated_native(4, true));
  const auto measured = run(gated_native(4));
  EXPECT_EQ(serial.first, "serial");
  EXPECT_EQ(dispatched.first, "dispatch");
  for (const auto* other : {&dispatched, &measured}) {
    ASSERT_EQ(other->second.size(), serial.second.size());
    for (std::size_t i = 0; i < serial.second.size(); ++i) {
      EXPECT_EQ(other->second[i], serial.second[i]) << other->first << i;
    }
  }
}

TEST(ProfitGate, ResolveGate) {
  using jit::GateMode;
  using jit::resolve_gate;
  // The always-dispatch hook dispatches, whatever the pool.
  EXPECT_EQ(resolve_gate(true, 8, 8), GateMode::kDispatch);
  EXPECT_EQ(resolve_gate(true, 1, 1), GateMode::kDispatch);
  // The default on a host that cannot win: never dispatch.
  EXPECT_EQ(resolve_gate(false, 1, 8), GateMode::kSerial);
  EXPECT_EQ(resolve_gate(false, 8, 1), GateMode::kSerial);
  // ... and on a real parallel host: every call site measures.
  EXPECT_EQ(resolve_gate(false, 8, 8), GateMode::kMeasured);
  EXPECT_EQ(resolve_gate(false, 2, 4), GateMode::kMeasured);
  EXPECT_STREQ(jit::gate_mode_name(GateMode::kMeasured), "measured");
  EXPECT_STREQ(jit::gate_mode_name(GateMode::kDispatch), "dispatch");
  EXPECT_STREQ(jit::gate_mode_name(GateMode::kSerial), "serial");
}

}  // namespace
}  // namespace glaf
