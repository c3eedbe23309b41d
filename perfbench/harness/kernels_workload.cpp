// Phase `kernels`: steady-state calls on warm Machines, with no compile
// and no transport inside the timed loop.
//
// Kernels: the six SARB Table-1 subroutines at the workload's level count,
// FUN3D edge_scatter and smooth_q, and the full FUN3D edgejp (whose call
// tree runs cell_loop -> edge_loop) on the workload's mesh. Engines: plan
// VM, serial native (interp tier), serial opt, and gated parallel native
// at `threads` threads.
//
// Before timing, every kernel runs once on every engine from the same
// post-load state: native and parallel native must match the plan VM
// bitwise, opt within a per-kernel ulp budget. The timed loop then
// interleaves short slices of calls over all (kernel, engine) pairs in
// seeded order until the run's time is spent, timing every call. The
// kernels update their own inputs, so repeated calls drift toward cheaper
// or dearer values; every slice therefore starts from the post-load state
// (restored outside the timed interval) and has a power-of-two length, so
// runs time the same sequence of states. A parallel slice starts with one
// untimed call that wakes the pool's parked workers.

#include <algorithm>
#include <memory>
#include <numeric>

#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace glaf;

namespace {

constexpr Engine kEngines[] = {Engine::kPlan, Engine::kNative, Engine::kOpt,
                               Engine::kParallel};
/// Target wall time of one round over all pairs, and the per-slice call
/// cap that keeps each slice near the post-load state.
constexpr double kRoundMs = 250.0;
constexpr std::int64_t kMaxSliceCalls = 256;
/// p90 needs at least this many calls per kernel.
constexpr std::size_t kMinParallelCalls = 100;

/// Opt-tier tolerance against the plan VM for one kernel: the ulp
/// budgets of tests/jit/opt_tier_test.cpp plus the opt band.
Tolerance opt_tolerance(const std::string& kernel) {
  if (kernel == "lw_spectral_integration" ||
      kernel == "sw_spectral_integration" || kernel == "edgejp") {
    return opt_band(512);
  }
  if (kernel == "shortwave_entropy_model") return opt_band(256);
  return opt_band(64);
}

struct Suite {
  std::string name;
  std::vector<std::string> kernels;
  std::unique_ptr<Machine> machines[4];  ///< indexed like kEngines
};

struct Inputs {
  fuliou::AtmosphereProfile profile;
  Fun3dSmallInputs small;
  fun3d::Mesh mesh;
};

Status load(const std::string& suite, Machine& m, const Inputs& in) {
  if (suite == "sarb") return fuliou::load_profile(m, in.profile);
  if (suite == "fun3d") return load_fun3d_small(m, in.small);
  return fun3d::load_mesh(m, in.mesh);
}

/// Build inputs, programs and all machines on a new cache namespace.
std::vector<Suite> setup_once(const RunContext& ctx, Inputs& in,
                              Result& res) {
  in.profile = fuliou::make_profile(ctx.seed, ctx.workload.sarb_levels);
  in.small = make_fun3d_small_inputs(ctx.seed);
  in.mesh = fun3d::make_mesh(ctx.workload.fun3d_cells, ctx.seed);
  const std::string dir = ctx.fresh_cache_dir();
  std::vector<Suite> suites(3);
  suites[0].name = "sarb";
  suites[0].kernels = fuliou::table1_subroutines();
  suites[1].name = "fun3d";
  suites[1].kernels = {"edge_scatter", "smooth_q"};
  suites[2].name = "fun3d_full";
  suites[2].kernels = {"edgejp"};
  const Program programs[] = {
      fuliou::build_sarb_program(ctx.workload.sarb_levels),
      fun3d::build_fun3d_glaf_program(),
      fun3d::build_fun3d_full_program(in.mesh)};
  for (std::size_t s = 0; s < suites.size(); ++s) {
    for (std::size_t e = 0; e < 4; ++e) {
      auto m = std::make_unique<Machine>(
          programs[s], engine_options(kEngines[e], ctx.threads, dir));
      const Status loaded = load(suites[s].name, *m, in);
      std::string why = loaded.message();
      const bool ok = loaded.is_ok() &&
                      (kEngines[e] == Engine::kPlan || native_ok(*m, &why));
      res.check(ok, cat("setup ", suites[s].name, "/",
                        engine_name(kEngines[e]), ": ", why));
      suites[s].machines[e] = std::move(m);
    }
  }
  return suites;
}

using Snapshot = std::vector<std::pair<const Grid*, std::vector<double>>>;

Snapshot snapshot(const Machine& m) {
  Snapshot snap;
  for (const GridId id : m.program().global_grids) {
    const Grid& g = m.program().grid(id);
    if (g.is_struct()) continue;
    snap.emplace_back(&g, m.array(g.name).value());
  }
  return snap;
}

void restore(Machine& m, const Snapshot& snap) {
  for (const auto& [g, data] : snap) {
    if (g->is_scalar()) {
      (void)m.set_scalar(g->name, data.at(0));
    } else {
      (void)m.set_array(g->name, data);
    }
  }
}

struct PairSamples {
  std::vector<double> us;  ///< per-call wall time
  std::vector<double> traced_us, untraced_us;
  double est_us = 1.0;     ///< per-call estimate for slice sizing
  std::uint64_t native_calls = 0, regions = 0, gated = 0;
};

}  // namespace

Result run_kernels(const RunContext& ctx) {
  Result res;
  Inputs in;
  std::vector<Suite> suites;
  std::vector<double> setups;
  for (int i = 0; i < ctx.setup_repeats(); ++i) {
    suites.clear();
    const std::int64_t t0 = now_ns();
    suites = setup_once(ctx, in, res);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  res.e2e("setup_s", median(setups), "s");

  // ---- checks at benchmark size, from the same post-load state.
  struct Pair {
    std::size_t suite, kernel, engine;
  };
  std::vector<Pair> pairs;
  std::vector<PairSamples> samples;
  std::vector<std::vector<Snapshot>> loaded;  ///< [suite][engine]
  for (std::size_t s = 0; s < suites.size(); ++s) {
    Suite& su = suites[s];
    std::vector<Snapshot>& snaps = loaded.emplace_back();
    for (auto& m : su.machines) snaps.push_back(snapshot(*m));
    for (std::size_t k = 0; k < su.kernels.size(); ++k) {
      const std::string& kernel = su.kernels[k];
      double call_us[4] = {};
      bool calls_ok = true;
      for (std::size_t e = 0; e < 4; ++e) {
        restore(*su.machines[e], snaps[e]);
        const std::int64_t t0 = now_ns();
        calls_ok = su.machines[e]->call(kernel).is_ok() && calls_ok;
        call_us[e] = static_cast<double>(now_ns() - t0) * 1e-3;
      }
      res.check(calls_ok, cat(su.name, ".", kernel, ": a check call failed"));
      for (std::size_t e = 1; e < 4; ++e) {
        const bool opt = kEngines[e] == Engine::kOpt;
        std::uint64_t worst = 0;
        std::string where;
        const bool same = globals_match(
            *su.machines[0], *su.machines[e],
            opt ? opt_tolerance(kernel) : Tolerance{}, &worst, &where);
        res.check(same, cat(su.name, ".", kernel, " ",
                            engine_name(kEngines[e]), " vs plan: ", where));
        if (opt) {
          res.layer(cat("interp.opt_max_ulp.", kernel),
                    static_cast<double>(worst), "count");
        }
      }
      for (std::size_t e = 0; e < 4; ++e) {
        pairs.push_back({s, k, e});
        PairSamples ps;
        ps.est_us = std::max(call_us[e], 0.05);
        samples.push_back(ps);
      }
    }
    for (std::size_t e = 0; e < 4; ++e) restore(*su.machines[e], snaps[e]);
  }

  // ---- timed loop: rounds of short slices over every pair.
  SplitMix64 rng(ctx.seed ^ 0x6b65726e656c73ULL);
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  const double slice_us = kRoundMs * 1e3 / static_cast<double>(pairs.size());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  CpuRotation cpus(CpuRotation::Scope::kCallingThread);
  int round = 0;
  for (; round < 2 || now_ns() < deadline; ++round) {
    const bool traced = ctx.trace && round % 2 == 1;
    Tracer::get().set_enabled(traced);
    cpus.pin(round);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (const std::size_t p : order) {
      const Pair& pr = pairs[p];
      PairSamples& ps = samples[p];
      Machine& m = *suites[pr.suite].machines[pr.engine];
      const std::string& kernel = suites[pr.suite].kernels[pr.kernel];
      const bool parallel = kEngines[pr.engine] == Engine::kParallel;
      std::int64_t n = parallel ? 4 : 1;
      while (n < kMaxSliceCalls &&
             static_cast<double>(2 * n) * ps.est_us <= slice_us) {
        n *= 2;
      }
      restore(m, loaded[pr.suite][pr.engine]);
      // One untimed call first wakes the parallel engine's parked pool
      // workers: the timed calls are steady-state calls.
      if (parallel) (void)m.call(kernel);
      const NativeReport before = m.native_report();
      std::uint64_t bad = 0;
      std::vector<double>& bucket = traced ? ps.traced_us : ps.untraced_us;
      {
        ScopedSpan span(pr.engine == 0   ? "interp.slice.plan"
                        : pr.engine == 1 ? "interp.slice.native"
                        : pr.engine == 2 ? "interp.slice.opt"
                                         : "interp.slice.parallel");
        for (std::int64_t c = 0; c < n; ++c) {
          const std::int64_t t0 = now_ns();
          const bool ok = m.call(kernel).is_ok();
          const double us = static_cast<double>(now_ns() - t0) * 1e-3;
          bad += ok ? 0 : 1;
          ps.us.push_back(us);
          bucket.push_back(us);
        }
      }
      ps.est_us = std::max(0.05, median(std::vector<double>(
                                     ps.us.end() - std::min<std::int64_t>(
                                                       n, 64),
                                     ps.us.end())));
      const NativeReport& after = m.native_report();
      ps.native_calls += after.native_calls - before.native_calls;
      ps.regions += after.parallel_regions - before.parallel_regions;
      ps.gated += after.gated_serial_regions - before.gated_serial_regions;
      const std::uint64_t fell_back =
          after.fallback_calls - before.fallback_calls;
      res.attempted += static_cast<std::uint64_t>(n);
      res.failed += std::max(bad, fell_back);
      if ((bad > 0 || fell_back > 0) && res.failures.size() < 20) {
        res.failures.push_back(cat(suites[pr.suite].name, ".", kernel, "/",
                                   engine_name(kEngines[pr.engine]), ": ",
                                   bad, " failed call(s), ", fell_back,
                                   " fallback(s)"));
      }
    }
  }
  Tracer::get().set_enabled(false);
  res.notes["rounds"] = round;

  // Parallel p90 needs a floor of calls per kernel.
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (kEngines[pairs[p].engine] != Engine::kParallel) continue;
    Machine& m = *suites[pairs[p].suite].machines[pairs[p].engine];
    const std::string& kernel =
        suites[pairs[p].suite].kernels[pairs[p].kernel];
    while (samples[p].us.size() < kMinParallelCalls) {
      restore(m, loaded[pairs[p].suite][pairs[p].engine]);
      const std::int64_t t0 = now_ns();
      res.check(m.call(kernel).is_ok(), kernel + "/parallel top-up call");
      samples[p].us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }

  std::vector<double> by_engine[4], p90, traced[4], untraced[4];
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const Pair& pr = pairs[p];
    const PairSamples& ps = samples[p];
    const std::string& suite = suites[pr.suite].name;
    const std::string& kernel = suites[pr.suite].kernels[pr.kernel];
    const double call_us = iq_mean(ps.us);
    by_engine[pr.engine].push_back(call_us);
    traced[pr.engine].push_back(iq_mean(ps.traced_us));
    untraced[pr.engine].push_back(iq_mean(ps.untraced_us));
    res.layer(cat("interp.call_us.", suite, ".", kernel, ".",
                  engine_name(kEngines[pr.engine])),
              call_us, "us");
    if (kEngines[pr.engine] == Engine::kParallel) {
      p90.push_back(quantile(ps.us, 0.9));
      const double calls =
          static_cast<double>(std::max<std::uint64_t>(ps.native_calls, 1));
      res.layer(cat("runtime.regions_per_call.", kernel),
                static_cast<double>(ps.regions) / calls, "count");
      res.layer(cat("runtime.gated_per_call.", kernel),
                static_cast<double>(ps.gated) / calls, "count");
    }
    res.notes[cat("calls.", suite, ".", kernel, ".",
                  engine_name(kEngines[pr.engine]))] =
        static_cast<double>(ps.us.size());
  }
  // The plan VM's figure is a per-layer one: its calls are the most
  // memory-bound, and on a shared virtual machine they slowed by up to a
  // third from one run to the next with the host's load, twice as much as
  // the native engines'. The p90 is per layer too: it follows the calls a
  // stolen vCPU holds up, not the code.
  const char* names[] = {"interp.plan_us", "kernel_native_us",
                         "kernel_opt_us", "kernel_parallel_us"};
  res.layer(names[0], geomean(by_engine[0]), "us");
  for (std::size_t e = 1; e < 4; ++e) {
    res.e2e(names[e], geomean(by_engine[e]), "us");
  }
  res.layer("interp.parallel_p90_us", geomean(p90), "us");

  if (ctx.trace) {
    for (std::size_t e = 0; e < 4; ++e) {
      res.layer(cat("trace.overhead.", names[e]),
                geomean(traced[e]) - geomean(untraced[e]), "us");
    }
    // Fork/join cost of the runtime's pool with no work in the region.
    ThreadPool pool(ctx.threads);
    std::vector<double> fork_join;
    Tracer::get().set_enabled(true);
    {
      ScopedSpan span("runtime.fork_join");
      for (int i = 0; i < 4000; ++i) {
        const std::int64_t t0 = now_ns();
        pool.parallel_for(ctx.threads, [](int, std::int64_t, std::int64_t) {});
        fork_join.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
    }
    Tracer::get().set_enabled(false);
    res.layer("runtime.fork_join_us", median(fork_join), "us");
  }
  return res;
}

}  // namespace perfbench
