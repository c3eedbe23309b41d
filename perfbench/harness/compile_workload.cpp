// Phase `compile`: the glafc path from program build to first result.
//
// Items are {SARB at 60 levels, the FUN3D kernel program, the full FUN3D
// decomposition on a seeded mesh of the workload's size} x {interp
// serial, interp parallel, opt}.
// Each repetition runs every item cold (a new, empty kernel-cache
// namespace: emission, cc, publish, dlopen) and then warm kWarmPerCold
// times (same namespace, the object is a cache hit). The timed path is build -> validate ->
// Machine construction -> input load -> first call; the first result is
// checked against a reference that does not go through the compiler.
//
// The traced run also replays the Machine constructor's stages through
// the public functions it is built from (analyze_program, compile_plans,
// emit_kernel_unit, KernelCache::object_for, NativeEngine::load_compiled)
// on a second namespace, so the stage spans can be summed and compared
// against the end-to-end cold and warm times.

#include <memory>
#include <set>

#include "analysis/parallelize.hpp"
#include "core/validate.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/reference.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "fun3d/recon.hpp"
#include "interp/native_options.hpp"
#include "interp/plan.hpp"
#include "jit/cache.hpp"
#include "jit/emit.hpp"
#include "jit/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "support/ulp.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace glaf;

namespace {

/// The stage accounting tolerance: the replayed stage spans must sum to
/// within this share of the end-to-end cold and warm times.
constexpr double kAccountingTolerance = 0.20;

/// Warm starts per cold start. A warm start costs about 1% of a cold one
/// (no cc), so the few repetitions that fit in the phase would leave its
/// per-item median to a handful of samples.
constexpr int kWarmPerCold = 5;

enum class Prog { kSarb, kFun3d, kFun3dFull };

const char* prog_name(Prog p) {
  switch (p) {
    case Prog::kSarb:
      return "sarb";
    case Prog::kFun3d:
      return "fun3d";
    case Prog::kFun3dFull:
      return "fun3d_full";
  }
  return "?";
}

const char* entry_of(Prog p) {
  switch (p) {
    case Prog::kSarb:
      return "entropy_interface";
    case Prog::kFun3d:
      return "edge_scatter";
    case Prog::kFun3dFull:
      return "edgejp";
  }
  return "?";
}

/// Seeded inputs and the references the first results are checked
/// against: the hand-written SARB and FUN3D originals, and the plan VM
/// for the small FUN3D program (which has no separate original).
struct Inputs {
  fuliou::AtmosphereProfile profile;
  fuliou::SarbOutputs sarb_ref;
  Fun3dSmallInputs small;
  std::unique_ptr<Machine> small_ref;
  fun3d::Mesh mesh;
  std::vector<double> full_ref;
};

Program build(Prog p, const Inputs& in) {
  switch (p) {
    case Prog::kSarb:
      return fuliou::build_sarb_program(kSarbLevels);
    case Prog::kFun3d:
      return fun3d::build_fun3d_glaf_program();
    case Prog::kFun3dFull:
      return fun3d::build_fun3d_full_program(in.mesh);
  }
  return {};
}

Status load(Prog p, Machine& m, const Inputs& in) {
  switch (p) {
    case Prog::kSarb:
      return fuliou::load_profile(m, in.profile);
    case Prog::kFun3d:
      return load_fun3d_small(m, in.small);
    case Prog::kFun3dFull:
      return fun3d::load_mesh(m, in.mesh);
  }
  return Status::ok();
}

Inputs make_inputs(const RunContext& ctx) {
  const std::uint64_t seed = ctx.seed;
  Inputs in;
  in.profile = fuliou::make_profile(seed, kSarbLevels);
  in.sarb_ref = fuliou::run_reference(in.profile);
  in.small = make_fun3d_small_inputs(seed);
  in.small_ref = std::make_unique<Machine>(fun3d::build_fun3d_glaf_program());
  (void)load_fun3d_small(*in.small_ref, in.small);
  (void)in.small_ref->call(entry_of(Prog::kFun3d));
  in.mesh = fun3d::make_mesh(ctx.workload.fun3d_cells, seed);
  in.full_ref = fun3d::reconstruct_original(in.mesh).jac;
  return in;
}

/// Opt-tier tolerance against the references (interp tiers must be
/// exact). The spectral integrations and the Jacobian accumulation are
/// long multiply-add chains, so they get more ulp room.
Tolerance tolerance_for(Prog p, Engine e) {
  if (e != Engine::kOpt) return {};
  return opt_band(p == Prog::kFun3d ? 64 : 512);
}

bool vectors_close(const std::vector<double>& ref,
                   const std::vector<double>& got, const Tolerance& b,
                   std::string* where) {
  if (ref.size() != got.size()) {
    *where = cat("size ", got.size(), " vs reference ", ref.size());
    return false;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!ulp_close(ref[i], got[i], b.max_ulp, b.rtol, b.atol)) {
      *where = cat("[", i, "] ", got[i], " vs reference ", ref[i]);
      return false;
    }
  }
  return true;
}

bool first_result_ok(Prog p, Engine e, const Machine& m, const Inputs& in,
                     std::string* where) {
  const Tolerance b = tolerance_for(p, e);
  switch (p) {
    case Prog::kSarb: {
      const fuliou::SarbOutputs got = fuliou::extract_outputs(m);
      const fuliou::SarbOutputs& ref = in.sarb_ref;
      const std::pair<const std::vector<double>*, const std::vector<double>*>
          fields[] = {{&ref.planck, &got.planck},
                      {&ref.lw_flux, &got.lw_flux},
                      {&ref.lw_entropy, &got.lw_entropy},
                      {&ref.sw_flux, &got.sw_flux},
                      {&ref.sw_entropy, &got.sw_entropy},
                      {&ref.adjusted_flux, &got.adjusted_flux},
                      {&ref.baseline, &got.baseline}};
      for (const auto& [r, g] : fields) {
        if (!vectors_close(*r, *g, b, where)) return false;
      }
      return vectors_close({ref.entropy_total}, {got.entropy_total}, b,
                           where);
    }
    case Prog::kFun3d: {
      std::uint64_t worst = 0;
      return globals_match(*in.small_ref, m, b, &worst, where);
    }
    case Prog::kFun3dFull: {
      const StatusOr<std::vector<double>> jac = fun3d::extract_jacobian(m);
      if (!jac.is_ok()) {
        *where = jac.status().message();
        return false;
      }
      return vectors_close(in.full_ref, jac.value(), b, where);
    }
  }
  return false;
}

struct Item {
  Prog prog;
  Engine engine;
  [[nodiscard]] std::string label() const {
    return cat(prog_name(prog), ".",
               engine == Engine::kNative ? "serial" : engine_name(engine));
  }
};

/// One end-to-end start: its total and the stages it is made of.
struct Start {
  double total_ms = 0.0;
  double build_ms = 0.0;  ///< program build + validation
  double machine_ms = 0.0;
  double inputs_ms = 0.0;
  double first_call_ms = 0.0;
};

/// The replayed Machine-constructor stages of one item.
struct Replay {
  double analyze_ms = 0.0;
  double plans_ms = 0.0;
  double emit_ms = 0.0;
  double emit_kb = 0.0;
  double cc_ms = 0.0;
  double hit_ms = 0.0;
  double load_ms = 0.0;
  double pool_ms = 0.0;
};

struct ItemSamples {
  std::vector<Start> cold, warm;
  std::vector<double> cold_traced, cold_untraced, warm_traced, warm_untraced;
  std::vector<Replay> replays;
};

/// Build to first result on `cache_dir`; the result is checked outside
/// the timed interval.
Start start_once(const Item& item, const std::string& cache_dir,
                 const RunContext& ctx, const Inputs& in, Result& res,
                 bool cold) {
  Start s;
  std::string why;
  bool ok = true;
  std::unique_ptr<Machine> m;
  {
    ScopedSpan span(cold ? "bench.cold_start" : "bench.warm_start");
    const std::int64_t t0 = now_ns();
    Program program;
    s.build_ms = timed_ms("core.build", [&] { program = build(item.prog, in); });
    s.build_ms += timed_ms("core.validate", [&] {
      ok = is_valid(validate(program));
    });
    s.machine_ms = timed_ms("interp.machine", [&] {
      m = std::make_unique<Machine>(
          std::move(program),
          engine_options(item.engine, ctx.threads, cache_dir));
    });
    s.inputs_ms = timed_ms("interp.inputs", [&] {
      ok = load(item.prog, *m, in).is_ok() && ok;
    });
    StatusOr<double> r = 0.0;
    s.first_call_ms = timed_ms("interp.first_call",
                               [&] { r = m->call(entry_of(item.prog)); });
    s.total_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (!r.is_ok()) {
      ok = false;
      why = r.status().message();
    }
  }
  if (!ok && why.empty()) why = "program invalid or inputs refused";
  if (ok && !native_ok(*m, &why)) ok = false;
  if (ok && cold == m->native_report().cache_hit) {
    ok = false;
    why = cold ? "cold start hit the cache" : "warm start missed the cache";
  }
  if (ok && !first_result_ok(item.prog, item.engine, *m, in, &why)) {
    ok = false;
  }
  res.check(ok, cat(item.label(), cold ? " cold: " : " warm: ", why));
  return s;
}

/// The emission knobs of `o`, as NativeEngine::compile_object passes them
/// to emit_kernel_unit; `parallel` is the kernel's resolved mode.
jit::EmitOptions emit_options(const jit::NativeEngine::Options& o,
                              bool parallel) {
  jit::EmitOptions e;
  e.parallel = parallel;
  e.policy = o.policy;
  e.save_temporaries = o.save_temporaries;
  e.dynamic_schedule = o.dynamic_schedule;
  e.schedule_chunk = o.schedule_chunk;
  e.fuse_regions = o.fuse_regions;
  e.model = o.model;
  return e;
}

/// Replay the Machine constructor's stages for `item`. `warm_dir` already
/// holds the item's object (its compile identity is read back from it);
/// the cc and cache-hit stages run against a new namespace.
Replay replay_once(const Item& item, const std::string& warm_dir,
                   const RunContext& ctx, const Inputs& in, Result& res) {
  Replay r;
  ScopedSpan span("bench.replay");
  const Program program = build(item.prog, in);
  ProgramAnalysis analysis;
  r.analyze_ms = timed_ms("analysis.analyze",
                          [&] { analysis = analyze_program(program); });
  std::set<GridId> atomics;
  for (const auto& [fn, verdicts] : analysis.verdicts) {
    for (const StepVerdict& v : verdicts) {
      atomics.insert(v.atomic_grids.begin(), v.atomic_grids.end());
    }
  }
  r.plans_ms = timed_ms("interp.build", [&] {
    (void)interp::compile_plans(program, analysis, atomics);
  });
  std::unique_ptr<ThreadPool> pool;
  if (item.engine == Engine::kParallel) {
    r.pool_ms = timed_ms("runtime.pool_create", [&] {
      pool = std::make_unique<ThreadPool>(ctx.threads);
    });
  }
  // The jit options the timed path's Machine resolved, from the same
  // mapping its constructor uses.
  const jit::NativeEngine::Options options = native_engine_options(
      engine_options(item.engine, ctx.threads, warm_dir), nullptr);
  // Compile identity (cc, flags, cache-key config) exactly as the engine
  // resolves it: a cache hit on the namespace the warm start populated.
  StatusOr<jit::CompiledKernel> known =
      jit::NativeEngine::compile_object(program, analysis, options);
  if (!known.is_ok() || !known.value().cache_hit) {
    res.check(false, cat(item.label(), " replay: compile identity lookup ",
                         known.is_ok() ? "missed the cache"
                                       : known.status().message()));
    return r;
  }
  jit::CompiledKernel ck = std::move(known).value();

  const jit::EmitOptions eopts = emit_options(options, ck.parallel);
  StatusOr<jit::KernelUnit> unit = jit::KernelUnit{};
  r.emit_ms = timed_ms("jit.emit", [&] {
    unit = jit::emit_kernel_unit(program, analysis, eopts);
  });
  const bool same_source =
      unit.is_ok() && unit.value().source == ck.unit.source;
  r.emit_kb = static_cast<double>(ck.unit.source.size()) / 1024.0;

  const std::string dir = ctx.fresh_cache_dir();
  jit::KernelCache cache(dir);
  bool hit = true;
  StatusOr<std::string> object = std::string();
  r.cc_ms = timed_ms("jit.cc", [&] {
    object = cache.object_for(ck.unit.source, ck.cc, ck.flags, &hit,
                              ck.config);
  });
  const bool miss_ok = object.is_ok() && !hit;
  bool hit_again = false;
  r.hit_ms = timed_ms("jit.cache.hit", [&] {
    object = cache.object_for(ck.unit.source, ck.cc, ck.flags, &hit_again,
                              ck.config);
  });
  bool loaded = false;
  if (object.is_ok()) {
    ck.object_path = object.value();
    ck.cache_dir = dir;
    ck.cache_hit = true;
    StatusOr<std::unique_ptr<jit::NativeEngine>> engine =
        std::unique_ptr<jit::NativeEngine>();
    const jit::NativeEngine::Options load_options = native_engine_options(
        engine_options(item.engine, ctx.threads, dir), pool.get());
    r.load_ms = timed_ms("jit.load", [&] {
      engine = jit::NativeEngine::load_compiled(std::move(ck), load_options);
    });
    loaded = engine.is_ok();
  }
  res.check(same_source && miss_ok && hit_again && loaded,
            cat(item.label(), " replay: source ",
                same_source ? "same" : "differs", ", miss ",
                miss_ok ? "ok" : "failed", ", hit ", hit_again ? "ok" : "failed",
                ", load ", loaded ? "ok" : "failed"));
  return r;
}

double med(const std::vector<Start>& v, double Start::*field) {
  std::vector<double> x;
  for (const Start& s : v) x.push_back(s.*field);
  return median(x);
}

double med(const std::vector<Replay>& v, double Replay::*field) {
  std::vector<double> x;
  for (const Replay& r : v) x.push_back(r.*field);
  return median(x);
}

}  // namespace

Result run_compile(const RunContext& ctx) {
  Result res;
  std::vector<double> setups;
  Inputs in;
  // Set-up here takes about a millisecond, so it is repeated more often
  // than the other workloads' for a steady median.
  for (int i = 0; i < ctx.setup_repeats(15); ++i) {
    const std::int64_t t0 = now_ns();
    in = make_inputs(ctx);
    (void)compiler_identity(default_cc());
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  res.e2e("setup_s", median(setups), "s");

  std::vector<Item> items;
  for (const Prog p : {Prog::kSarb, Prog::kFun3d, Prog::kFun3dFull}) {
    for (const Engine e : {Engine::kNative, Engine::kParallel, Engine::kOpt}) {
      items.push_back({p, e});
    }
  }
  std::vector<ItemSamples> samples(items.size());
  jit::reset_kernel_cache_stats();

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(ctx.seconds * 1e9);
  const int min_reps = ctx.trace ? 2 : 1;
  for (int rep = 0; rep < min_reps || now_ns() < deadline; ++rep) {
    // The traced run alternates traced and untraced repetitions so the
    // tracing overhead can be read off the same run.
    const bool traced = ctx.trace && rep % 2 == 1;
    Tracer::get().set_enabled(traced);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string dir = ctx.fresh_cache_dir();
      ItemSamples& s = samples[i];
      s.cold.push_back(start_once(items[i], dir, ctx, in, res, true));
      (traced ? s.cold_traced : s.cold_untraced)
          .push_back(s.cold.back().total_ms);
      for (int w = 0; w < kWarmPerCold; ++w) {
        s.warm.push_back(start_once(items[i], dir, ctx, in, res, false));
        (traced ? s.warm_traced : s.warm_untraced)
            .push_back(s.warm.back().total_ms);
      }
      if (traced) s.replays.push_back(replay_once(items[i], dir, ctx, in, res));
    }
  }
  Tracer::get().set_enabled(false);

  std::vector<double> cold, warm;
  const auto totals = [](const std::vector<Start>& starts) {
    std::vector<double> ms;
    for (const Start& s : starts) ms.push_back(s.total_ms);
    return ms;
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    cold.push_back(iq_mean(totals(samples[i].cold)));
    warm.push_back(iq_mean(totals(samples[i].warm)));
    res.notes[cat("cold_ms.", items[i].label())] = cold.back();
    res.notes[cat("warm_ms.", items[i].label())] = warm.back();
  }
  res.e2e("cold_start_ms", geomean(cold), "ms");
  res.e2e("warm_start_ms", geomean(warm), "ms");
  res.notes["repetitions"] = static_cast<double>(samples[0].cold.size());

  if (ctx.trace) {
    std::vector<double> analyze, plans, emit, kb, cc, hit, load, first, core;
    std::vector<double> cold_ratio, warm_ratio;
    std::vector<double> ct, cu, wt, wu;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const ItemSamples& s = samples[i];
      const Replay r{med(s.replays, &Replay::analyze_ms),
                     med(s.replays, &Replay::plans_ms),
                     med(s.replays, &Replay::emit_ms),
                     med(s.replays, &Replay::emit_kb),
                     med(s.replays, &Replay::cc_ms),
                     med(s.replays, &Replay::hit_ms),
                     med(s.replays, &Replay::load_ms),
                     med(s.replays, &Replay::pool_ms)};
      analyze.push_back(r.analyze_ms);
      plans.push_back(r.plans_ms);
      emit.push_back(r.emit_ms);
      kb.push_back(r.emit_kb);
      cc.push_back(r.cc_ms);
      hit.push_back(r.hit_ms);
      load.push_back(r.load_ms);
      std::vector<double> calls;
      for (const Start& st : s.cold) calls.push_back(st.first_call_ms);
      for (const Start& st : s.warm) calls.push_back(st.first_call_ms);
      first.push_back(median(calls));
      core.push_back(med(s.cold, &Start::build_ms));
      // Stage sums: the timed path's own stages plus the replayed
      // Machine-constructor stages in place of the constructor span.
      const double machine_common =
          r.analyze_ms + r.plans_ms + r.emit_ms + r.load_ms + r.pool_ms;
      const double cold_sum = med(s.cold, &Start::build_ms) +
                              med(s.cold, &Start::inputs_ms) +
                              med(s.cold, &Start::first_call_ms) +
                              machine_common + r.cc_ms;
      const double warm_sum = med(s.warm, &Start::build_ms) +
                              med(s.warm, &Start::inputs_ms) +
                              med(s.warm, &Start::first_call_ms) +
                              machine_common + r.hit_ms;
      cold_ratio.push_back(cold_sum / cold[i]);
      warm_ratio.push_back(warm_sum / warm[i]);
      res.notes[cat("machine_ms.warm.", items[i].label())] =
          med(s.warm, &Start::machine_ms);
      res.notes[cat("machine_ms.replayed.", items[i].label())] =
          machine_common + r.hit_ms;
      res.notes[cat("stage_sum_over_cold.", items[i].label())] =
          cold_ratio.back();
      res.notes[cat("stage_sum_over_warm.", items[i].label())] =
          warm_ratio.back();
      ct.push_back(iq_mean(s.cold_traced));
      cu.push_back(iq_mean(s.cold_untraced));
      wt.push_back(iq_mean(s.warm_traced));
      wu.push_back(iq_mean(s.warm_untraced));
    }
    res.layer("core.build_ms", geomean(core), "ms");
    res.layer("analysis.analyze_ms", geomean(analyze), "ms");
    res.layer("interp.build_ms", geomean(plans), "ms");
    res.layer("jit.emit_ms", geomean(emit), "ms");
    res.layer("jit.emit_kb", geomean(kb), "KiB");
    res.layer("jit.cc_ms", geomean(cc), "ms");
    res.layer("jit.cache.hit_ms", geomean(hit), "ms");
    res.layer("jit.load_ms", geomean(load), "ms");
    res.layer("interp.first_call_ms", geomean(first), "ms");
    const jit::KernelCacheStats cs = jit::kernel_cache_stats();
    res.layer("jit.cache.compiles", static_cast<double>(cs.compiles), "count");
    res.layer("jit.cache.hits", static_cast<double>(cs.hits), "count");
    res.layer("jit.cache.misses", static_cast<double>(cs.misses), "count");
    const double cold_acc = geomean(cold_ratio);
    const double warm_acc = geomean(warm_ratio);
    res.layer("compile.stage_sum_over_cold", cold_acc, "ratio");
    res.layer("compile.stage_sum_over_warm", warm_acc, "ratio");
    res.check(std::abs(cold_acc - 1.0) <= kAccountingTolerance,
              cat("cold stage spans sum to ", cold_acc,
                  "x cold_start_ms (tolerance ", kAccountingTolerance, ")"));
    res.check(std::abs(warm_acc - 1.0) <= kAccountingTolerance,
              cat("warm stage spans sum to ", warm_acc,
                  "x warm_start_ms (tolerance ", kAccountingTolerance, ")"));
    res.layer("trace.overhead.cold_start_ms", geomean(ct) - geomean(cu), "ms");
    res.layer("trace.overhead.warm_start_ms", geomean(wt) - geomean(wu), "ms");
  }
  return res;
}

}  // namespace perfbench
