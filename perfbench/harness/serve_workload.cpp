// Phase `serve`: an in-process serve::Server (threads = `threads`)
// serving one SARB session at 60 levels that has settled at the
// native-interp tier, driven over its Unix socket by a seeded mix of
// Table-1 entries. The `paper` workload weights the mix toward the cheap
// per-level entries, so the serve stack rather than kernel compute does
// most of the work; `large` weights it toward the spectral integrations.
// Server and load run on one CPU at a time, the next one each round (see
// run_serve).
//
// Phases, repeated in rounds (see kRoundS):
//   (a) closed loop: `threads` connections sending single runs back to
//       back -> serve.closed_p50_ms per request, serve.qps;
//   (b) open loop: one connection sending single runs due at
//       kOpenLoopRate, each timed from its due time (not its send time),
//       with the generator's lateness kept -> serve.open_p50_ms,
//       serve.p99_ms;
//   (c) kRunBatch frames of kBatchSize runs, one at a time on one
//       connection -> serve_batch_ms per frame, serve.batch_qps.
// Each latency is the geometric mean over mix entries of that entry's
// median (p50) or interquartile mean (serve_batch_ms; see ByEntry and
// iq_mean). Only the batch frame time is an end-to-end metric. A
// single request takes some 20-50 us, most of it context switches, and
// on a shared virtual machine their cost moved the (a) and (b) medians by
// 20-40% from one run to the next; rates and tails moved more.
// Every reply must come from the native-interp tier, without a typed
// error, and carry the plan VM's return value. The Table-1 entries are
// subroutines, whose return value is always 0.0, so the computed state is
// checked on the session's own pooled instances instead: before the load
// (which also loads the seeded atmosphere, so the load runs on real data)
// and after it, each instance is reset to that atmosphere, runs every mix
// entry, and must match the plan VM bitwise in every global after each.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace glaf;

namespace {

/// The entry mix: Table-1 subroutines with a cheap weighting (the
/// per-level entries over the spectral integrations and
/// entropy_interface) and a heavy one (the other way round).
struct MixEntry {
  const char* name;
  int cheap_weight;
  int heavy_weight;
};
constexpr MixEntry kMix[] = {
    {"adjust2", 4, 1},
    {"shortwave_entropy_model", 4, 1},
    {"sw_spectral_integration", 2, 4},
    {"lw_spectral_integration", 1, 4},
    {"longwave_entropy_model", 1, 2},
    {"entropy_interface", 1, 2},
};

class MixStream {
 public:
  MixStream(const RunContext& ctx, std::uint64_t seed)
      : heavy_(ctx.workload.heavy_mix), rng_(seed) {}
  std::size_t next() {
    int total = 0;
    for (const MixEntry& m : kMix) total += weight(m);
    auto pick = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(total)));
    for (std::size_t i = 0; i < std::size(kMix); ++i) {
      if (pick < weight(kMix[i])) return i;
      pick -= weight(kMix[i]);
    }
    return 0;
  }

 private:
  [[nodiscard]] int weight(const MixEntry& m) const {
    return heavy_ ? m.heavy_weight : m.cheap_weight;
  }
  bool heavy_;
  SplitMix64 rng_;
};

/// Latency samples per mix entry. The entries' costs differ several
/// times over, so a statistic of all samples together depends on each
/// entry's share of the seeded mix; the geometric mean over entries of
/// each entry's statistic does not.
struct ByEntry {
  std::vector<double> ms[std::size(kMix)];

  void merge(const ByEntry& o) {
    for (std::size_t e = 0; e < std::size(kMix); ++e) {
      ms[e].insert(ms[e].end(), o.ms[e].begin(), o.ms[e].end());
    }
  }
  /// Geometric mean over entries of `stat` (median or iq_mean).
  template <typename Stat>
  [[nodiscard]] double over_entries(Stat stat) const {
    std::vector<double> per_entry;
    for (const std::vector<double>& v : ms) {
      if (!v.empty()) per_entry.push_back(stat(v));
    }
    return geomean(per_entry);
  }
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The plan-VM reference for the served instances: a SARB machine with
/// the seeded profile loaded (`start`), one per mix entry that has then
/// called the entries in kMix order up to and including that one
/// (`after`), and each entry's return value as bits (`result`; 0.0 for
/// the Table-1 subroutines, so a reply's value alone proves little).
struct Golden {
  std::unique_ptr<Machine> start;
  std::vector<std::unique_ptr<Machine>> after;
  std::uint64_t result[std::size(kMix)] = {};
};

Golden make_golden(std::uint64_t seed, Result& res) {
  const fuliou::AtmosphereProfile profile =
      fuliou::make_profile(seed, kSarbLevels);
  const auto loaded = [&] {
    auto m = std::make_unique<Machine>(fuliou::build_sarb_program(kSarbLevels));
    res.check(fuliou::load_profile(*m, profile).is_ok(), "golden profile");
    return m;
  };
  Golden g;
  g.start = loaded();
  for (std::size_t i = 0; i < std::size(kMix); ++i) {
    g.after.push_back(loaded());
    for (std::size_t j = 0; j <= i; ++j) {
      const StatusOr<double> r = g.after[i]->call(kMix[j].name);
      res.check(r.is_ok(), cat("golden ", kMix[j].name));
      if (j == i) g.result[i] = bits_of(r.is_ok() ? r.value() : 0.0);
    }
  }
  return g;
}

struct Served {
  std::unique_ptr<serve::Server> server;
  std::string socket;
  std::uint64_t sid = 0;
  std::shared_ptr<serve::Session> session;
  double promote_ms = 0.0;
  Golden golden;
};

/// Set a leased instance's globals to the golden start state; false (with
/// the reason in *why) when it is not at native-interp or refuses a value.
bool reset_to_start(const Golden& g, serve::Lease& lease,
                    std::string* why) {
  if (lease.tier() != serve::Tier::kNativeInterp) {
    *why = cat("leased at tier ", static_cast<int>(lease.tier()));
    return false;
  }
  const Program& program = g.start->program();
  for (const GridId id : program.global_grids) {
    const Grid& grid = program.grid(id);
    if (grid.is_struct()) continue;
    const StatusOr<std::vector<double>> v = g.start->array(grid.name);
    if (!v.is_ok() ||
        !lease.machine().set_array(grid.name, v.value()).is_ok()) {
      *why = "cannot reset " + grid.name;
      return false;
    }
  }
  return true;
}

/// Lease `count` of the session's instances at once (`count` 0: every
/// idle one) and reset each to the golden start state. With `check`, each
/// then calls every mix entry in turn and is compared with the plan VM
/// bitwise in all globals after each call, and reset again. One operation
/// per instance; the instances go back to the pool holding real data.
void reset_instances(const Served& s, std::size_t count, Result& res,
                     const char* when, bool check) {
  const Golden& g = s.golden;
  if (count == 0) count = s.session->stats().pooled_idle;
  std::vector<serve::Lease> leases;
  for (std::size_t k = 0; k < count; ++k) {
    StatusOr<serve::Lease> l = s.session->acquire();
    res.check(l.is_ok(), cat("serve lease ", when));
    if (l.is_ok()) leases.push_back(std::move(l).value());
  }
  for (std::size_t k = 0; k < leases.size(); ++k) {
    Machine& m = leases[k].machine();
    std::string why;
    bool ok = reset_to_start(g, leases[k], &why);
    for (std::size_t e = 0; ok && check && e < std::size(kMix); ++e) {
      const StatusOr<double> r = m.call(kMix[e].name);
      std::uint64_t worst = 0;
      std::string where;
      if (!r.is_ok()) {
        why = cat(kMix[e].name, ": ", r.status().message());
        ok = false;
      } else if (!globals_match(*g.after[e], m, Tolerance{}, &worst,
                                &where)) {
        why = cat("after ", kMix[e].name, " differs from the plan VM: ",
                  where);
        ok = false;
      }
    }
    if (ok && check) {
      ok = native_ok(m, &why) && reset_to_start(g, leases[k], &why);
    }
    res.check(ok, cat("serve instance ", k, " ", when, ": ", why));
  }
}

/// Per-thread outcome counters, merged after each phase.
struct Tally {
  std::uint64_t attempted = 0, failed = 0, shed = 0;
  std::string first_failure;

  /// Count one reply; false when it failed.
  bool reply(const StatusOr<serve::RunReplyMsg>& r, std::uint64_t golden) {
    if (!r.is_ok()) return error(r.status());
    ++attempted;
    std::string why;
    if (r.value().tier !=
        static_cast<std::uint8_t>(serve::Tier::kNativeInterp)) {
      why = cat("served at tier ", static_cast<int>(r.value().tier),
                " (native fallback)");
    } else if (bits_of(r.value().result) != golden) {
      why = cat("reply ", r.value().result, " differs from the plan golden");
    }
    return why.empty() || fail(why);
  }
  /// Count one request answered with a typed error (always a failure).
  bool error(const Status& s) {
    ++attempted;
    if (s.code() == StatusCode::kBusy) ++shed;
    return fail("typed error: " + s.message());
  }
  bool fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
    return false;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

void account(Result& res, const Tally& t, const char* phase) {
  res.attempted += t.attempted;
  res.failed += t.failed;
  if (t.failed > 0 && res.failures.size() < 20) {
    res.failures.push_back(cat("serve ", phase, ": ", t.failed,
                               " failed, first: ", t.first_failure));
  }
}

/// Start a server on a new cache namespace and socket, load SARB, wait
/// for the native-interp promotion, compute the plan-VM golden, and
/// pre-build and check one pooled instance per possible concurrent lease.
Served setup_once(const RunContext& ctx, int index, Result& res) {
  Served s;
  s.socket = cat("serve", index, ".sock");  // relative: cwd is work_dir
  serve::Server::Options options;
  options.socket_path = s.socket;
  options.threads = ctx.threads;
  options.cache_dir = ctx.fresh_cache_dir();
  s.server = std::make_unique<serve::Server>(options);
  const Status started = s.server->start();
  res.check(started.is_ok(), "server start: " + started.message());
  if (!started.is_ok()) return s;

  serve::Client loader;
  const Status connected = loader.connect(s.socket);
  res.check(connected.is_ok(), "connect: " + connected.message());
  serve::ExecConfig config;
  config.target_tier = static_cast<std::uint8_t>(serve::Tier::kNativeInterp);
  const auto load = loader.load_builtin("sarb", config);
  res.check(load.is_ok(),
            "load: " + (load.is_ok() ? std::string() : load.status().message()));
  if (!load.is_ok()) return s;
  s.sid = load.value().session_id;
  s.server->compile_queue().wait_idle();
  s.session = s.server->registry().find(s.sid);
  const serve::SessionStats st = s.session->stats();
  const bool promoted = st.tier == serve::Tier::kNativeInterp &&
                        !st.promotions.empty();
  res.check(promoted, "session did not settle at native-interp: " +
                          st.compile_error);
  if (promoted) s.promote_ms = st.promotions.front().second * 1e3;
  s.golden = make_golden(ctx.seed, res);
  reset_instances(s, static_cast<std::size_t>(ctx.threads) + 1, res,
                  "before load", true);
  return s;
}

/// The phases run interleaved in rounds of kRoundS seconds (a, b, c in
/// each), and every figure is the median over rounds, so a stretch of
/// host contention moves a few rounds of every phase rather than all of
/// one phase. The open-loop generator spins kSpinNs before each due
/// time instead of sleeping through it.
constexpr double kRoundS = 1.0;
constexpr double kShareA = 0.35, kShareB = 0.40;
constexpr std::int64_t kSpinNs = 50000;

/// One round's rates and tail; the latency samples go to ByEntry.
struct RoundOut {
  double qps = 0.0;        ///< (a) successful replies per second
  double p99_ms = 0.0;     ///< (b) latency from due time
  double batch_qps = 0.0;  ///< (c) successful batched runs per second
};

/// Start `threads` workers after all have connected; returns the wall
/// time from the common start to the last worker's finish.
template <typename Body>
double run_workers(const Served& s, int threads, Body&& body, Tally& total) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> t_start{0};
  std::vector<std::thread> workers;
  std::vector<Tally> tallies(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      serve::Client client;
      const Status c = client.connect(s.socket);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Tally& tl = tallies[static_cast<std::size_t>(t)];
      if (!c.is_ok()) {
        ++tl.attempted;
        ++tl.failed;
        tl.first_failure = "connect: " + c.message();
        return;
      }
      body(t, client, tl, t_start.load(std::memory_order_acquire));
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  t_start.store(now_ns(), std::memory_order_release);
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  for (const Tally& t : tallies) total.merge(t);
  return static_cast<double>(now_ns() - t_start.load()) * 1e-9;
}

/// (a) `threads` connections sending single runs back to back; a failed
/// request counts as infinitely late.
void closed_loop(const Served& s, const RunContext& ctx, double seconds,
                 std::uint64_t salt, Tally& tally, RoundOut& out,
                 ByEntry& latency) {
  std::atomic<std::uint64_t> ok{0};
  std::vector<ByEntry> latency_ms(static_cast<std::size_t>(ctx.threads));
  const double elapsed = run_workers(
      s, ctx.threads,
      [&](int t, serve::Client& client, Tally& tl, std::int64_t t0) {
        MixStream mix(ctx, ctx.seed * 1000003 + salt * 101 +
                      static_cast<std::uint64_t>(t));
        const std::int64_t stop =
            t0 + static_cast<std::int64_t>(seconds * 1e9);
        std::uint64_t mine = 0;
        ByEntry& mine_ms = latency_ms[static_cast<std::size_t>(t)];
        while (now_ns() < stop) {
          const std::size_t e = mix.next();
          Tracer::get().set_request(salt << 32 | ++mine);
          ScopedSpan span("serve.client.run");
          const std::int64_t sent = now_ns();
          const bool good =
              tl.reply(client.run(s.sid, kMix[e].name), s.golden.result[e]);
          mine_ms.ms[e].push_back(
              good ? static_cast<double>(now_ns() - sent) * 1e-6
                   : std::numeric_limits<double>::infinity());
        }
        ok.fetch_add(tl.attempted - tl.failed);
      },
      tally);
  out.qps = static_cast<double>(ok.load()) / elapsed;
  for (const ByEntry& b : latency_ms) latency.merge(b);
}

/// (b) single runs due at kOpenLoopRate, each timed from its due time; a
/// failed or shed request counts as infinitely late. Appends each
/// request's generator lateness to `lag_ms`. One connection sends them:
/// its spin before each due time would otherwise take the one CPU from
/// another connection's request in flight.
void open_loop(const Served& s, const RunContext& ctx, double seconds,
               std::uint64_t salt, Tally& tally, RoundOut& out,
               ByEntry& latency, std::vector<double>& lag_ms,
               std::uint64_t& late) {
  const auto n = static_cast<std::uint64_t>(seconds * kOpenLoopRate);
  const double interval_ns = 1e9 / kOpenLoopRate;
  std::vector<double> latency_ms(n, 0.0), lag(n, 0.0);
  std::vector<std::size_t> entries(n);
  MixStream mix(ctx, ctx.seed * 7919 + salt);
  for (std::size_t& e : entries) e = mix.next();
  std::atomic<std::uint64_t> next{0};
  run_workers(
      s, 1,
      [&](int, serve::Client& client, Tally& tl, std::int64_t t0) {
        // Fine-grained sleeps: wake close to the due time, then spin.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (std::uint64_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
          const std::int64_t due =
              t0 +
              static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
          const std::int64_t early = due - now_ns() - kSpinNs;
          if (early > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(early));
          }
          while (now_ns() < due) {
          }
          lag[i] = static_cast<double>(now_ns() - due) * 1e-6;
          Tracer::get().set_request(salt << 32 | (i + 1));
          ScopedSpan span("serve.client.run");
          const bool ok = tl.reply(client.run(s.sid, kMix[entries[i]].name),
                                   s.golden.result[entries[i]]);
          latency_ms[i] = ok ? static_cast<double>(now_ns() - due) * 1e-6
                             : std::numeric_limits<double>::infinity();
        }
      },
      tally);
  for (std::uint64_t i = 0; i < n; ++i) {
    late += latency_ms[i] > kLatencyLimitMs ? 1 : 0;
    latency.ms[entries[i]].push_back(latency_ms[i]);
  }
  out.p99_ms = quantile(latency_ms, 0.99);
  lag_ms.insert(lag_ms.end(), lag.begin(), lag.end());
}

/// (c) kRunBatch frames of kBatchSize runs, one at a time on one
/// connection: two frames in flight would share the one CPU and time
/// each other. A frame's runs update the instance they lease, so every
/// frame starts from the golden start state (reset outside its time).
void batch_loop(const Served& s, const RunContext& ctx, double seconds,
                std::uint64_t salt, Tally& tally, RoundOut& out,
                ByEntry& frame_ms) {
  std::atomic<std::uint64_t> ok{0};
  const double elapsed = run_workers(
      s, 1,
      [&](int, serve::Client& client, Tally& tl, std::int64_t t0) {
        MixStream mix(ctx, ctx.seed * 15485863 + salt * 101);
        const std::int64_t stop =
            t0 + static_cast<std::int64_t>(seconds * 1e9);
        std::uint64_t frames = 0;
        Result resets;
        while (now_ns() < stop) {
          reset_instances(s, 0, resets, "reset", false);
          const std::size_t e = mix.next();
          Tracer::get().set_request(salt << 32 | ++frames);
          ScopedSpan span("serve.client.run_batch");
          const std::int64_t sent = now_ns();
          const auto reply =
              client.run_batch(s.sid, kMix[e].name, kBatchSize, 0, {});
          const double took_ms = static_cast<double>(now_ns() - sent) * 1e-6;
          const std::uint64_t failed_before = tl.failed;
          const std::uint64_t want = s.golden.result[e];
          for (std::uint32_t i = 0; i < kBatchSize; ++i) {
            if (!reply.is_ok()) {
              tl.error(reply.status());
            } else if (i < reply.value().results.size()) {
              tl.reply(reply.value().results[i], want);
            } else {
              tl.error(internal_error("short batch reply"));
            }
          }
          frame_ms.ms[e].push_back(tl.failed == failed_before
                                       ? took_ms
                                       : std::numeric_limits<double>::infinity());
        }
        ok.fetch_add(tl.attempted - tl.failed);
        tl.attempted += resets.attempted;
        tl.failed += resets.failed;
        if (tl.first_failure.empty() && !resets.failures.empty()) {
          tl.first_failure = resets.failures.front();
        }
      },
      tally);
  out.batch_qps = static_cast<double>(ok.load()) / elapsed;
}

/// Latencies of one phase over all rounds, untraced ([0]) and traced ([1]).
struct PhaseLatency {
  ByEntry by_trace[2];

  [[nodiscard]] ByEntry all() const {
    ByEntry a = by_trace[0];
    a.merge(by_trace[1]);
    return a;
  }
};

/// All rounds of one run's measurement.
struct Measured {
  std::vector<RoundOut> rounds;
  PhaseLatency closed, open, batch;
  std::vector<double> lag_ms;
  std::uint64_t late = 0;
  Tally a, b, c;

  [[nodiscard]] double med(double RoundOut::*field) const {
    std::vector<double> v;
    for (const RoundOut& r : rounds) v.push_back(r.*field);
    return median(v);
  }
};

/// The served kernels update their instances' state with every request,
/// so each phase of each round starts from the golden start state.
Measured measure(const Served& s, const RunContext& ctx, Result& res,
                 CpuRotation& cpus) {
  Measured m;
  const int rounds = std::max(2, static_cast<int>(ctx.seconds / kRoundS));
  const double len = ctx.seconds / rounds;
  for (int r = 0; r < rounds; ++r) {
    // The traced run alternates untraced and traced rounds so the
    // tracing overhead can be read off the same run.
    const bool traced = ctx.trace && r % 2 == 1;
    Tracer::get().set_enabled(traced);
    const auto salt = static_cast<std::uint64_t>(r) + 1;
    cpus.pin(r);
    RoundOut out;
    reset_instances(s, 0, res, "reset", false);
    closed_loop(s, ctx, len * kShareA, salt, m.a, out,
                m.closed.by_trace[traced]);
    reset_instances(s, 0, res, "reset", false);
    open_loop(s, ctx, len * kShareB, salt, m.b, out, m.open.by_trace[traced],
              m.lag_ms, m.late);
    batch_loop(s, ctx, len * (1.0 - kShareA - kShareB), salt, m.c, out,
               m.batch.by_trace[traced]);
    m.rounds.push_back(out);
  }
  Tracer::get().set_enabled(false);
  return m;
}

/// Idle single-connection round trips and the standalone stage costs of
/// the same requests: codec, lease, execute; transport is the residual.
void stage_breakdown(const Served& s, const RunContext& ctx, Result& res) {
  const int n = ctx.smoke ? 200 : 3000;
  std::vector<std::size_t> entries(static_cast<std::size_t>(n));
  MixStream mix(ctx, ctx.seed * 31 + 5);
  for (std::size_t& e : entries) e = mix.next();

  std::vector<double> rtt, codec, lease, execute;
  serve::Client client;
  res.check(client.connect(s.socket).is_ok(), "stage breakdown connect");
  Tally tally;
  for (int i = 0; i < n; ++i) {
    const std::size_t e = entries[static_cast<std::size_t>(i)];
    Tracer::get().set_request(static_cast<std::uint64_t>(i) + 1);
    StatusOr<serve::RunReplyMsg> r = serve::RunReplyMsg{};
    rtt.push_back(timed_ms("serve.client.rtt",
                           [&] { r = client.run(s.sid, kMix[e].name); }) *
                  1e3);
    tally.reply(r, s.golden.result[e]);
  }
  account(res, tally, "idle round trips");
  bool codec_ok = true;
  for (int i = 0; i < n; ++i) {
    const std::size_t e = entries[static_cast<std::size_t>(i)];
    codec.push_back(timed_ms("serve.codec", [&] {
      serve::RunEntryMsg req;
      req.session_id = s.sid;
      req.entry = kMix[e].name;
      serve::FrameDecoder in;
      const std::vector<std::uint8_t> wire = encode_frame(encode(req));
      codec_ok = in.feed(wire.data(), wire.size()).is_ok() && codec_ok;
      auto frame = in.next();
      codec_ok = frame.is_ok() && frame.value().has_value() &&
                 serve::decode_run_entry(*frame.value()).is_ok() && codec_ok;
      serve::RunReplyMsg rep;
      rep.tier = 1;
      serve::FrameDecoder out;
      const std::vector<std::uint8_t> back = encode_frame(encode(rep));
      codec_ok = out.feed(back.data(), back.size()).is_ok() && codec_ok;
      auto reply = out.next();
      codec_ok = reply.is_ok() && reply.value().has_value() &&
                 serve::decode_run_reply(*reply.value()).is_ok() && codec_ok;
    }) * 1e3);
  }
  res.check(codec_ok, "codec round trip");
  bool lease_ok = true;
  for (int i = 0; i < n; ++i) {
    lease.push_back(timed_ms("serve.lease", [&] {
      lease_ok = s.session->acquire().is_ok() && lease_ok;
    }) * 1e3);
  }
  res.check(lease_ok, "lease acquire");
  {
    StatusOr<serve::Lease> held = s.session->acquire();
    res.check(held.is_ok() && held.value().tier() == serve::Tier::kNativeInterp,
              "execute lease at native-interp");
    if (held.is_ok()) {
      Machine& m = held.value().machine();
      bool exec_ok = true;
      for (int i = 0; i < n; ++i) {
        const std::size_t e = entries[static_cast<std::size_t>(i)];
        execute.push_back(timed_ms("serve.execute", [&] {
          exec_ok = m.call(kMix[e].name).is_ok() && exec_ok;
        }) * 1e3);
      }
      res.check(exec_ok, "leased execute");
    }
  }
  const double rtt_us = median(rtt);
  const double codec_us = median(codec);
  const double lease_us = median(lease);
  const double execute_us = median(execute);
  const double transport_us = rtt_us - codec_us - lease_us - execute_us;
  res.layer("serve.client.rtt_us", rtt_us, "us");
  res.layer("serve.codec_us", codec_us, "us");
  res.layer("serve.lease_us", lease_us, "us");
  res.layer("serve.execute_us", execute_us, "us");
  res.layer("serve.transport_us", transport_us, "us");
  res.layer("serve.stage_share_known", (codec_us + lease_us + execute_us) / rtt_us,
            "ratio");
}

}  // namespace

Result run_serve(const RunContext& ctx) {
  // Server and load share one CPU at a time: a request handed between
  // threads on different vCPUs waits for the hypervisor to wake an idle
  // one, which puts the host's wake-up latency, not the server's code, in
  // every request time; on one CPU the hand-off is a context switch.
  CpuRotation cpus(CpuRotation::Scope::kAllThreads);  // outlives `served`
  cpus.pin(0);
  Result res;
  std::vector<double> setups, promote;
  Served served;
  for (int i = 0; i < ctx.setup_repeats(); ++i) {
    served = Served{};  // stops the previous server first
    const std::int64_t t0 = now_ns();
    served = setup_once(ctx, i, res);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    promote.push_back(served.promote_ms);
  }
  res.e2e("setup_s", median(setups), "s");
  if (served.session == nullptr) return res;

  const serve::Batcher::Stats b0 = served.server->batcher().stats();
  const std::uint64_t created0 = served.session->stats().instances_created;
  const Measured m = measure(served, ctx, res, cpus);
  const serve::Batcher::Stats b1 = served.server->batcher().stats();
  res.notes["instances_created_under_load"] = static_cast<double>(
      served.session->stats().instances_created - created0);
  account(res, m.a, "closed loop");
  account(res, m.b, "open loop");
  account(res, m.c, "batch");
  res.e2e("serve_batch_ms", m.batch.all().over_entries(iq_mean), "ms");
  res.notes["rounds"] = static_cast<double>(m.rounds.size());
  res.notes["open_loop_late"] = static_cast<double>(m.late);

  if (ctx.trace) {
    Tracer::get().set_enabled(true);
    stage_breakdown(served, ctx, res);
    Tracer::get().set_enabled(false);
    const double batches = static_cast<double>(
        std::max<std::uint64_t>(b1.batches - b0.batches, 1));
    res.layer("serve.batcher.avg_batch",
              static_cast<double>(b1.requests - b0.requests) / batches,
              "count");
    res.layer("serve.batcher.max_batch", static_cast<double>(b1.max_batch),
              "count");
    res.layer("serve.shed",
              static_cast<double>(m.a.shed + m.b.shed + m.c.shed), "count");
    res.layer("serve.closed_p50_ms", m.closed.all().over_entries(median),
              "ms");
    res.layer("serve.open_p50_ms", m.open.all().over_entries(median), "ms");
    res.layer("serve.p99_ms", m.med(&RoundOut::p99_ms), "ms");
    res.layer("serve.qps", m.med(&RoundOut::qps), "1/s");
    res.layer("serve.batch_qps", m.med(&RoundOut::batch_qps), "1/s");
    res.layer("serve.generator_lag_ms", quantile(m.lag_ms, 0.99), "ms");
    res.layer("trace.overhead.serve_batch_ms",
              m.batch.by_trace[1].over_entries(iq_mean) -
                  m.batch.by_trace[0].over_entries(iq_mean),
              "ms");
    res.layer("serve.promote_ms", median(promote), "ms");
  }
  // Every instance the load used is idle in the pool again.
  const std::size_t pooled = served.session->stats().pooled_idle;
  res.notes["instances_checked_after_load"] = static_cast<double>(pooled);
  res.check(pooled > static_cast<std::size_t>(ctx.threads),
            cat("only ", pooled, " instances pooled after the load"));
  reset_instances(served, pooled, res, "after load", true);
  served.server->stop();
  return res;
}

}  // namespace perfbench
