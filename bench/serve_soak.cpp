// serve_soak — chaos soak for the glaf-serve daemon.
//
// Spins up an in-process Server on a private Unix socket, arms the
// deterministic fault registry (GLAF_FAULT sites: connection kills at
// accept, read/write faults and write stalls on both ends of the
// socket, frame-allocation failures, background-compile failures,
// instance-pool construction failures, kernel-cache load corruption
// and truncated publishes), then hammers the server from C client
// threads with a deterministic mix of kRun, kRunBatch, deadline-
// carrying, kHealth and kStats requests.
//
// The acceptance contract: EVERY request ends in exactly one of
// {bit-identical result, typed error} — never a hang (watchdog aborts
// the process), never a crash, never a wrong answer, and never a lost
// reply: a run request that took the client's whole read timeout (the
// client retries after it, so it may still succeed) is booked as
// `read_timeouts`, apart from ok results and typed errors, and fails the
// soak. The tier ceiling is native-interp, where results are bitwise
// identical to the plan tier by contract, so "wrong answer" is a plain
// != against a golden value computed before the faults arm.
//
//   bench/serve_soak --requests 6000 --clients 8 --seed 42
//       --out BENCH_soak.json
//   bench/serve_soak --smoke        # small counts for ctest/CI

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "support/timer.hpp"

using namespace glaf;

namespace {

/// The soak clients' read timeout. A reply that never comes costs a
/// client this long (the client then re-dials and retries, so the
/// request may still succeed); the soak fails when that happens even
/// once.
constexpr int kReadTimeoutMs = 20000;

/// Shared outcome ledger: every run sub-request lands in exactly one
/// bucket, so ok + wrong + read_timeouts + sum(errors) must equal the
/// total issued.
struct Ledger {
  std::mutex mutex;
  std::uint64_t ok = 0;           ///< bit-identical result
  std::uint64_t wrong = 0;        ///< result mismatch (must stay 0)
  /// Took at least the read timeout, whatever the outcome: a lost
  /// reply (must stay 0).
  std::uint64_t read_timeouts = 0;
  std::uint64_t health_probes = 0;
  std::uint64_t stats_probes = 0;
  std::uint64_t probe_errors = 0;
  std::map<std::string, std::uint64_t> errors;  ///< by status code name

  /// Book `n` sub-requests that failed with `status` after `ms`.
  void fail(const Status& status, double ms, std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex);
    if (ms >= kReadTimeoutMs) {
      read_timeouts += n;
    } else {
      errors[std::string(to_string(status.code()))] += n;
    }
  }

  /// Book one sub-request that ended in `result` after `ms`.
  void record(const StatusOr<double>& result, double golden, double ms) {
    if (!result.is_ok()) {
      fail(result.status(), ms, 1);
      return;
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (result.value() != golden) {
      ++wrong;
    } else if (ms >= kReadTimeoutMs) {
      ++read_timeouts;
    } else {
      ++ok;
    }
  }
};

/// One soak client: its own connection, timeouts and retry budget, and
/// a per-thread deterministic request mix.
void client_main(const std::string& socket_path, std::uint64_t sid,
                 double golden, std::uint64_t seed, int thread_id,
                 int requests, Ledger* ledger) {
  serve::Client::Options copts;
  copts.connect_timeout_ms = 5000;
  copts.read_timeout_ms = kReadTimeoutMs;
  copts.retries = 8;
  copts.retry_backoff_ms = 2;
  copts.retry_seed = seed ^ static_cast<std::uint64_t>(thread_id) * 977;
  serve::Client client;
  // Initial connect may hit the accept-kill fault repeatedly; the
  // retry budget absorbs it. A client that still cannot connect books
  // every planned request as a typed error — accounted, not lost.
  Status connected = client.connect(socket_path, copts);

  SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(thread_id) + 1) *
                            0x9E3779B97F4A7C15ULL);
  int issued = 0;
  while (issued < requests) {
    if (!client.connected()) {
      connected = client.connect(socket_path, copts);
      if (!connected.is_ok()) {
        std::lock_guard<std::mutex> lock(ledger->mutex);
        ++ledger->errors[std::string(to_string(connected.code()))];
        ++issued;
        continue;
      }
    }
    const std::uint64_t roll = rng.next_below(100);
    const Timer timer;
    if (roll < 12 && issued + 4 <= requests) {
      // Batch of 4 (one wire frame, one ledger entry per sub-result).
      const auto reply =
          client.run_batch(sid, "entropy_interface", 4, 0, {});
      if (reply.is_ok()) {
        for (const serve::RunReplyMsg& r : reply.value().results) {
          ledger->record(StatusOr<double>(r.result), golden,
                         timer.milliseconds());
        }
      } else {
        ledger->fail(reply.status(), timer.milliseconds(), 4);
      }
      issued += 4;
    } else if (roll < 18) {
      // Tight deadline: kDeadlineExceeded and success are both
      // legitimate endings; a wrong VALUE never is.
      const auto reply = client.run(sid, "entropy_interface", {},
                                    /*deadline_ms=*/1);
      if (reply.is_ok()) {
        ledger->record(StatusOr<double>(reply.value().result), golden,
                       timer.milliseconds());
      } else {
        ledger->record(StatusOr<double>(reply.status()), golden,
                       timer.milliseconds());
      }
      ++issued;
    } else if (roll < 21) {
      // Control-plane probe under chaos (not a run; tracked apart).
      const bool use_health = (roll & 1) != 0;
      const Status st = use_health
                            ? client.health().status()
                            : client.stats(0).status();
      std::lock_guard<std::mutex> lock(ledger->mutex);
      ++(use_health ? ledger->health_probes : ledger->stats_probes);
      if (!st.is_ok()) ++ledger->probe_errors;
    } else {
      const auto reply = client.run(sid, "entropy_interface");
      if (reply.is_ok()) {
        ledger->record(StatusOr<double>(reply.value().result), golden,
                       timer.milliseconds());
      } else {
        ledger->record(StatusOr<double>(reply.status()), golden,
                       timer.milliseconds());
      }
      ++issued;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);
  const int requests =
      static_cast<int>(args.get_int("requests", smoke ? 400 : 6000));
  const int clients = static_cast<int>(args.get_int("clients", smoke ? 4 : 8));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const int watchdog_s =
      static_cast<int>(args.get_int("watchdog-s", smoke ? 120 : 300));
  const std::string out_path = args.get("out", "");

  // Private cache dir: the publish-truncation fault corrupts cache
  // files on purpose, and that must never leak into the shared
  // environment cache.
  const std::string cache_dir = cat("/tmp/glaf-soak-cache-", ::getpid());
  const std::string socket_path =
      cat("/tmp/glaf-serve-soak-", ::getpid(), ".sock");

  serve::Server::Options options;
  options.socket_path = socket_path;
  options.threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  options.cache_dir = cache_dir;
  options.breaker_backoff_ms = 50;  // let tripped breakers re-probe
  serve::Server server(options);
  const Status started = server.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "serve_soak: %s\n", started.message().c_str());
    return 1;
  }

  // Tier ceiling native-interp: every successful result must be
  // bitwise identical to the plan tier (the opt tier is only
  // ulp-bounded, which would turn "wrong answer" into a judgement
  // call).
  serve::ExecConfig config;
  config.target_tier = cc_available(default_cc()) ? 1 : 0;

  serve::Client loader;
  if (!loader.connect(socket_path).is_ok()) {
    std::fprintf(stderr, "serve_soak: cannot connect\n");
    return 1;
  }
  const auto load = loader.load_builtin("sarb", config);
  if (!load.is_ok()) {
    std::fprintf(stderr, "serve_soak: load: %s\n",
                 load.status().message().c_str());
    return 1;
  }
  const std::uint64_t sid = load.value().session_id;
  const auto golden_reply = loader.run(sid, "entropy_interface");
  if (!golden_reply.is_ok()) {
    std::fprintf(stderr, "serve_soak: golden run: %s\n",
                 golden_reply.status().message().c_str());
    return 1;
  }
  const double golden = golden_reply.value().result;
  loader.close();

  // Arm the chaos. Probabilities are per-occurrence; the compile and
  // cache sites run rarely, so they get the big ones.
  const std::string spec =
      "serve.accept:0.02,"
      "serve.sock.read:0.004,"
      "serve.sock.write:0.004,"
      "serve.sock.write_stall:0.01,"
      "serve.frame.alloc:0.002,"
      "serve.compile:0.25,"
      "serve.pool.construct:0.05,"
      "jit.engine.load:0.05,"
      "jit.cache.load:0.1,"
      "jit.cache.publish:0.25";
  const Status armed = fault::configure(spec, seed);
  if (!armed.is_ok()) {
    std::fprintf(stderr, "serve_soak: fault spec: %s\n",
                 armed.message().c_str());
    return 1;
  }

  // Watchdog: the whole point is "never a hang" — if the soak wedges,
  // die loudly with a distinct exit code instead of timing CI out.
  std::atomic<bool> done{false};
  std::thread watchdog([&done, watchdog_s] {
    for (int i = 0; i < watchdog_s * 10; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (done.load(std::memory_order_acquire)) return;
    }
    std::fprintf(stderr, "serve_soak: WATCHDOG: soak wedged, aborting\n");
    std::fflush(stderr);
    ::_exit(3);
  });

  Ledger ledger;
  const int per_client = std::max(1, requests / std::max(1, clients));
  std::vector<std::thread> threads;
  Timer total;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(client_main, socket_path, sid, golden, seed, c,
                         per_client, &ledger);
  }
  for (auto& t : threads) t.join();
  const double seconds = total.seconds();

  // Disarm before teardown so shutdown itself is fault-free.
  const std::vector<fault::SiteStats> fstats = fault::stats();
  fault::clear();
  done.store(true, std::memory_order_release);
  watchdog.join();
  server.stop();
  (void)run_command("rm -rf " + cache_dir);

  const std::uint64_t issued =
      static_cast<std::uint64_t>(per_client) *
      static_cast<std::uint64_t>(clients);
  std::uint64_t error_total = 0;
  for (const auto& [code, n] : ledger.errors) error_total += n;
  const std::uint64_t accounted =
      ledger.ok + ledger.wrong + ledger.read_timeouts + error_total;

  JsonWriter w;
  w.begin_object();
  w.key("benchmark");
  w.value("serve_soak");
  w.key("seed");
  w.value(seed);
  w.key("clients");
  w.value(clients);
  w.key("requests_issued");
  w.value(issued);
  w.key("seconds");
  w.value(seconds);
  w.key("qps");
  w.value(seconds > 0 ? static_cast<double>(issued) / seconds : 0.0);
  w.key("tier_ceiling");
  w.value(static_cast<std::uint64_t>(config.target_tier));
  w.key("regenerate");
  w.value(cat("bench/serve_soak --requests ", requests, " --clients ",
              clients, " --seed ", seed, " --out BENCH_soak.json"));
  w.key("fault_spec");
  w.value(spec);
  w.key("ok_bit_identical");
  w.value(ledger.ok);
  w.key("wrong_value");
  w.value(ledger.wrong);
  w.key("read_timeouts");
  w.value(ledger.read_timeouts);
  w.key("typed_errors");
  w.begin_object();
  for (const auto& [code, n] : ledger.errors) {
    w.key(code);
    w.value(n);
  }
  w.end_object();
  w.key("accounted");
  w.value(accounted);
  w.key("health_probes");
  w.value(ledger.health_probes);
  w.key("stats_probes");
  w.value(ledger.stats_probes);
  w.key("probe_errors");
  w.value(ledger.probe_errors);
  w.key("faults");
  w.begin_array();
  for (const fault::SiteStats& s : fstats) {
    w.begin_object();
    w.key("site");
    w.value(s.site);
    w.key("probability");
    w.value(s.probability);
    w.key("checks");
    w.value(s.checks);
    w.key("injections");
    w.value(s.injections);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string json = std::move(w).str();
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "serve_soak: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::fprintf(stderr, "serve_soak: wrote %s\n", out_path.c_str());
  }

  std::fprintf(stderr,
               "serve_soak: %llu issued, %llu ok, %llu wrong, %llu read"
               " timeouts, %llu typed errors (%.0f qps)\n",
               static_cast<unsigned long long>(issued),
               static_cast<unsigned long long>(ledger.ok),
               static_cast<unsigned long long>(ledger.wrong),
               static_cast<unsigned long long>(ledger.read_timeouts),
               static_cast<unsigned long long>(error_total),
               seconds > 0 ? static_cast<double>(issued) / seconds : 0.0);
  if (ledger.wrong != 0) {
    std::fprintf(stderr, "serve_soak: FAIL: wrong answers under fault\n");
    return 1;
  }
  if (ledger.read_timeouts != 0) {
    std::fprintf(stderr,
                 "serve_soak: FAIL: %llu requests waited out the %d ms read"
                 " timeout (a lost reply)\n",
                 static_cast<unsigned long long>(ledger.read_timeouts),
                 kReadTimeoutMs);
    return 1;
  }
  if (accounted != issued) {
    std::fprintf(stderr,
                 "serve_soak: FAIL: %llu of %llu requests unaccounted\n",
                 static_cast<unsigned long long>(issued - accounted),
                 static_cast<unsigned long long>(issued));
    return 1;
  }
  if (ledger.ok == 0) {
    std::fprintf(stderr, "serve_soak: FAIL: no request ever succeeded\n");
    return 1;
  }
  std::fprintf(stderr, "serve_soak: OK\n");
  return 0;
}
