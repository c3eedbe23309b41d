// glaf_serve — the resident GLAF kernel server.
//
// Server mode (default): bind a Unix-domain socket and serve until a
// client sends shutdown (or SIGINT/SIGTERM):
//
//   glaf_serve --socket=/tmp/glaf.sock --threads=8
//   glaf_serve --socket=/tmp/glaf.sock --preload=sarb --tier=opt
//
// Options: --socket=PATH (default $XDG_RUNTIME_DIR|/tmp + /glaf-serve-$UID.sock),
//          --threads=N (batcher sweep width), --max-batch=N,
//          --preload=sarb|fun3d (warm a session before accepting),
//          --tier=plan|interp|opt (ceiling for preload + --client),
//          --policy=v0..v3, --portable, --cc=PATH, --cache-dir=DIR,
//          --sync-compile (ladder compiles block the load reply —
//          deterministic starts for tests and benches),
//          --max-inflight=N / --max-conn-pending=N (admission control;
//          overload answers kBusy instead of queueing without bound),
//          --drain-timeout-ms=N (SIGTERM grace window),
//          --breaker-threshold=N / --breaker-backoff-ms=N (per-session
//          circuit breaker on repeated native failures).
//
// Signals: SIGTERM drains (stop accepting, finish in-flight work, then
// exit); SIGINT stops immediately.
//
// Client mode: --client drives a running daemon over the same socket:
//
//   glaf_serve --client --socket=/tmp/glaf.sock --load=sarb --run
//   glaf_serve --client --socket=/tmp/glaf.sock --stats
//   glaf_serve --client --socket=/tmp/glaf.sock --health
//   glaf_serve --client --socket=/tmp/glaf.sock --shutdown
//   glaf_serve --client --socket=/tmp/glaf.sock --smoke
//
// Client robustness flags: --timeout-ms=N (reply read timeout, so a
// wedged daemon costs a bounded error instead of a hang),
// --connect-timeout-ms=N, --retries=N (reconnect + resend pure
// requests after transport faults, with exponential backoff),
// --deadline-ms=N (server-side deadline on --run).
//
// --smoke runs the full promotion dance: load sarb, run on the plan
// tier, wait for the native promotion, run again, verify the two
// replies agree bitwise (tier <= interp), print stats, exit 0/1.

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"

using namespace glaf;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "glaf_serve: %s\n", message.c_str());
  return 1;
}

std::string default_socket_path() {
  const char* runtime_dir = std::getenv("XDG_RUNTIME_DIR");
  const std::string dir = runtime_dir != nullptr ? runtime_dir : "/tmp";
  return dir + "/glaf-serve-" + std::to_string(::getuid()) + ".sock";
}

StatusOr<serve::ExecConfig> parse_exec_config(const CliArgs& args) {
  serve::ExecConfig config;
  const std::string tier = args.get("tier", "interp");
  if (tier == "plan") {
    config.target_tier = 0;
  } else if (tier == "interp") {
    config.target_tier = 1;
  } else if (tier == "opt") {
    config.target_tier = 2;
  } else {
    return invalid_argument("unknown --tier '" + tier +
                            "' (plan|interp|opt)");
  }
  const std::string policy = args.get("policy", "v0");
  if (policy.size() != 2 || policy[0] != 'v' || policy[1] < '0' ||
      policy[1] > '3') {
    return invalid_argument("unknown --policy '" + policy + "' (v0..v3)");
  }
  config.policy = static_cast<std::uint8_t>(policy[1] - '0');
  config.portable = args.get_bool("portable", false);
  return config;
}

serve::Server* g_server = nullptr;

void handle_signal(int sig) {
  // Not strictly async-signal-safe (both paths take locks); acceptable
  // for the interactive-interrupt path — the clean shutdown path is
  // the kShutdown frame. SIGTERM is the orchestrated-replacement
  // signal: drain so admitted work still answers; SIGINT is the
  // operator's "now": stop immediately.
  if (g_server == nullptr) return;
  if (sig == SIGTERM) {
    g_server->drain();
  } else {
    g_server->stop();
  }
}

int run_server(const CliArgs& args, const std::string& socket_path) {
  serve::Server::Options options;
  options.socket_path = socket_path;
  options.threads = static_cast<int>(args.get_int("threads", 4));
  options.max_batch =
      static_cast<std::size_t>(args.get_int("max-batch", 4096));
  options.cc = args.get("cc", "");
  options.cache_dir = args.get("cache-dir", "");
  options.max_pool = static_cast<std::size_t>(args.get_int("max-pool", 16));
  options.sync_compile = args.get_bool("sync-compile", false);
  options.max_inflight =
      static_cast<std::size_t>(args.get_int("max-inflight", 4096));
  options.max_conn_pending =
      static_cast<std::size_t>(args.get_int("max-conn-pending", 1024));
  options.drain_timeout_ms =
      static_cast<int>(args.get_int("drain-timeout-ms", 10000));
  options.breaker_threshold =
      static_cast<int>(args.get_int("breaker-threshold", 3));
  options.breaker_backoff_ms =
      static_cast<int>(args.get_int("breaker-backoff-ms", 1000));

  serve::Server server(options);

  const std::string preload = args.get("preload", "");
  if (!preload.empty()) {
    const auto config = parse_exec_config(args);
    if (!config.is_ok()) return fail(config.status().message());
    serve::LoadProgramMsg msg;
    msg.builtin = preload;
    const auto session_config =
        serve::resolve_config(config.value(), options);
    if (!session_config.is_ok()) {
      return fail(session_config.status().message());
    }
    auto program = serve::resolve_program(msg);
    if (!program.is_ok()) return fail(program.status().message());
    const serve::SessionRegistry::Entry entry = server.registry().get_or_create(
        std::move(program).value(), session_config.value());
    if (session_config.value().target_tier > serve::Tier::kPlan) {
      server.compile_queue().enqueue(entry.session);
      if (options.sync_compile) server.compile_queue().wait_idle();
    }
    std::fprintf(stderr, "glaf_serve: preloaded %s (session %llu, tier %s)\n",
                 preload.c_str(),
                 static_cast<unsigned long long>(entry.session->id()),
                 to_string(entry.session->tier()));
  }

  const Status started = server.start();
  if (!started.is_ok()) return fail(started.message());
  std::fprintf(stderr, "glaf_serve: listening on %s (pid %d)\n",
               socket_path.c_str(), static_cast<int>(::getpid()));

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  server.wait();
  g_server = nullptr;
  std::fprintf(stderr, "glaf_serve: shut down\n");
  return 0;
}

/// --smoke: the end-to-end promotion dance against a running daemon.
int run_smoke(serve::Client& client, const serve::ExecConfig& config) {
  const auto load = client.load_builtin("sarb", config);
  if (!load.is_ok()) return fail("load: " + load.status().message());
  const std::uint64_t sid = load.value().session_id;
  std::fprintf(stderr, "smoke: session %llu tier %u hash %s\n",
               static_cast<unsigned long long>(sid),
               static_cast<unsigned>(load.value().current_tier),
               load.value().program_hash.c_str());

  const auto first = client.run(sid, "entropy_interface");
  if (!first.is_ok()) return fail("run: " + first.status().message());
  std::fprintf(stderr, "smoke: first run tier %u result %.17g\n",
               static_cast<unsigned>(first.value().tier),
               first.value().result);

  // Wait (bounded) for the background ladder to finish, then run again.
  serve::RunReplyMsg second = first.value();
  for (int i = 0; i < 600; ++i) {
    const auto reply = client.run(sid, "entropy_interface");
    if (!reply.is_ok()) return fail("run: " + reply.status().message());
    second = reply.value();
    if (second.tier >= config.target_tier) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "smoke: settled run tier %u result %.17g\n",
               static_cast<unsigned>(second.tier), second.result);

  if (config.target_tier >= 1 && second.tier < 1) {
    const auto stats = client.stats(sid);
    std::fprintf(stderr, "smoke: no promotion; session stats: %s\n",
                 stats.is_ok() ? stats.value().c_str() : "?");
    return fail("session never promoted to a native tier");
  }
  // Tiers 0/1 are bit-identical by contract; opt is ulp-bounded, so
  // only check exactness when the settled tier is still interp math.
  if (second.tier <= 1 && second.result != first.value().result) {
    return fail("native result differs from plan result");
  }

  const auto stats = client.stats(sid);
  if (!stats.is_ok()) return fail("stats: " + stats.status().message());
  std::printf("%s\n", stats.value().c_str());
  // The report is rendered when the stats frame is read; a session that
  // served natively must show it.
  if (second.tier >= 1 &&
      stats.value().find("\"native_report\":{\"available\":true") ==
          std::string::npos) {
    return fail("promoted session's stats frame has no available "
                "native_report");
  }
  std::fprintf(stderr, "smoke: OK\n");
  return 0;
}

int run_client(const CliArgs& args, const std::string& socket_path) {
  serve::Client::Options copts;
  copts.read_timeout_ms =
      static_cast<int>(args.get_int("timeout-ms", 30000));
  copts.connect_timeout_ms =
      static_cast<int>(args.get_int("connect-timeout-ms", 10000));
  copts.retries = static_cast<int>(args.get_int("retries", 0));
  copts.retry_backoff_ms =
      static_cast<int>(args.get_int("retry-backoff-ms", 50));
  serve::Client client;
  const Status connected = client.connect(socket_path, copts);
  if (!connected.is_ok()) return fail(connected.message());

  const auto config = parse_exec_config(args);
  if (!config.is_ok()) return fail(config.status().message());

  if (args.get_bool("health", false)) {
    const auto health = client.health();
    if (!health.is_ok()) return fail("health: " + health.status().message());
    const serve::HealthReplyMsg& h = health.value();
    std::printf("{\"ready\": %s, \"draining\": %s, \"top_tier\": %u, "
                "\"sessions\": %u, \"inflight\": %u, \"queued\": %u, "
                "\"compile_queued\": %u, \"max_inflight\": %u}\n",
                h.ready != 0 ? "true" : "false",
                h.draining != 0 ? "true" : "false",
                static_cast<unsigned>(h.top_tier), h.sessions, h.inflight,
                h.queued, h.compile_queued, h.max_inflight);
    return h.ready != 0 ? 0 : 1;
  }

  if (args.get_bool("smoke", false)) {
    return run_smoke(client, config.value());
  }

  std::uint64_t session_id = 0;
  const std::string load = args.get("load", "");
  if (!load.empty()) {
    const auto reply = client.load_builtin(load, config.value());
    if (!reply.is_ok()) return fail("load: " + reply.status().message());
    session_id = reply.value().session_id;
    std::fprintf(stderr, "glaf_serve: session %llu tier %u\n",
                 static_cast<unsigned long long>(session_id),
                 static_cast<unsigned>(reply.value().current_tier));
  }

  if (args.has("run")) {
    if (session_id == 0) {
      session_id = static_cast<std::uint64_t>(args.get_int("session", 0));
    }
    if (session_id == 0) return fail("--run needs --load or --session");
    std::string entry = args.get("run", "");
    if (entry.empty() || entry == "true") entry = "entropy_interface";
    const auto deadline_ms =
        static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
    const auto reply = client.run(session_id, entry, {}, deadline_ms);
    if (!reply.is_ok()) return fail("run: " + reply.status().message());
    std::printf("%.17g\n", reply.value().result);
    std::fprintf(stderr, "glaf_serve: ran %s at tier %u\n", entry.c_str(),
                 static_cast<unsigned>(reply.value().tier));
  }

  if (args.get_bool("stats", false)) {
    const auto stats = client.stats(session_id);
    if (!stats.is_ok()) return fail("stats: " + stats.status().message());
    std::printf("%s\n", stats.value().c_str());
  }

  if (args.get_bool("shutdown", false)) {
    const Status st = client.shutdown_server();
    if (!st.is_ok()) return fail("shutdown: " + st.message());
    std::fprintf(stderr, "glaf_serve: server shut down\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string socket_path = args.get("socket", default_socket_path());
  if (args.get_bool("client", false)) {
    return run_client(args, socket_path);
  }
  return run_server(args, socket_path);
}
