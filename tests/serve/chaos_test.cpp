// Fault-hardening wall for the serve stack (label: serve-chaos). Every
// test drives a REAL server over a real Unix socket while the
// deterministic fault registry injects the failure under test, and
// asserts the robustness contract: typed errors, bit-identical results,
// bounded time — never a hang, never a crash, never a wrong answer.
//
// Covers: request deadlines (expired-in-queue answers without running),
// admission control (overload answers kBusy fast), the kHealth frame,
// graceful drain (in-flight work finishes, new work is shed), a lost
// reply (the connection ends at once), the per-session circuit breaker
// (repeated native failures demote loudly and re-probe after backoff),
// truncated kernel-cache publishes (detected and rebuilt), a wedged
// daemon (client read timeout), and client reconnect after a server
// restart.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/builder.hpp"
#include "core/serialize.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "support/timer.hpp"

namespace glaf::serve {
namespace {

bool have_cc() { return cc_available(default_cc()); }

/// Every test leaves the process-global fault registry disarmed.
struct FaultGuard {
  ~FaultGuard() { fault::clear(); }
};

struct TestDirs {
  std::string root;
  std::string socket_path;
  std::string cache_dir;
};

TestDirs make_dirs(const char* tag) {
  std::string tmpl = cat(::testing::TempDir(), "glaf_chaos_", tag, "_XXXXXX");
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  TestDirs dirs;
  dirs.root = dir;
  dirs.socket_path = dirs.root + "/s.sock";
  dirs.cache_dir = dirs.root + "/cache";
  return dirs;
}

/// A deliberately slow plan-tier program: `spin` walks a long reduction
/// so one call occupies the batcher for many milliseconds — the lever
/// the deadline/busy/drain tests use to hold requests in flight.
std::string spin_source(std::int64_t n) {
  ProgramBuilder pb("spin_mod");
  auto nn = pb.global("n", DataType::kInt, {}, {.init = {n}});
  auto total = pb.global("total", DataType::kDouble);
  auto fb = pb.function("spin");
  auto s = fb.step("Step1");
  s.foreach_("i", 0, E(nn) - 1);
  s.assign(total(), E(total) + 1.0);
  return serialize_program(pb.build().value());
}

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Fire a kRunEntry frame without reading the reply (an in-flight run
/// that keeps the batcher busy).
void stuff_run(int fd, std::uint64_t sid, const std::string& entry) {
  RunEntryMsg msg;
  msg.session_id = sid;
  msg.entry = entry;
  ASSERT_TRUE(write_frame(fd, encode(msg)).is_ok());
}

TEST(ServeChaos, LostReplyEndsTheConnection) {
  // A run's reply is written by a batcher thread while the connection's
  // reader sits in read_frame. When that write fails the reply is lost,
  // and the server must end the connection, so the client reads EOF at
  // once instead of waiting out its read timeout for a reply that never
  // comes.
  FaultGuard guard;
  const TestDirs dirs = make_dirs("lost_reply");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = client.load_source(spin_source(1000), config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();

  const int fd = raw_connect(dirs.socket_path);
  timeval limit{};
  limit.tv_sec = 5;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit)),
            0);
  ASSERT_TRUE(fault::configure("serve.sock.write:1:1").is_ok());
  // A raw send: write_frame would draw the armed fault itself.
  RunEntryMsg msg;
  msg.session_id = load.value().session_id;
  msg.entry = "spin";
  const std::vector<std::uint8_t> bytes = encode_frame(encode(msg));
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  Timer elapsed;
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  const int err = errno;
  EXPECT_TRUE(n == 0 || (n < 0 && err == ECONNRESET))
      << "recv returned " << n << ", errno " << err;
  EXPECT_LT(elapsed.milliseconds(), 1000.0);
  EXPECT_EQ(fault::injections("serve.sock.write"), 1u);
  ::close(fd);

  // Only that connection ended: the first client is still served.
  fault::clear();
  const auto run = client.run(load.value().session_id, "spin", {});
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
}

TEST(ServeChaos, ExpiredDeadlineGetsTypedErrorWithoutRunning) {
  const TestDirs dirs = make_dirs("deadline");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = client.load_source(spin_source(2000000), config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const std::uint64_t sid = load.value().session_id;

  // Three slow runs occupy the single-threaded batcher; the probe's
  // 1 ms deadline is long gone by the time its sweep slot arrives.
  const int stuffer = raw_connect(dirs.socket_path);
  for (int i = 0; i < 3; ++i) stuff_run(stuffer, sid, "spin");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const auto probe = client.run(sid, "spin", {}, /*deadline_ms=*/1);
  ASSERT_FALSE(probe.is_ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kDeadlineExceeded)
      << probe.status().to_string();

  // The expirations are visible in the server stats.
  const auto stats = client.stats(0);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_NE(stats.value().find("\"deadline_expired\":1"), std::string::npos)
      << stats.value();

  // A generous deadline on an idle server is not a death sentence.
  const auto relaxed = client.run(sid, "spin", {}, /*deadline_ms=*/60000);
  EXPECT_TRUE(relaxed.is_ok()) << relaxed.status().to_string();
  ::close(stuffer);
}

TEST(ServeChaos, PipelinedFramesAllGetReplies) {
  // Regression: the reader used a fresh decoder per frame, so when one
  // read(2) pulled in the current frame PLUS bytes of the next
  // pipelined one, the surplus was silently dropped — the second
  // request simply never happened. Writing several requests in a single
  // syscall forces exactly that coalescing.
  const TestDirs dirs = make_dirs("pipeline");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 2;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = client.load_source(spin_source(64), config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();

  RunEntryMsg msg;
  msg.session_id = load.value().session_id;
  msg.entry = "spin";
  std::vector<std::uint8_t> wire;
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    const std::vector<std::uint8_t> one = encode_frame(encode(msg));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  const int fd = raw_connect(dirs.socket_path);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }

  // Every request must be answered (replies may also coalesce, so the
  // reading side needs its own persistent decoder).
  FrameDecoder decoder;
  for (int i = 0; i < kRequests; ++i) {
    const StatusOr<Frame> reply = read_frame(fd, decoder, 10000);
    ASSERT_TRUE(reply.is_ok()) << "reply " << i << ": "
                               << reply.status().to_string();
    EXPECT_EQ(reply.value().type, MsgType::kRunReply) << "reply " << i;
  }
  ::close(fd);
}

TEST(ServeChaos, OverloadShedsWithTypedBusy) {
  const TestDirs dirs = make_dirs("busy");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 1;
  options.max_inflight = 2;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = client.load_source(spin_source(8000000), config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const std::uint64_t sid = load.value().session_id;

  // Fill the admission budget with two slow in-flight runs; the health
  // frame (never admission-controlled) tells us when both are admitted.
  const int stuffer = raw_connect(dirs.socket_path);
  stuff_run(stuffer, sid, "spin");
  stuff_run(stuffer, sid, "spin");
  for (int i = 0; i < 2000; ++i) {
    const auto health = client.health();
    ASSERT_TRUE(health.is_ok()) << health.status().to_string();
    if (health.value().inflight >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto probe = client.run(sid, "spin");
  ASSERT_FALSE(probe.is_ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kBusy)
      << probe.status().to_string();
  EXPECT_NE(probe.status().message().find("capacity"), std::string::npos);

  const auto stats = client.stats(0);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_NE(stats.value().find("\"requests_shed\":1"), std::string::npos)
      << stats.value();
  ::close(stuffer);
}

TEST(ServeChaos, HealthFrameReportsReadiness) {
  const TestDirs dirs = make_dirs("health");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 2;
  options.max_inflight = 128;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  auto health = client.health();
  ASSERT_TRUE(health.is_ok()) << health.status().to_string();
  EXPECT_EQ(health.value().ready, 1);
  EXPECT_EQ(health.value().draining, 0);
  EXPECT_EQ(health.value().sessions, 0u);
  EXPECT_EQ(health.value().max_inflight, 128u);

  ExecConfig config;
  config.target_tier = 0;
  ASSERT_TRUE(client.load_builtin("sarb", config).is_ok());
  health = client.health();
  ASSERT_TRUE(health.is_ok());
  EXPECT_EQ(health.value().sessions, 1u);
  EXPECT_EQ(health.value().top_tier, 0);
}

TEST(ServeChaos, GracefulDrainFinishesInFlightWorkAndShedsNew) {
  const TestDirs dirs = make_dirs("drain");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 1;
  options.drain_timeout_ms = 30000;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = client.load_source(spin_source(8000000), config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const std::uint64_t sid = load.value().session_id;

  // One slow run is in flight when the drain starts; its reply must
  // still be delivered.
  const int inflight = raw_connect(dirs.socket_path);
  stuff_run(inflight, sid, "spin");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::thread drainer([&server] { server.drain(); });
  for (int i = 0; i < 2000 && !server.draining(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.draining()) << "drain never entered its window";

  // New runs are shed with a typed kBusy naming the drain. (If the
  // in-flight work finished and the server already stopped, the probe
  // sees a transport error instead — also a legal outcome.)
  const auto shed = client.run(sid, "spin");
  ASSERT_FALSE(shed.is_ok());
  if (shed.status().code() == StatusCode::kBusy) {
    EXPECT_NE(shed.status().message().find("draining"), std::string::npos)
        << shed.status().to_string();
    // ...while kHealth keeps answering so orchestration can tell
    // draining from dead.
    const auto health = client.health();
    if (health.is_ok()) {
      EXPECT_EQ(health.value().ready, 0);
      EXPECT_EQ(health.value().draining, 1);
    }
  }

  drainer.join();
  EXPECT_FALSE(server.running());
  // The in-flight run's reply made it out before the teardown.
  const auto reply = read_frame(inflight);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().type, MsgType::kRunReply);
  ::close(inflight);
}

TEST(ServeChaos, BreakerDemotesLoudlyAndReprobesAfterBackoff) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  FaultGuard guard;
  const TestDirs dirs = make_dirs("breaker");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 2;
  options.sync_compile = true;
  options.max_pool = 0;  // no idle pool: every acquire constructs
  options.breaker_threshold = 2;
  options.breaker_backoff_ms = 150;
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  const auto load = client.load_builtin("sarb", ExecConfig{});  // tier 1
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const std::uint64_t sid = load.value().session_id;
  const std::shared_ptr<Session> session = server.registry().find(sid);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->tier(), Tier::kNativeInterp)
      << "sync compile should have promoted before the load reply";

  const auto native = client.run(sid, "entropy_interface");
  ASSERT_TRUE(native.is_ok()) << native.status().to_string();
  ASSERT_EQ(native.value().tier, 1);
  const double golden = native.value().result;

  // Every native construction now refuses (cache gone bad, dlopen
  // failing — the shape does not matter, the response does).
  ASSERT_TRUE(fault::configure("jit.engine.load").is_ok());

  // Failure one: the request silently-degrades to the plan tier — but
  // NOT silently: the reply says tier 0 and stats count the failure.
  // This is the regression test for the demotion path: the result must
  // stay bit-identical while the tier honestly reports the fallback.
  const auto first = client.run(sid, "entropy_interface");
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(first.value().tier, 0);
  EXPECT_EQ(first.value().result, golden) << "degraded run changed the value";
  EXPECT_EQ(session->stats().native_load_failures, 1u);
  EXPECT_FALSE(session->stats().breaker_open);

  // Failure two trips the breaker: the session demotes its serving tier
  // so later acquires stop paying the doomed native attempt.
  const auto second = client.run(sid, "entropy_interface");
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(second.value().tier, 0);
  EXPECT_EQ(second.value().result, golden);
  {
    const SessionStats stats = session->stats();
    EXPECT_TRUE(stats.breaker_open);
    EXPECT_EQ(stats.breaker_trips, 1u);
    EXPECT_NE(stats.breaker_reason.find("fault injected"),
              std::string::npos)
        << stats.breaker_reason;
  }
  EXPECT_EQ(session->tier(), Tier::kPlan);
  // The tripped state is on the stats wire too.
  const auto json = client.stats(sid);
  ASSERT_TRUE(json.is_ok());
  EXPECT_NE(json.value().find("\"breaker_open\":true"), std::string::npos)
      << json.value();

  // While open, runs serve from plan without touching native.
  const auto demoted = client.run(sid, "entropy_interface");
  ASSERT_TRUE(demoted.is_ok());
  EXPECT_EQ(demoted.value().tier, 0);
  EXPECT_EQ(demoted.value().result, golden);

  // Heal the fault, wait out the backoff: the breaker re-probes and the
  // session climbs back to its promoted tier.
  fault::clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto healed = client.run(sid, "entropy_interface");
  ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
  EXPECT_EQ(healed.value().tier, 1) << "breaker never re-probed";
  EXPECT_EQ(healed.value().result, golden);
  EXPECT_FALSE(session->stats().breaker_open);
}

TEST(ServeChaos, TruncatedPublishIsDetectedAndRebuilt) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  FaultGuard guard;
  const TestDirs dirs = make_dirs("publish");
  jit::KernelCache cache(dirs.cache_dir);
  const std::string source =
      "double glaf_answer(void) { return 42.0; }\n";
  const std::string flags = "-shared -fPIC -O1";
  const std::uint64_t discards_before =
      jit::kernel_cache_stats().corrupt_discards;

  // First publish crashes mid-writeback: rename lands, data does not.
  ASSERT_TRUE(fault::configure("jit.cache.publish:1:1").is_ok());
  const auto corrupt = cache.object_for(source, default_cc(), flags);
  ASSERT_TRUE(corrupt.is_ok()) << corrupt.status().to_string();
  {
    struct stat st{};
    ASSERT_EQ(stat(corrupt.value().c_str(), &st), 0);
    EXPECT_EQ(st.st_size, 2) << "fault should have truncated the object";
  }
  fault::clear();

  // The next lookup must refuse the damaged entry and rebuild it.
  bool was_hit = true;
  const auto rebuilt = cache.object_for(source, default_cc(), flags,
                                        &was_hit);
  ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
  EXPECT_FALSE(was_hit) << "a truncated entry must not count as a hit";
  EXPECT_GE(jit::kernel_cache_stats().corrupt_discards, discards_before + 1);
  std::ifstream in(rebuilt.value(), std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  ASSERT_EQ(in.gcount(), 4);
  EXPECT_EQ(magic[0], '\x7f');
  EXPECT_EQ(magic[1], 'E');
  EXPECT_EQ(magic[2], 'L');
  EXPECT_EQ(magic[3], 'F');
}

TEST(ServeChaos, WedgedDaemonCostsATimeoutNotAHang) {
  // A listener that accepts into its backlog and never answers — the
  // shape of a daemon stuck under a lock. Before the client grew a read
  // timeout, `glaf_serve --stats` would hang here forever.
  const TestDirs dirs = make_dirs("wedged");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(dirs.socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, dirs.socket_path.c_str(),
              dirs.socket_path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);

  Client::Options copts;
  copts.connect_timeout_ms = 2000;
  copts.read_timeout_ms = 200;
  Client client;
  Timer elapsed;
  const Status connected = client.connect(dirs.socket_path, copts);
  ASSERT_FALSE(connected.is_ok());
  EXPECT_NE(connected.message().find("stalled"), std::string::npos)
      << connected.to_string();
  EXPECT_LT(elapsed.milliseconds(), 5000.0);
  ::close(listener);
}

TEST(ServeChaos, ClientReconnectsAcrossAServerRestart) {
  const TestDirs dirs = make_dirs("restart");
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 2;

  auto first = std::make_unique<Server>(options);
  ASSERT_TRUE(first->start().is_ok());

  Client::Options copts;
  copts.retries = 5;
  copts.retry_backoff_ms = 10;
  copts.read_timeout_ms = 5000;
  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path, copts).is_ok());
  ASSERT_TRUE(client.stats(0).is_ok());

  // The daemon dies and a replacement binds the same path.
  first->stop();
  first.reset();
  Server second(options);
  ASSERT_TRUE(second.start().is_ok());

  // The old connection is dead; the retry path must re-dial and land
  // the request on the replacement — invisibly to the caller.
  const auto stats = client.stats(0);
  EXPECT_TRUE(stats.is_ok()) << stats.status().to_string();
}

}  // namespace
}  // namespace glaf::serve
