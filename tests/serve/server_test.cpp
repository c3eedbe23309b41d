// End-to-end tests of the glaf-serve daemon: a real Unix socket, the
// real client library, and the real async tier ladder.
//
// The load-bearing check is the promotion e2e: with a cold kernel cache
// the first run-entry reply MUST come from the plan VM (the compile
// queue cannot possibly have finished), later replies must come from
// the native tier, results must agree bitwise with a local Machine, and
// the stats endpoint must show the promotion. Native legs skip when the
// host has no C compiler (the daemon then keeps serving plan — that
// degradation is itself asserted).

#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "core/serialize.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "interp/machine.hpp"
#include "serve/client.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf::serve {
namespace {

bool have_cc() { return cc_available(default_cc()); }

/// Fresh socket path + cold cache dir per test (promotion determinism
/// depends on the cache being cold).
struct TestDirs {
  std::string root;
  std::string socket_path;
  std::string cache_dir;
};

TestDirs make_dirs(const char* tag) {
  std::string tmpl = cat(::testing::TempDir(), "glaf_serve_", tag, "_XXXXXX");
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  TestDirs dirs;
  dirs.root = dir;
  dirs.socket_path = dirs.root + "/s.sock";
  dirs.cache_dir = dirs.root + "/cache";
  return dirs;
}

/// Strict-enough JSON well-formedness check (the repo emits JSON but has
/// no parser): true when `text` is exactly one JSON value.
class JsonCheck {
 public:
  explicit JsonCheck(std::string text) : s_(std::move(text)) {}
  bool ok() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        return container('}', true);
      case '[':
        return container(']', false);
      case '"':
        return string();
      case 't':
        return word("true");
      case 'f':
        return word("false");
      case 'n':
        return word("null");
      default:
        return number();
    }
  }
  bool container(char close, bool object) {
    ++i_;
    ws();
    if (at(close)) return ++i_, true;
    for (;;) {
      if (object) {
        if (!string()) return false;
        ws();
        if (!at(':')) return false;
        ++i_;
        ws();
      }
      if (!value()) return false;
      ws();
      if (at(close)) return ++i_, true;
      if (!at(',')) return false;
      ++i_;
      ws();
    }
  }
  bool string() {
    if (!at('"')) return false;
    for (++i_; i_ < s_.size(); ++i_) {
      const auto c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') return ++i_, true;
      if (c < 0x20) return false;
      if (c == '\\') ++i_;
    }
    return false;
  }
  bool number() {
    if (!at('-') && (i_ >= s_.size() || !std::isdigit(s_[i_]))) return false;
    char* end = nullptr;
    std::strtod(s_.c_str() + i_, &end);
    i_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }
  bool word(std::string_view w) {
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  std::string s_;
  std::size_t i_ = 0;
};

/// `native_calls` of the available native report in a session stats
/// frame; 0 when the report is missing or unavailable.
std::uint64_t reported_native_calls(const std::string& stats) {
  const std::size_t report =
      stats.find("\"native_report\":{\"available\":true");
  if (report == std::string::npos) return 0;
  const std::string key = "\"native_calls\":";
  const std::size_t at = stats.find(key, report);
  if (at == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + at + key.size(), nullptr, 10);
}

Server::Options server_options(const TestDirs& dirs) {
  Server::Options options;
  options.socket_path = dirs.socket_path;
  options.cache_dir = dirs.cache_dir;
  options.threads = 2;
  return options;
}

TEST(ServeServer, HelloHandshake) {
  const TestDirs dirs = make_dirs("hello");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  EXPECT_EQ(client.server_pid(), static_cast<std::uint64_t>(::getpid()));
}

TEST(ServeServer, PlanTierServesWithoutACompiler) {
  const TestDirs dirs = make_dirs("plan");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;  // plan only: no compile queue involvement
  const auto load = client.load_builtin("sarb", config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  EXPECT_EQ(load.value().current_tier, 0);

  const auto reply =
      client.run(load.value().session_id, "entropy_interface");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().tier, 0);

  // Bit-identical to a local plan-engine Machine.
  Machine local(fuliou::build_sarb_program(), InterpOptions{});
  const auto expected = local.call("entropy_interface");
  ASSERT_TRUE(expected.is_ok());
  EXPECT_EQ(reply.value().result, expected.value());

  // No native instance ever served: the report is null.
  const auto stats = client.stats(load.value().session_id);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"native_report\":null"), std::string::npos)
      << stats.value();
  EXPECT_TRUE(JsonCheck(stats.value()).ok()) << stats.value();
}

TEST(ServeServer, PromotionEndToEnd) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const TestDirs dirs = make_dirs("promo");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  const auto load = client.load_builtin("sarb", ExecConfig{});  // tier 1
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const std::uint64_t sid = load.value().session_id;
  // The cache is cold, so the load reply itself precedes any compile.
  EXPECT_EQ(load.value().current_tier, 0);

  // First run: the plan VM answers while the native kernel compiles.
  const auto first = client.run(sid, "entropy_interface");
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(first.value().tier, 0) << "first reply must be the plan VM";

  // Wait for the ladder, then the next reply must be native.
  server.compile_queue().wait_idle();
  const auto promoted = client.run(sid, "entropy_interface");
  ASSERT_TRUE(promoted.is_ok()) << promoted.status().to_string();
  const auto debug_stats = client.stats(sid);
  ASSERT_EQ(promoted.value().tier, 1)
      << "session stats: "
      << (debug_stats.is_ok() ? debug_stats.value() : "(unavailable)");

  // Interp-math native is bit-identical to the plan VM by contract.
  EXPECT_EQ(promoted.value().result, first.value().result);

  // And bit-identical to what a local `glafc --run`-equivalent Machine
  // computes for the same entry.
  Machine local(fuliou::build_sarb_program(), InterpOptions{});
  const auto expected = local.call("entropy_interface");
  ASSERT_TRUE(expected.is_ok());
  EXPECT_EQ(promoted.value().result, expected.value());

  // The stats endpoint records the promotion and both tiers' runs.
  const auto stats = client.stats(sid);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_NE(stats.value().find("\"tier\":\"native-interp\""),
            std::string::npos)
      << stats.value();
  EXPECT_NE(stats.value().find("\"promotions\":[{"), std::string::npos)
      << stats.value();
  EXPECT_NE(stats.value().find("\"runs_plan\":"), std::string::npos);
  // Rendered when the stats frame is read, from the pooled instance that
  // served the native run.
  EXPECT_GT(reported_native_calls(stats.value()), 0u) << stats.value();
  EXPECT_TRUE(JsonCheck(stats.value()).ok()) << stats.value();
}

TEST(ServeServer, StatsFramesDuringBatchFramesParseAndRepliesStayExact) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const TestDirs dirs = make_dirs("statsload");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client runner;
  ASSERT_TRUE(runner.connect(dirs.socket_path).is_ok());
  const auto load = runner.load_builtin("sarb", ExecConfig{});  // tier 1
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const std::uint64_t sid = load.value().session_id;
  server.compile_queue().wait_idle();
  Machine local(fuliou::build_sarb_program(), InterpOptions{});
  const auto expected = local.call("entropy_interface");
  ASSERT_TRUE(expected.is_ok());

  // A second connection reads stats frames for as long as the batches
  // run, so reads land while instances are leased, pooled and retired.
  std::atomic<bool> batches_done{false};
  std::vector<std::string> frames;
  std::string reader_error;
  std::thread reader([&] {
    Client c;
    const Status connected = c.connect(dirs.socket_path);
    if (!connected.is_ok()) {
      reader_error = connected.to_string();
      return;
    }
    do {
      const auto stats = c.stats(sid);
      if (!stats.is_ok()) {
        reader_error = stats.status().to_string();
        return;
      }
      frames.push_back(stats.value());
    } while (!batches_done.load(std::memory_order_acquire));
  });

  constexpr int kFrames = 4;
  constexpr std::uint32_t kRuns = 512;
  for (int f = 0; f < kFrames; ++f) {
    const auto batch =
        runner.run_batch(sid, "entropy_interface", kRuns, 0, {});
    EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
    if (!batch.is_ok()) break;
    EXPECT_EQ(batch.value().results.size(), kRuns);
    for (const RunReplyMsg& r : batch.value().results) {
      EXPECT_EQ(r.tier, 1);
      EXPECT_EQ(r.result, expected.value());
    }
  }
  batches_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(reader_error.empty()) << reader_error;
  EXPECT_FALSE(frames.empty());
  for (const std::string& frame : frames) {
    EXPECT_TRUE(JsonCheck(frame).ok()) << frame;
  }
  const auto after = runner.stats(sid);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_GT(reported_native_calls(after.value()), 0u) << after.value();
}

TEST(ServeServer, CompileFailureDegradesToPlanAndIsReported) {
  const TestDirs dirs = make_dirs("nocc");
  Server::Options options = server_options(dirs);
  options.cc = "/nonexistent/compiler";
  options.sync_compile = true;  // surface the failure deterministically
  Server server(options);
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  const auto load = client.load_builtin("sarb", ExecConfig{});
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  EXPECT_EQ(load.value().current_tier, 0) << "ladder cannot have climbed";

  const auto reply =
      client.run(load.value().session_id, "entropy_interface");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().tier, 0);

  const auto stats = client.stats(load.value().session_id);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_NE(stats.value().find("\"compile_error\":\""), std::string::npos);
  EXPECT_EQ(stats.value().find("\"compile_error\":\"\""), std::string::npos)
      << "compile_error should be nonempty: " << stats.value();
}

TEST(ServeServer, BatchMatchesSequentialRuns) {
  const TestDirs dirs = make_dirs("batch");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = client.load_builtin("sarb", config);
  ASSERT_TRUE(load.is_ok());
  const std::uint64_t sid = load.value().session_id;

  const auto single = client.run(sid, "entropy_interface");
  ASSERT_TRUE(single.is_ok());

  constexpr std::uint32_t kCount = 16;
  const auto batch =
      client.run_batch(sid, "entropy_interface", kCount, 0, {});
  ASSERT_TRUE(batch.is_ok()) << batch.status().to_string();
  ASSERT_EQ(batch.value().results.size(), kCount);
  for (const RunReplyMsg& r : batch.value().results) {
    EXPECT_EQ(r.result, single.value().result);
  }
  // The batcher must have coalesced the frame's 16 requests: they are
  // submitted back-to-back (microseconds) while each sweep runs a full
  // SARB call (milliseconds), so at least one drain sees several.
  const Batcher::Stats bstats = server.batcher().stats();
  EXPECT_EQ(bstats.requests, 1u + kCount);
  EXPECT_GE(bstats.max_batch, 2u) << "no coalescing happened";
  // The wire-visible counters agree.
  const auto stats = client.stats(0);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_NE(stats.value().find("\"batcher\":{"), std::string::npos)
      << stats.value();
}

TEST(ServeServer, ConcurrentClientsAllGetTheSameAnswer) {
  const TestDirs dirs = make_dirs("conc");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client loader;
  ASSERT_TRUE(loader.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = loader.load_builtin("sarb", config);
  ASSERT_TRUE(load.is_ok());
  const std::uint64_t sid = load.value().session_id;
  const auto expected = loader.run(sid, "entropy_interface");
  ASSERT_TRUE(expected.is_ok());

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 1);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c;
      if (!c.connect(dirs.socket_path).is_ok()) return;
      for (int run = 0; run < 4; ++run) {
        const auto r = c.run(sid, "entropy_interface");
        if (!r.is_ok() || r.value().result != expected.value().result) {
          return;
        }
      }
      failures[i] = 0;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(failures[i], 0) << "client " << i;
  }
}

TEST(ServeServer, SharedProgramAndConfigShareOneSession) {
  const TestDirs dirs = make_dirs("share");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client a;
  Client b;
  ASSERT_TRUE(a.connect(dirs.socket_path).is_ok());
  ASSERT_TRUE(b.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto la = a.load_builtin("sarb", config);
  const auto lb = b.load_builtin("sarb", config);
  ASSERT_TRUE(la.is_ok());
  ASSERT_TRUE(lb.is_ok());
  EXPECT_EQ(la.value().session_id, lb.value().session_id);
  EXPECT_EQ(la.value().program_hash, lb.value().program_hash);

  // A different config is a different session.
  config.policy = 3;
  const auto lc = a.load_builtin("sarb", config);
  ASSERT_TRUE(lc.is_ok());
  EXPECT_NE(lc.value().session_id, la.value().session_id);
}

TEST(ServeServer, LoadsSerializedSourcePrograms) {
  const TestDirs dirs = make_dirs("src");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const std::string source =
      serialize_program(fuliou::build_sarb_program());
  const auto load = client.load_source(source, config);
  ASSERT_TRUE(load.is_ok()) << load.status().to_string();
  const auto reply =
      client.run(load.value().session_id, "entropy_interface");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
}

TEST(ServeServer, TypedErrorsForBadRequests) {
  const TestDirs dirs = make_dirs("err");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());

  // Unknown session.
  const auto run = client.run(999999, "entropy_interface");
  ASSERT_FALSE(run.is_ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);

  // Unknown builtin.
  const auto load = client.load_builtin("nope", ExecConfig{});
  ASSERT_FALSE(load.is_ok());
  EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument);

  // Garbage source.
  const auto bad = client.load_source("(not a program", ExecConfig{});
  ASSERT_FALSE(bad.is_ok());

  // The connection survived all three errors.
  ExecConfig config;
  config.target_tier = 0;
  const auto good = client.load_builtin("sarb", config);
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
}

TEST(ServeServer, MalformedBytesKillOnlyThatConnection) {
  const TestDirs dirs = make_dirs("mal");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  // A well-behaved client first.
  Client good;
  ASSERT_TRUE(good.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = good.load_builtin("sarb", config);
  ASSERT_TRUE(load.is_ok());

  // Raw socket spraying garbage at the daemon.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, dirs.socket_path.c_str(),
              dirs.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char junk[] = "GET / HTTP/1.1\r\nHost: not-glaf\r\n\r\n";
  ASSERT_GT(::write(fd, junk, sizeof junk - 1), 0);
  // The daemon replies with a typed error frame and closes; drain it.
  char buf[512];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
  ::close(fd);

  // Another connection: half a frame, then vanish mid-request.
  const int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::vector<std::uint8_t> wire =
      encode_frame(Frame{MsgType::kRunEntry, {1, 2, 3, 4, 5, 6, 7, 8}});
  ASSERT_GT(::write(fd2, wire.data(), wire.size() - 3), 0);
  ::close(fd2);

  // The good client is unaffected.
  const auto reply =
      good.run(load.value().session_id, "entropy_interface");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();

  // And the server counted the abuse.
  const auto stats = good.stats(0);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_NE(stats.value().find("\"protocol_errors\":"), std::string::npos);
  EXPECT_EQ(stats.value().find("\"protocol_errors\":0,"),
            std::string::npos)
      << stats.value();
}

TEST(ServeServer, CraftedBatchHeadersGetTypedErrorsNotACrash) {
  const TestDirs dirs = make_dirs("craft");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client good;
  ASSERT_TRUE(good.connect(dirs.socket_path).is_ok());
  ExecConfig config;
  config.target_tier = 0;
  const auto load = good.load_builtin("sarb", config);
  ASSERT_TRUE(load.is_ok());

  // Raw socket: kRunBatch frames the client library would never build.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, dirs.socket_path.c_str(),
              dirs.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const auto expect_error_reply = [fd](std::uint32_t count,
                                       std::uint32_t num_args) {
    Writer w;
    w.u64(1);
    w.u32(0);  // deadline_ms
    w.str("entropy_interface");
    w.u32(count);
    w.u32(num_args);
    Frame frame;
    frame.type = MsgType::kRunBatch;
    frame.payload = std::move(w).take();
    ASSERT_TRUE(write_frame(fd, frame).is_ok());
    const auto reply = read_frame(fd);
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    EXPECT_EQ(reply.value().type, MsgType::kError);
  };
  // count*num_args wraps to 0 mod 2^64, "matching" the empty payload.
  expect_error_reply(0x80000000u, 0x40000000u);
  // Zero args per call: any count "matches"; 2^32-1 calls for 31 bytes.
  expect_error_reply(0xFFFFFFFFu, 0);
  ::close(fd);

  // The daemon survived both and still serves the well-behaved client.
  const auto reply =
      good.run(load.value().session_id, "entropy_interface");
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
}

TEST(ServeServer, ShutdownFrameStopsTheServer) {
  const TestDirs dirs = make_dirs("down");
  Server server(server_options(dirs));
  ASSERT_TRUE(server.start().is_ok());

  Client client;
  ASSERT_TRUE(client.connect(dirs.socket_path).is_ok());
  ASSERT_TRUE(client.shutdown_server().is_ok());

  // wait() returns because the client-initiated stop completed.
  server.wait();
  EXPECT_FALSE(server.running());

  // The socket is gone; new connections fail.
  Client late;
  EXPECT_FALSE(late.connect(dirs.socket_path).is_ok());
}

}  // namespace
}  // namespace glaf::serve
