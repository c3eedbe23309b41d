#include "serve/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>

#include "core/serialize.hpp"
#include "core/validate.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace glaf::serve {

namespace {

/// SIGPIPE would kill the daemon on a write to a half-closed socket;
/// every write path checks errno instead. Installed once, process-wide.
void ignore_sigpipe() {
  static const bool once = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)once;
}

}  // namespace

StatusOr<SessionConfig> resolve_config(const ExecConfig& wire,
                                       const Server::Options& server) {
  if (wire.target_tier > 2) {
    return invalid_argument("target_tier out of range (0..2)");
  }
  if (wire.policy > 3) {
    return invalid_argument("policy out of range (v0..v3)");
  }
  SessionConfig config;
  config.target_tier = static_cast<Tier>(wire.target_tier);
  config.policy = static_cast<DirectivePolicy>(wire.policy);
  config.portable = wire.portable;
  config.cc = server.cc;
  config.cache_dir = server.cache_dir;
  config.max_pool = server.max_pool;
  config.breaker_threshold = server.breaker_threshold;
  config.breaker_backoff_ms = server.breaker_backoff_ms;
  return config;
}

StatusOr<Program> resolve_program(const LoadProgramMsg& msg) {
  Program program;
  if (!msg.builtin.empty()) {
    if (!msg.source.empty()) {
      return invalid_argument("load: builtin and source are exclusive");
    }
    if (msg.builtin == "sarb") {
      program = fuliou::build_sarb_program();
    } else if (msg.builtin == "fun3d") {
      program = fun3d::build_fun3d_glaf_program();
    } else {
      return invalid_argument("unknown builtin '" + msg.builtin +
                              "' (try sarb or fun3d)");
    }
  } else if (!msg.source.empty()) {
    StatusOr<Program> parsed = parse_program(msg.source);
    if (!parsed.is_ok()) return parsed.status();
    program = std::move(parsed).value();
  } else {
    return invalid_argument("load: neither builtin nor source given");
  }
  const std::vector<Diagnostic> diags = validate(program);
  if (!is_valid(diags)) {
    std::string detail = "program failed validation";
    for (const Diagnostic& d : diags) {
      if (d.severity != Severity::kError) continue;
      detail += "; " + d.where + ": " + d.message;
    }
    return invalid_argument(detail);
  }
  return program;
}

Server::Server(Options options)
    : options_(std::move(options)),
      batcher_(Batcher::Options{options_.threads, options_.max_batch}) {}

Server::~Server() { stop(); }

Status Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return failed_precondition("server already running");
  }
  if (options_.socket_path.empty()) {
    return invalid_argument("no socket path");
  }
  ignore_sigpipe();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return invalid_argument("socket path too long: " + options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return internal_error(std::string("socket: ") + std::strerror(errno));
  }
  // A stale socket file from a crashed daemon blocks bind; remove it.
  // A LIVE daemon on the path is also clobbered — single-owner paths
  // are the deployment contract (the CLI defaults to a per-user path).
  ::unlink(options_.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        internal_error("bind " + options_.socket_path + ": " +
                       std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st =
        internal_error(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }

  listen_fd_.store(fd, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_ = false;
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_main(); });
  return Status::ok();
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Either never started, or another thread is (or finished) tearing
    // down — a client kShutdown races the destructor here. Wait for the
    // in-flight stop so the caller may safely destroy the server.
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopped_; });
    return;
  }
  // Closing the listener makes poll() in accept_main return; the
  // running_ flag makes it exit.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) ::close(lfd);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Wake every connection reader blocked in read_frame. Setting
  // stopping_ under conn_mutex_ first hands this thread sole ownership
  // of every remaining reader handle: a reader that reaches its
  // self-cleanup after this point leaves its handle for us to join,
  // and one that cleaned up before is no longer in the snapshot.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    stopping_ = true;
    conns = connections_;
  }
  for (const auto& conn : conns) {
    conn->open.store(false, std::memory_order_release);
    // fd is guarded by write_mutex: the reader may be closing it
    // concurrently, and shutdown(2) on a recycled descriptor would hit
    // an unrelated connection.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.clear();
    stopping_ = false;  // the server object is reusable after stop()
  }
  ::unlink(options_.socket_path.c_str());
  {
    // Notify under the lock: a waiter may destroy this object the
    // moment it observes stopped_, so the cv must not be touched after
    // the mutex is released.
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_ = true;
    stop_cv_.notify_all();
  }
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stopped_; });
}

void Server::drain() {
  if (!running_.load(std::memory_order_acquire)) {
    stop();
    return;
  }
  draining_.store(true, std::memory_order_release);
  // Stop accepting: closing the listener makes accept_main exit (the
  // exchange also keeps the later stop() from double-closing). Existing
  // connections stay alive so pending replies, kHealth and kStats still
  // flow.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) ::close(lfd);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_timeout_ms);
  while (inflight_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
  draining_.store(false, std::memory_order_release);
}

HealthReplyMsg Server::health() const {
  HealthReplyMsg h;
  const bool draining = draining_.load(std::memory_order_acquire);
  h.ready =
      running_.load(std::memory_order_acquire) && !draining ? 1 : 0;
  h.draining = draining ? 1 : 0;
  const std::vector<std::shared_ptr<Session>> sessions = registry_.all();
  h.sessions = static_cast<std::uint32_t>(sessions.size());
  for (const std::shared_ptr<Session>& session : sessions) {
    h.top_tier = std::max(h.top_tier,
                          static_cast<std::uint8_t>(session->tier()));
  }
  h.inflight =
      static_cast<std::uint32_t>(inflight_.load(std::memory_order_acquire));
  h.queued = static_cast<std::uint32_t>(batcher_.queued());
  h.compile_queued = static_cast<std::uint32_t>(compile_queue_.depth());
  h.max_inflight = static_cast<std::uint32_t>(options_.max_inflight);
  return h;
}

bool Server::admit_runs(const std::shared_ptr<Connection>& conn,
                        std::size_t count, Status* why) {
  if (draining_.load(std::memory_order_acquire)) {
    ++requests_shed_;
    *why = busy("server is draining; retry against its replacement");
    return false;
  }
  // The increments race other admitters, so the bound can overshoot by
  // the number of racing connections — admission control is a load
  // valve, not an exact semaphore. Undershoot never happens: every
  // admitted slot is balanced by exactly one finish_run().
  if (options_.max_inflight != 0 &&
      inflight_.load(std::memory_order_acquire) + count >
          options_.max_inflight) {
    ++requests_shed_;
    *why = busy(cat("server at capacity (", options_.max_inflight,
                    " requests in flight); retry with backoff"));
    return false;
  }
  if (options_.max_conn_pending != 0 &&
      conn->pending.load(std::memory_order_acquire) + count >
          options_.max_conn_pending) {
    ++requests_shed_;
    *why = busy(cat("connection has ", options_.max_conn_pending,
                    " unanswered requests; read replies before sending"
                    " more"));
    return false;
  }
  inflight_.fetch_add(count, std::memory_order_acq_rel);
  conn->pending.fetch_add(count, std::memory_order_acq_rel);
  return true;
}

void Server::finish_run(const std::shared_ptr<Connection>& conn) {
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  conn->pending.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::accept_main() {
  while (running_.load(std::memory_order_acquire)) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // stop() already reclaimed the listener
    pollfd pfd{lfd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (!running_.load(std::memory_order_acquire)) return;
    if (rc <= 0) continue;  // timeout or EINTR: re-check the flag
    const int client = ::accept(lfd, nullptr, nullptr);
    if (client < 0) continue;
    if (fault::should_fail("serve.accept")) {
      // The connection dies at birth (accept-time resource exhaustion,
      // a load balancer yanking the peer). Clients see a reset and must
      // reconnect.
      ::close(client);
      continue;
    }

    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    {
      // Assign the reader handle under conn_mutex_: a connection that
      // dies instantly reaches its self-cleanup (which takes this
      // mutex before touching conn->reader) only after the assignment
      // is complete.
      std::lock_guard<std::mutex> lock(conn_mutex_);
      ++connections_total_;
      connections_.push_back(conn);
      conn->reader = std::thread([this, conn] { connection_main(conn); });
    }
  }
}

void Server::connection_main(const std::shared_ptr<Connection>& conn) {
  // One decoder for the connection's lifetime: a single read(2) may
  // deliver the tail of one frame plus the head (or all) of the next
  // pipelined one, and those buffered bytes must survive to the next
  // loop iteration — a fresh decoder per frame would drop them.
  FrameDecoder decoder;
  while (conn->open.load(std::memory_order_acquire)) {
    StatusOr<Frame> frame = read_frame(conn->fd, decoder);
    if (!frame.is_ok()) {
      // Clean close at a frame boundary is the normal goodbye; anything
      // else (poisoned decoder, mid-frame EOF, socket error) gets a
      // best-effort typed error reply before the connection dies. The
      // daemon survives either way.
      if (frame.status().code() != StatusCode::kFailedPrecondition) {
        {
          std::lock_guard<std::mutex> lock(conn_mutex_);
          ++protocol_errors_;
        }
        send(conn, error_frame(frame.status()));
      }
      break;
    }
    bool keep = true;
    try {
      keep = handle_frame(conn, frame.value());
    } catch (const std::exception& e) {
      // Handlers are Status-based, but allocation can still throw on a
      // giant-yet-well-formed request; "never a crash on input bytes"
      // means containing that too. Best-effort error, drop the client.
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        ++protocol_errors_;
      }
      send(conn, error_frame(internal_error(
                     std::string("request failed: ") + e.what())));
      keep = false;
    }
    if (!keep) break;
  }

  conn->open.store(false, std::memory_order_release);
  {
    // Close under write_mutex: a batcher done-callback that already
    // passed send()'s open check must find fd == -1 here rather than
    // write into a closed — or worse, recycled — descriptor.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    ::close(conn->fd);
    conn->fd = -1;
  }
  std::lock_guard<std::mutex> lock(conn_mutex_);
  // During stop() the handle belongs to stop(), which is about to join
  // this very thread; touching it here would race that join.
  if (stopping_) return;
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    if (it->get() == conn.get()) {
      // The reader thread is *this* thread: detach so the vector's
      // thread handle can be destroyed while we finish up. Safe against
      // stop(): it only joins handles after setting stopping_ under
      // conn_mutex_, which we hold.
      if (it->get()->reader.joinable()) it->get()->reader.detach();
      connections_.erase(it);
      break;
    }
  }
}

bool Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      HelloReplyMsg reply;
      reply.server_pid = static_cast<std::uint64_t>(::getpid());
      send(conn, encode(reply));
      return true;
    }
    case MsgType::kLoadProgram:
      handle_load(conn, frame);
      return true;
    case MsgType::kRunEntry:
      handle_run(conn, frame);
      return true;
    case MsgType::kRunBatch:
      handle_batch(conn, frame);
      return true;
    case MsgType::kStats:
      handle_stats(conn, frame);
      return true;
    case MsgType::kHealth:
      send(conn, encode(health()));
      return true;
    case MsgType::kShutdown: {
      send(conn, Frame{MsgType::kShutdownOk, {}});
      // stop() joins this very reader thread; hand the job to a
      // detached thread and let the reader exit normally.
      std::thread([this] { stop(); }).detach();
      return false;
    }
    default: {
      // Unknown or reply-typed frames: typed error, connection lives.
      send(conn, error_frame(invalid_argument(
                     "unsupported message type " +
                     std::to_string(static_cast<unsigned>(frame.type)))));
      return true;
    }
  }
}

void Server::handle_load(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  const StatusOr<LoadProgramMsg> msg = decode_load_program(frame);
  if (!msg.is_ok()) {
    send(conn, error_frame(msg.status()));
    return;
  }
  const StatusOr<SessionConfig> config =
      resolve_config(msg.value().config, options_);
  if (!config.is_ok()) {
    send(conn, error_frame(config.status()));
    return;
  }
  StatusOr<Program> program = resolve_program(msg.value());
  if (!program.is_ok()) {
    send(conn, error_frame(program.status()));
    return;
  }

  const SessionRegistry::Entry entry =
      registry_.get_or_create(std::move(program).value(), config.value());
  if (entry.created && config.value().target_tier > Tier::kPlan) {
    compile_queue_.enqueue(entry.session);
    if (options_.sync_compile) compile_queue_.wait_idle();
  }

  LoadReplyMsg reply;
  reply.session_id = entry.session->id();
  reply.current_tier = static_cast<std::uint8_t>(entry.session->tier());
  reply.program_hash = entry.session->hash();
  send(conn, encode(reply));
}

void Server::handle_run(const std::shared_ptr<Connection>& conn,
                        const Frame& frame) {
  const StatusOr<RunEntryMsg> msg = decode_run_entry(frame);
  if (!msg.is_ok()) {
    send(conn, error_frame(msg.status()));
    return;
  }
  std::shared_ptr<Session> session = registry_.find(msg.value().session_id);
  if (!session) {
    send(conn, error_frame(not_found(
                   "unknown session id " +
                   std::to_string(msg.value().session_id))));
    return;
  }
  Status shed;
  if (!admit_runs(conn, 1, &shed)) {
    send(conn, error_frame(shed));
    return;
  }
  RunRequest request;
  request.session = std::move(session);
  request.entry = msg.value().entry;
  request.args = msg.value().args;
  if (msg.value().deadline_ms > 0) {
    request.has_deadline = true;
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(msg.value().deadline_ms);
  }
  request.done = [this, conn](StatusOr<double> result, Tier tier) {
    if (!result.is_ok()) {
      send(conn, error_frame(result.status()));
    } else {
      RunReplyMsg reply;
      reply.tier = static_cast<std::uint8_t>(tier);
      reply.result = result.value();
      send(conn, encode(reply));
    }
    finish_run(conn);
  };
  batcher_.submit(std::move(request));
}

void Server::handle_batch(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  const StatusOr<RunBatchMsg> msg = decode_run_batch(frame);
  if (!msg.is_ok()) {
    send(conn, error_frame(msg.status()));
    return;
  }
  const RunBatchMsg& batch = msg.value();
  std::shared_ptr<Session> session = registry_.find(batch.session_id);
  if (!session) {
    send(conn, error_frame(not_found("unknown session id " +
                                     std::to_string(batch.session_id))));
    return;
  }
  if (batch.count == 0) {
    send(conn, encode(BatchReplyMsg{}));
    return;
  }
  Status shed;
  if (!admit_runs(conn, batch.count, &shed)) {
    send(conn, error_frame(shed));
    return;
  }
  std::chrono::steady_clock::time_point deadline{};
  const bool has_deadline = batch.deadline_ms > 0;
  if (has_deadline) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(batch.deadline_ms);
  }

  // Shared collector: each sub-request fills its slot; the last one to
  // land writes the reply. Completion callbacks all run serially on the
  // batcher dispatcher, but a batch larger than max_batch spans several
  // sweeps, so the counter still has to be the source of truth.
  struct Collector {
    std::mutex mutex;
    std::vector<RunReplyMsg> results;
    std::size_t remaining = 0;
    Status first_error;
  };
  auto collector = std::make_shared<Collector>();
  collector->results.resize(batch.count);
  collector->remaining = batch.count;

  for (std::uint32_t i = 0; i < batch.count; ++i) {
    RunRequest request;
    request.session = session;
    request.entry = batch.entry;
    request.args.assign(
        batch.scalars.begin() + static_cast<std::ptrdiff_t>(i) * batch.num_args,
        batch.scalars.begin() +
            static_cast<std::ptrdiff_t>(i + 1) * batch.num_args);
    request.has_deadline = has_deadline;
    request.deadline = deadline;
    request.done = [this, conn, collector, i](StatusOr<double> result,
                                              Tier tier) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(collector->mutex);
        if (result.is_ok()) {
          collector->results[i].tier = static_cast<std::uint8_t>(tier);
          collector->results[i].result = result.value();
        } else if (collector->first_error.is_ok()) {
          collector->first_error = result.status();
        }
        last = (--collector->remaining == 0);
      }
      if (last) {
        if (!collector->first_error.is_ok()) {
          send(conn, error_frame(collector->first_error));
        } else {
          send(conn, encode(BatchReplyMsg{std::move(collector->results)}));
        }
      }
      finish_run(conn);
    };
    batcher_.submit(std::move(request));
  }
}

void Server::handle_stats(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  const StatusOr<StatsMsg> msg = decode_stats(frame);
  if (!msg.is_ok()) {
    send(conn, error_frame(msg.status()));
    return;
  }
  StatsReplyMsg reply;
  if (msg.value().session_id == 0) {
    reply.json = stats_json();
  } else {
    const std::shared_ptr<Session> session =
        registry_.find(msg.value().session_id);
    if (!session) {
      send(conn, error_frame(not_found(
                     "unknown session id " +
                     std::to_string(msg.value().session_id))));
      return;
    }
    reply.json = session->stats_json();
  }
  send(conn, encode(reply));
}

std::string Server::stats_json() const {
  const Batcher::Stats bstats = batcher_.stats();
  std::uint64_t conns_total = 0;
  std::uint64_t proto_errors = 0;
  std::size_t conns_open = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns_total = connections_total_;
    proto_errors = protocol_errors_;
    conns_open = connections_.size();
  }
  JsonWriter w;
  w.begin_object();
  w.key("pid");
  w.value(static_cast<std::uint64_t>(::getpid()));
  w.key("threads");
  w.value(options_.threads);
  w.key("connections_total");
  w.value(conns_total);
  w.key("connections_open");
  w.value(static_cast<std::uint64_t>(conns_open));
  w.key("protocol_errors");
  w.value(proto_errors);
  w.key("compiles_completed");
  w.value(compile_queue_.completed());
  w.key("draining");
  w.value(draining_.load(std::memory_order_acquire));
  w.key("inflight");
  w.value(static_cast<std::uint64_t>(
      inflight_.load(std::memory_order_acquire)));
  w.key("requests_shed");
  w.value(requests_shed_.load(std::memory_order_acquire));
  w.key("batcher");
  w.begin_object();
  w.key("requests");
  w.value(bstats.requests);
  w.key("batches");
  w.value(bstats.batches);
  w.key("max_batch");
  w.value(bstats.max_batch);
  w.key("deadline_expired");
  w.value(bstats.deadline_expired);
  w.end_object();
  w.key("sessions");
  w.begin_array();
  for (const std::shared_ptr<Session>& session : registry_.all()) {
    w.raw(session->stats_json());
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

void Server::send(const std::shared_ptr<Connection>& conn,
                  const Frame& frame) {
  if (!conn->open.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  // Re-check under the lock: the reader closes fd (and sets it to -1)
  // under write_mutex, so a callback that passed the open check above
  // while the connection was dying cannot reach write(2) on a closed
  // or recycled descriptor.
  if (conn->fd < 0 || !conn->open.load(std::memory_order_acquire)) return;
  const Status st = write_frame(conn->fd, frame, options_.write_timeout_ms);
  if (!st.is_ok()) {
    // Peer is gone (or stopped reading long enough to blow the write
    // timeout); pending callbacks see open == false and drop. The reply
    // is lost, so end the connection: shutdown (on the fd this lock
    // keeps valid) wakes the reader blocked in read_frame, which closes
    // it, and the client sees EOF instead of waiting out its read
    // timeout.
    conn->open.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

}  // namespace glaf::serve
