#pragma once
// Warmed program sessions for the glaf-serve daemon. A Session owns a
// pool of ready-to-run Machine instances for one (program, config) key
// — constructed once (plans compiled, native kernel loaded when the
// session has been promoted) and leased out per request, so steady-state
// requests pay zero compilation, zero analysis, and zero allocation of
// program state.
//
// Tier promotion: a session starts on the plan VM (tier 0 — Machine
// construction is milliseconds) and the async compile queue climbs the
// ladder in the background: the bit-identical interp-math native kernel
// (tier 1), then the ulp-bounded opt kernel (tier 2) when requested.
// promote() only flips an atomic — instances at the new tier are built
// lazily on the next acquire, which by then is a pure kernel-cache hit.
// Outdated pooled instances are retired on release, so a promoted
// session converges to all-native without ever blocking a request.
//
// The session key is the jit cache hash lineage: a 128-bit FNV-1a digest
// over the serialized program text and the execution config, so two
// clients loading the same program with the same config share one warm
// pool, while any config difference (policy, tier ceiling, portability)
// gets its own.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "interp/machine.hpp"

namespace glaf::serve {

/// Execution tiers a session serves from, lowest to highest. Wire value
/// = enum value (RunReplyMsg::tier).
enum class Tier : std::uint8_t {
  kPlan = 0,         ///< flat-plan bytecode VM (no compiler involved)
  kNativeInterp = 1, ///< interp-math native kernel (bit-identical)
  kNativeOpt = 2,    ///< typed opt kernel (ulp-bounded)
};

[[nodiscard]] const char* to_string(Tier tier);

/// Per-session execution configuration (resolved from the wire
/// ExecConfig plus server-level defaults).
struct SessionConfig {
  Tier target_tier = Tier::kNativeInterp;  ///< compile ladder ceiling
  DirectivePolicy policy = DirectivePolicy::kV0;
  bool portable = false;      ///< opt tier without -march=native
  std::string cc;             ///< "" = $GLAF_CC / cc
  std::string cache_dir;      ///< "" = $GLAF_KERNEL_CACHE / XDG default
  /// Retain at most this many idle instances per tier (more are
  /// destroyed on release; acquire constructs on demand).
  std::size_t max_pool = 16;
  /// Circuit breaker: after this many consecutive native load/dispatch
  /// failures the session trips — demotes to the plan tier, quarantines
  /// the cache entry, and re-probes the promoted tier after the backoff
  /// (doubled per consecutive trip, capped at 32x).
  int breaker_threshold = 3;
  int breaker_backoff_ms = 1000;
};

/// One session stat snapshot (all counters monotonic).
struct SessionStats {
  std::uint64_t runs_plan = 0;
  std::uint64_t runs_native_interp = 0;
  std::uint64_t runs_native_opt = 0;
  std::uint64_t instances_created = 0;
  std::uint64_t instances_retired = 0;
  std::size_t pooled_idle = 0;
  Tier tier = Tier::kPlan;
  /// (tier, seconds since session creation) per completed promotion.
  std::vector<std::pair<Tier, double>> promotions;
  /// Nonempty when a background compile failed (the session then stays
  /// at the highest tier that did build).
  std::string compile_error;
  /// Circuit-breaker bookkeeping: native instances that refused to
  /// construct at a promoted tier, trips of the breaker, whether it is
  /// currently open (serving demoted at tier 0), and the last recorded
  /// trip reason.
  std::uint64_t native_load_failures = 0;
  std::uint64_t breaker_trips = 0;
  bool breaker_open = false;
  std::string breaker_reason;
};

class Session;

/// RAII lease of one warmed Machine. Runs happen through call(); the
/// instance returns to the pool (or retires, if the session promoted
/// underneath it) on destruction.
class Lease {
 public:
  Lease(Lease&& other) noexcept;
  Lease& operator=(Lease&&) = delete;
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease();

  /// The tier this instance executes at.
  [[nodiscard]] Tier tier() const { return tier_; }
  [[nodiscard]] Machine& machine() { return *machine_; }

 private:
  friend class Session;
  Lease(Session* session, std::unique_ptr<Machine> machine, Tier tier)
      : session_(session), machine_(std::move(machine)), tier_(tier) {}

  Session* session_ = nullptr;
  std::unique_ptr<Machine> machine_;
  Tier tier_ = Tier::kPlan;
};

class Session {
 public:
  /// Computes the session key and warms nothing yet; the first acquire
  /// builds the first instance. `program` is the validated program.
  Session(Program program, SessionConfig config);

  /// Full hex session key (program text + config digest).
  [[nodiscard]] const std::string& hash() const { return hash_; }
  /// Wire id: the first 8 bytes of the key.
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

  /// Current serving tier (atomic; promotions only ever raise it).
  [[nodiscard]] Tier tier() const {
    return static_cast<Tier>(tier_.load(std::memory_order_acquire));
  }

  /// Lease a warmed instance at the current tier, constructing one when
  /// the pool is empty. Construction failures (native engine refused at
  /// a promoted tier) degrade: the lease falls back to tier 0 rather
  /// than failing the request.
  [[nodiscard]] StatusOr<Lease> acquire();

  /// Raise the serving tier (no-op when `tier` is not above the current
  /// one). Called by the compile queue after the kernel object for
  /// `tier` is published in the cache; `object_path` is that published
  /// entry, remembered so a tripping circuit breaker can quarantine it.
  /// Fresh evidence of a working kernel also closes an open breaker.
  void promote(Tier tier, const std::string& object_path = "");

  /// Record a failed background compile (shows up in stats; the session
  /// keeps serving at its current tier).
  void record_compile_error(const std::string& message);

  /// Count one served run at `tier` (batcher bookkeeping).
  void record_run(Tier tier);

  [[nodiscard]] SessionStats stats() const;

  /// Stats as a JSON object: the counters above plus the promotion
  /// timeline and — once a native run has been served — a NativeReport
  /// under the same schema `glafc --json` prints, rendered at read time
  /// from the newest idle native instance.
  [[nodiscard]] std::string stats_json() const;

  /// InterpOptions a Machine of this session uses at `tier`. Exposed so
  /// the compile queue derives its jit options from the same source of
  /// truth (cache keys must match or the background compile is wasted).
  [[nodiscard]] InterpOptions machine_options(Tier tier) const;

 private:
  friend class Lease;
  /// Pool the instance, or retire it when outdated or the pool is full.
  void release(std::unique_ptr<Machine> machine, Tier tier);
  /// One native construction refused at a promoted tier: count it,
  /// quarantine the known cache entry, and trip the breaker at the
  /// configured threshold (demote to plan, schedule the re-probe).
  void note_native_failure(const std::string& reason);
  /// Re-probe: when an open breaker's backoff has elapsed, restore the
  /// promoted tier so the next construction tries native again.
  void maybe_close_breaker();

  const Program program_;
  const SessionConfig config_;
  std::string hash_;
  std::uint64_t id_ = 0;
  std::atomic<std::uint8_t> tier_{0};

  mutable std::mutex mutex_;
  /// Idle instances, each tagged with the tier it was built at.
  std::vector<std::pair<std::unique_ptr<Machine>, Tier>> idle_;
  SessionStats stats_;
  /// Circuit breaker (all under mutex_): consecutive native failures
  /// since the last success, the open flag + re-probe time, the highest
  /// tier ever promoted to (restored on re-probe), and the cache entry
  /// published by the most recent promotion (quarantined on trip).
  int consecutive_native_failures_ = 0;
  bool breaker_open_ = false;
  std::chrono::steady_clock::time_point breaker_reopen_at_{};
  std::uint8_t promoted_high_water_ = 0;
  std::string promoted_object_path_;
  /// Session creation time for the promotion timeline.
  const std::chrono::steady_clock::time_point created_;
  /// NativeReport JSON of the newest native instance built on a pool
  /// miss. stats_json renders the newest idle native instance itself and
  /// falls back to this only when every native instance is leased.
  std::string constructed_native_report_json_;
};

/// The daemon's session table: get-or-create keyed by session hash.
class SessionRegistry {
 public:
  struct Entry {
    std::shared_ptr<Session> session;
    bool created = false;  ///< this call created the session
  };

  /// Find or create the session for (program, config).
  Entry get_or_create(Program program, const SessionConfig& config);

  [[nodiscard]] std::shared_ptr<Session> find(std::uint64_t id) const;
  [[nodiscard]] std::vector<std::shared_ptr<Session>> all() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> by_hash_;
  std::map<std::uint64_t, std::shared_ptr<Session>> by_id_;
};

}  // namespace glaf::serve
