#include "serve/session.hpp"

#include <algorithm>

#include "core/serialize.hpp"
#include "interp/report_json.hpp"
#include "jit/cache.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace glaf::serve {

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::kPlan:
      return "plan";
    case Tier::kNativeInterp:
      return "native-interp";
    case Tier::kNativeOpt:
      return "native-opt";
  }
  return "?";
}

Lease::Lease(Lease&& other) noexcept
    : session_(other.session_), machine_(std::move(other.machine_)),
      tier_(other.tier_) {
  other.session_ = nullptr;
}

Lease::~Lease() {
  if (session_ != nullptr && machine_ != nullptr) {
    session_->release(std::move(machine_), tier_);
  }
}

Session::Session(Program program, SessionConfig config)
    : program_(std::move(program)), config_(std::move(config)),
      created_(std::chrono::steady_clock::now()) {
  // The key covers everything that changes execution results or the
  // compiled kernel's cache identity: the full program text and the
  // config knobs. The compiler identity is NOT folded in here — the jit
  // cache already keys it, and the session pool is process-local.
  const std::string config_text =
      cat("tier=", static_cast<int>(config_.target_tier), ";policy=",
          glaf::to_string(config_.policy), ";portable=",
          config_.portable ? 1 : 0);
  Hash128 h = fnv1a128(serialize_program(program_));
  h = fnv1a128(std::string(1, '\0'), h);
  h = fnv1a128(config_text, h);
  hash_ = hex_digest(h);
  id_ = fnv1a64(hash_);
}

InterpOptions Session::machine_options(Tier tier) const {
  InterpOptions o;
  // Sessions run each request serially and let the batcher provide
  // parallelism ACROSS requests: pooled instances never own a thread
  // pool, so a sweep of N requests is N independent serial kernels on
  // the server pool — one fork/join for the whole batch.
  o.engine = tier == Tier::kPlan ? ExecEngine::kPlan : ExecEngine::kNative;
  o.parallel = false;
  o.num_threads = 1;
  o.policy = config_.policy;
  o.native_cc = config_.cc;
  o.native_cache_dir = config_.cache_dir;
  o.native_model = tier == Tier::kNativeOpt ? NumericModel::kOpt
                                            : NumericModel::kInterp;
  o.native_portable = config_.portable;
  return o;
}

StatusOr<Lease> Session::acquire() {
  maybe_close_breaker();
  const Tier want = tier();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < idle_.size(); ++i) {
      if (idle_[i].second != want) continue;
      std::unique_ptr<Machine> machine = std::move(idle_[i].first);
      idle_.erase(idle_.begin() + static_cast<long>(i));
      return Lease(this, std::move(machine), want);
    }
  }
  // Pool miss: construct outside the lock (native construction dlopens
  // the cached kernel; plan construction compiles plans — neither may
  // serialize other acquires).
  auto machine = std::make_unique<Machine>(program_, machine_options(want));
  Tier got = want;
  if (want != Tier::kPlan) {
    std::string refusal;
    if (fault::should_fail("serve.pool.construct")) {
      refusal = "fault injected: native instance construction";
    } else if (!machine->native_report().available) {
      // The promoted kernel refused to load (e.g. the cache entry
      // vanished and no compiler is available): degrade to the plan
      // tier rather than failing the request.
      refusal = machine->native_report().fallback_reason.empty()
                    ? "native kernel refused to load"
                    : machine->native_report().fallback_reason;
    }
    if (!refusal.empty()) {
      note_native_failure(refusal);
      // Serve from a genuine plan-tier instance so the advertised tier
      // matches what actually executes.
      machine = std::make_unique<Machine>(program_,
                                          machine_options(Tier::kPlan));
      got = Tier::kPlan;
    } else {
      // Pool misses are rare: refresh stats_json's fallback report here.
      std::string report = native_report_json(machine->native_report());
      std::lock_guard<std::mutex> lock(mutex_);
      consecutive_native_failures_ = 0;
      constructed_native_report_json_ = std::move(report);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.instances_created;
  }
  return Lease(this, std::move(machine), got);
}

void Session::note_native_failure(const std::string& reason) {
  std::string quarantine;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.native_load_failures;
    ++consecutive_native_failures_;
    if (breaker_open_ ||
        consecutive_native_failures_ < config_.breaker_threshold) {
      return;
    }
    // Trip: demote the ladder to the plan tier and schedule the
    // re-probe. The backoff doubles per consecutive trip so a kernel
    // that keeps refusing costs ever fewer wasted constructions.
    breaker_open_ = true;
    ++stats_.breaker_trips;
    stats_.breaker_reason = reason;
    consecutive_native_failures_ = 0;
    const auto shift =
        std::min<std::uint64_t>(stats_.breaker_trips - 1, 5);
    breaker_reopen_at_ =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.breaker_backoff_ms << shift);
    tier_.store(static_cast<std::uint8_t>(Tier::kPlan),
                std::memory_order_release);
    quarantine = promoted_object_path_;
  }
  // Quarantine outside the lock (filesystem): the published entry this
  // session was promoted on is presumed bad; removing it makes the
  // re-probe recompile fresh instead of re-loading the same bytes.
  if (!quarantine.empty()) {
    jit::KernelCache(config_.cache_dir).invalidate(quarantine);
  }
}

void Session::maybe_close_breaker() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!breaker_open_ ||
      std::chrono::steady_clock::now() < breaker_reopen_at_) {
    return;
  }
  // Backoff elapsed: restore the promoted tier and let the next
  // construction probe the native path again. A failure re-trips with a
  // doubled backoff; a success resets the failure count.
  breaker_open_ = false;
  tier_.store(promoted_high_water_, std::memory_order_release);
}

void Session::release(std::unique_ptr<Machine> machine, Tier tier) {
  std::unique_ptr<Machine> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tier == this->tier() && idle_.size() < config_.max_pool) {
      idle_.emplace_back(std::move(machine), tier);
      return;
    }
    ++stats_.instances_retired;
    retired = std::move(machine);
  }
  // `retired` destructs here, outside the lock (dlclose + storage).
}

void Session::promote(Tier tier, const std::string& object_path) {
  std::uint8_t want = static_cast<std::uint8_t>(tier);
  std::uint8_t have = tier_.load(std::memory_order_acquire);
  while (want > have) {
    if (tier_.compare_exchange_weak(have, want, std::memory_order_acq_rel)) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        created_)
              .count();
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.promotions.emplace_back(tier, elapsed);
      // A freshly published kernel is evidence the native path works:
      // close an open breaker and remember what to quarantine next time.
      promoted_high_water_ = std::max(promoted_high_water_, want);
      if (!object_path.empty()) promoted_object_path_ = object_path;
      breaker_open_ = false;
      consecutive_native_failures_ = 0;
      return;
    }
  }
}

void Session::record_compile_error(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.compile_error = message;
}

void Session::record_run(Tier tier) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (tier) {
    case Tier::kPlan:
      ++stats_.runs_plan;
      break;
    case Tier::kNativeInterp:
      ++stats_.runs_native_interp;
      break;
    case Tier::kNativeOpt:
      ++stats_.runs_native_opt;
      break;
  }
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionStats out = stats_;
  out.pooled_idle = idle_.size();
  out.tier = static_cast<Tier>(tier_.load(std::memory_order_acquire));
  out.breaker_open = breaker_open_;
  return out;
}

std::string Session::stats_json() const {
  const SessionStats s = stats();
  std::string native_report;  // null until a native run has been served
  if (s.runs_native_interp + s.runs_native_opt > 0) {
    // Idle instances are only touched under mutex_, so the newest idle
    // native one is rendered here without racing a run.
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        std::find_if(idle_.rbegin(), idle_.rend(),
                     [](const auto& e) { return e.second != Tier::kPlan; });
    native_report = it == idle_.rend()
                        ? constructed_native_report_json_
                        : native_report_json(it->first->native_report());
  }
  JsonWriter w;
  const auto field = [&w](const char* key, const auto& value) {
    w.key(key);
    w.value(value);
  };
  w.begin_object();
  field("session_id", id_);
  field("program_hash", hash_);
  field("tier", to_string(s.tier));
  field("target_tier", to_string(config_.target_tier));
  field("policy", glaf::to_string(config_.policy));
  field("runs_plan", s.runs_plan);
  field("runs_native_interp", s.runs_native_interp);
  field("runs_native_opt", s.runs_native_opt);
  field("instances_created", s.instances_created);
  field("instances_retired", s.instances_retired);
  field("pooled_idle", static_cast<std::uint64_t>(s.pooled_idle));
  field("compile_error", s.compile_error);
  field("native_load_failures", s.native_load_failures);
  field("breaker_trips", s.breaker_trips);
  field("breaker_open", s.breaker_open);
  field("breaker_reason", s.breaker_reason);
  w.key("promotions");
  w.begin_array();
  for (const auto& [tier, seconds] : s.promotions) {
    w.begin_object();
    field("tier", to_string(tier));
    field("seconds_after_load", seconds);
    w.end_object();
  }
  w.end_array();
  w.key("native_report");
  w.raw(native_report.empty() ? "null" : native_report);
  w.end_object();
  return std::move(w).str();
}

SessionRegistry::Entry SessionRegistry::get_or_create(
    Program program, const SessionConfig& config) {
  // Build the candidate outside the lock (hashing only — sessions warm
  // lazily), then insert-or-discard under it.
  auto candidate = std::make_shared<Session>(std::move(program), config);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_hash_.find(candidate->hash());
  if (it != by_hash_.end()) return {it->second, false};
  by_hash_[candidate->hash()] = candidate;
  by_id_[candidate->id()] = candidate;
  return {candidate, true};
}

std::shared_ptr<Session> SessionRegistry::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_id_.find(id);
  return it != by_id_.end() ? it->second : nullptr;
}

std::vector<std::shared_ptr<Session>> SessionRegistry::all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(by_id_.size());
  for (const auto& [id, session] : by_id_) out.push_back(session);
  return out;
}

}  // namespace glaf::serve
