#pragma once
// In-memory span recorder for the traced benchmark run. Spans carry a
// name ("layer.stage"), start and end times, the parent span on the same
// thread, and an optional request id. They stay in per-thread buffers
// until the run ends, when they are written as Chrome trace-event JSON
// (open in chrome://tracing or Perfetto) and folded into per-layer self
// times. While tracing is off a span costs one relaxed atomic load.
//
// Spans are recorded only around the harness's own calls into the
// library's public functions; nothing inside the library is instrumented.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Open a span on the calling thread; returns its handle, or -1 when
  /// tracing is off or the span budget is spent.
  int open(const char* name);
  void close(int handle);
  /// Request id stamped on spans the calling thread opens from now on
  /// (0 = none).
  void set_request(std::uint64_t id);

  /// Total self time (span duration minus its children's) per layer, the
  /// part of the span name before the first '.'. Milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Write at most `max_events` spans as Chrome trace-event JSON.
  bool write_chrome(const std::string& path, std::uint64_t max_events) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> budget_used_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : handle_(Tracer::get().enabled() ? Tracer::get().open(name) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) Tracer::get().close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int handle_;
};

/// Run `fn` inside a span named `name` and return its wall time in
/// milliseconds (the span and the measurement cover the same interval).
template <typename Fn>
double timed_ms(const char* name, Fn&& fn) {
  ScopedSpan span(name);
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

}  // namespace perfbench
