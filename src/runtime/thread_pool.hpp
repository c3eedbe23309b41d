#pragma once
// A small fixed-size thread pool with a blocking parallel_for — the
// reproduction's stand-in for the OpenMP runtime. Work is divided into
// static contiguous chunks (one per worker), matching OMP's default static
// schedule for PARALLEL DO.
//
// Workers are persistent: spawned once in the constructor, they spin on
// the job generation counter between dispatches for about kSpinBudget
// (a pause per probe, a sched_yield every few dozen probes, so a
// co-located thread still runs), then park on std::atomic::wait. A
// dispatch publishes the job through the generation alone — no mutex —
// and issues a notify only when a worker is actually parked. The caller
// waits for its workers by spinning with the same yield and never parks:
// a hot pool is an active OpenMP runtime (about 1 us per empty
// fork/join), an idle one costs no CPU once the budget runs out.
//
// The public entry point is a template over the callable: a job is
// published to the workers as a raw function pointer plus an opaque
// context pointer (a function_ref, in effect), so dispatching a parallel
// region never allocates or copies a std::function. The callable only has
// to outlive the call, which it does — parallel_for blocks.
//
// Concurrency discipline (Core Guidelines CP.2/CP.3): workers share only
// the immutable job descriptor and a per-job atomic completion count; user
// code is responsible for the independence of its chunks, which in this
// project is established by the auto-parallelization verdicts.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace glaf {

class ThreadPool {
 public:
  /// How long an idle worker spins before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{100};

  /// Spawns `num_threads` workers (>=1). The calling thread also executes
  /// chunks, so total parallelism is num_threads (workers = n-1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return num_threads_; }

  /// Run fn(thread_rank, begin, end) over a static partition of [0, n)
  /// into size() chunks. Blocks until every chunk finished. Exceptions
  /// from chunks are captured and the first one is rethrown here.
  template <typename F>
  void parallel_for(std::int64_t n, F&& fn) {
    // The const_cast round-trips const callables through the opaque ctx
    // pointer; the trampoline restores the exact deduced type.
    dispatch(
        n,
        [](void* ctx, int rank, std::int64_t begin, std::int64_t end) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(rank, begin, end);
        },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Multi-thread dispatches issued so far (single-thread pools run
  /// inline and do not count). Diagnostics for the persistent-worker
  /// tests; relaxed reads, exact only when the pool is quiescent.
  [[nodiscard]] std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }
  /// Times any worker exhausted its spin budget and parked.
  /// dispatches() x workers minus parks() is the number of wakeups the
  /// spin phase absorbed without a syscall.
  [[nodiscard]] std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }

 private:
  /// Type-erased chunk invoker: ctx is the caller's callable.
  using ChunkFn = void (*)(void* ctx, int rank, std::int64_t begin,
                           std::int64_t end);

  struct Job {
    ChunkFn invoke = nullptr;
    void* ctx = nullptr;
    std::int64_t n = 0;
    int chunks = 0;
  };

  void dispatch(std::int64_t n, ChunkFn invoke, void* ctx);
  void worker_main(int rank);
  void run_chunk(const Job& job, int chunk);
  static void chunk_bounds(std::int64_t n, int chunks, int chunk,
                           std::int64_t* begin, std::int64_t* end);

  const int num_threads_;
  std::vector<std::thread> workers_;

  /// The current job: written by the caller before it bumps generation_
  /// (release), read by workers after they observe the bump (acquire).
  /// The caller writes the next one only after pending_ reached 0, so
  /// every worker has copied it by then.
  Job job_;
  /// Job sequence number; 32 bits so std::atomic::wait is a bare futex.
  std::atomic<std::uint32_t> generation_{0};
  /// Chunks of the current job not yet finished (workers only; the
  /// caller runs chunk 0 itself).
  std::atomic<int> pending_{0};
  /// Workers parked (or about to park) in generation_.wait. Paired with
  /// the generation through seq_cst so a dispatch either sees a parker
  /// and notifies, or the parker sees the new generation and never
  /// blocks.
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
  /// First exception of the current job. Written under error_mutex_;
  /// the caller reads it after pending_ reached 0 (acquire).
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> parks_{0};
};

}  // namespace glaf
