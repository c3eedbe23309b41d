#pragma once
// A small fixed-size thread pool with a blocking parallel_for — the
// reproduction's stand-in for the OpenMP runtime. Work is divided into
// static contiguous chunks (one per worker), matching OMP's default static
// schedule for PARALLEL DO.
//
// Workers are persistent: spawned once in the constructor, they spin
// briefly on the job generation counter between dispatches (catching
// back-to-back parallel regions — e.g. fused-region kernels issuing one
// dispatch per call — without a syscall) and park on a condition variable
// only after the spin budget runs out. The dispatcher bumps the
// generation under the pool mutex and notifies only when someone is
// actually parked, so a hot pool pays two atomic transitions per region
// and an idle pool costs no CPU.
//
// The public entry points are templates over the callable: a job is
// published to the workers as a raw function pointer plus an opaque
// context pointer (a function_ref, in effect), so dispatching a parallel
// region never allocates or copies a std::function. The callable only has
// to outlive the call, which it does — parallel_for blocks.
//
// Concurrency discipline (Core Guidelines CP.2/CP.3): workers share only
// the immutable job descriptor and a per-job atomic cursor; user code is
// responsible for the independence of its chunks, which in this project is
// established by the auto-parallelization verdicts.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace glaf {

class ThreadPool {
 public:
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

  /// OMP SCHEDULE(DYNAMIC, chunk): work is handed out in `chunk`-sized
  /// pieces from a shared cursor, so uneven iteration costs balance.
  /// Same calling convention and error behaviour as parallel_for.
  template <typename F>
  void parallel_for_dynamic(std::int64_t n, std::int64_t chunk, F&& fn) {
    if (n <= 0) return;
    chunk = std::max<std::int64_t>(1, chunk);
    std::atomic<std::int64_t> cursor{0};
    // One static slot per worker; each slot drains the shared cursor.
    parallel_for(num_threads_,
                 [&](int rank, std::int64_t /*begin*/, std::int64_t /*end*/) {
                   while (true) {
                     const std::int64_t start =
                         cursor.fetch_add(chunk, std::memory_order_relaxed);
                     if (start >= n) break;
                     fn(rank, start,
                        std::min<std::int64_t>(n, start + chunk));
                   }
                 });
  }

  /// Multi-thread dispatches issued so far (single-thread pools run
  /// inline and do not count). Diagnostics for the persistent-worker
  /// tests; relaxed reads, exact only when the pool is quiescent.
  [[nodiscard]] std::uint64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }
  /// Times any worker exhausted its spin budget and blocked on the
  /// condition variable. dispatches() x workers minus parks() is the
  /// number of wakeups the spin phase absorbed without a syscall.
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

  /// Relaxed generation probes a worker makes before parking. Roughly
  /// tens of microseconds of spinning — enough to bridge the gap between
  /// the regions of one kernel call, short enough that an idle pool
  /// parks promptly.
  static constexpr int kSpinIterations = 4096;

  void dispatch(std::int64_t n, ChunkFn invoke, void* ctx);
  void worker_main(int rank);
  void run_chunk(const Job& job, int chunk);
  static void chunk_bounds(std::int64_t n, int chunks, int chunk,
                           std::int64_t* begin, std::int64_t* end);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Job job_;
  /// Job sequence number. Written under mutex_; read with relaxed loads
  /// in the workers' spin phase (acquire on the transition) so spinning
  /// never touches the lock.
  std::atomic<std::int64_t> generation_{0};
  /// Chunks of the current job not yet finished (workers only; the
  /// caller runs chunk 0 itself).
  std::atomic<int> pending_{0};
  /// Workers currently blocked in start_cv_.wait (maintained under
  /// mutex_): the dispatcher skips notify_all when every worker is still
  /// spinning.
  int parked_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> parks_{0};
};

}  // namespace glaf
