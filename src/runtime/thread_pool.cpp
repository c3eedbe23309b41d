#include "runtime/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace glaf {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spinning threads yield the CPU once every this many pause probes
/// (about a microsecond of spinning). Without the yield, a caller whose
/// workers share its CPU waits out a scheduler slice, milliseconds, per
/// dispatch.
constexpr int kYieldEvery = 64;

/// One spin probe: a pause, and every kYieldEvery probes a sched_yield so
/// a thread sharing this CPU (a worker, the caller, a server thread)
/// gets to run. Returns true on the probes that yielded.
inline bool spin_step(int* probes) {
  cpu_relax();
  if (++*probes % kYieldEvery != 0) return false;
  sched_yield();
  return true;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int rank = 1; rank < num_threads_; ++rank) {
    workers_.emplace_back([this, rank] { worker_main(rank); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::chunk_bounds(std::int64_t n, int chunks, int chunk,
                              std::int64_t* begin, std::int64_t* end) {
  const std::int64_t base = n / chunks;
  const std::int64_t extra = n % chunks;
  *begin = chunk * base + std::min<std::int64_t>(chunk, extra);
  *end = *begin + base + (chunk < extra ? 1 : 0);
}

void ThreadPool::run_chunk(const Job& job, int chunk) {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  chunk_bounds(job.n, job.chunks, chunk, &begin, &end);
  if (begin >= end) return;
  try {
    job.invoke(job.ctx, chunk, begin, end);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_main(int rank) {
  std::uint32_t seen = 0;
  while (true) {
    // Spin phase: pause probes of the generation, bounded by wall time
    // (checked only when yielding, so the clock is read rarely).
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    int probes = 0;
    while (generation_.load(std::memory_order_acquire) == seen) {
      if (spin_step(&probes) &&
          std::chrono::steady_clock::now() >= deadline) {
        // Budget exhausted: park. Announce first, then re-check the
        // generation inside wait(); see sleepers_ for why no dispatch
        // can slip between the two.
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        parks_.fetch_add(1, std::memory_order_relaxed);
        while (generation_.load(std::memory_order_seq_cst) == seen) {
          generation_.wait(seen, std::memory_order_seq_cst);
        }
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
    }
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    const Job job = job_;
    run_chunk(job, rank);
    // Release: the caller's acquire on pending_ orders this chunk's
    // writes (and any first_error_) before its return.
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::dispatch(std::int64_t n, ChunkFn invoke, void* ctx) {
  if (n <= 0) return;
  if (num_threads_ == 1) {
    invoke(ctx, 0, 0, n);
    return;
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  job_ = Job{invoke, ctx, n, num_threads_};
  first_error_ = nullptr;
  pending_.store(num_threads_ - 1, std::memory_order_relaxed);
  // Publish last: a worker that observes the new generation sees the
  // whole job. seq_cst orders the bump before the sleepers_ load.
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    generation_.notify_all();
  }
  run_chunk(job_, 0);  // rank 0 = calling thread
  // Spin for the workers' tails, yielding so a worker that shares this
  // CPU can finish; the caller never parks.
  int probes = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    spin_step(&probes);
  }
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace glaf
