#include "runtime/thread_pool.hpp"

#include <algorithm>

namespace glaf {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int rank = 1; rank < num_threads_; ++rank) {
    workers_.emplace_back([this, rank] { worker_main(rank); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
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
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_main(int rank) {
  std::int64_t seen_generation = 0;
  while (true) {
    // Spin phase: lock-free relaxed probes of the generation counter.
    // A dispatch that arrives within the spin budget skips the futex
    // wakeup; DESIGN.md §7.2 records how rarely back-to-back dispatches
    // manage that, since the caller's own wakeup outlasts the spin.
    for (int i = 0; i < kSpinIterations; ++i) {
      if (generation_.load(std::memory_order_acquire) != seen_generation) {
        break;
      }
    }
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!stop_ &&
          generation_.load(std::memory_order_relaxed) == seen_generation) {
        // Spin budget exhausted with no new job: park. parked_ is
        // maintained under the mutex, and the dispatcher bumps the
        // generation under the same mutex, so the park decision cannot
        // race a concurrent dispatch into a missed wakeup.
        ++parked_;
        parks_.fetch_add(1, std::memory_order_relaxed);
        start_cv_.wait(lock, [&] {
          return stop_ || generation_.load(std::memory_order_relaxed) !=
                              seen_generation;
        });
        --parked_;
      }
      if (stop_) return;
      seen_generation = generation_.load(std::memory_order_relaxed);
      job = job_;
    }
    run_chunk(job, rank);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk done: wake the caller. Taking the mutex before the
      // notify pairs with the caller's predicate check under the same
      // mutex, closing the missed-wakeup window.
      const std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::dispatch(std::int64_t n, ChunkFn invoke, void* ctx) {
  if (n <= 0) return;
  if (num_threads_ == 1) {
    invoke(ctx, 0, 0, n);
    return;
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  bool anyone_parked = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_.invoke = invoke;
    job_.ctx = ctx;
    job_.n = n;
    job_.chunks = num_threads_;
    first_error_ = nullptr;
    pending_.store(num_threads_ - 1, std::memory_order_relaxed);
    // Publish last, with release: a spinning worker that observes the
    // new generation sees the whole job descriptor.
    generation_.fetch_add(1, std::memory_order_release);
    anyone_parked = parked_ > 0;
  }
  if (anyone_parked) start_cv_.notify_all();
  run_chunk(job_, 0);  // rank 0 = calling thread
  // Spin for the workers' tails before blocking: with chunks this even,
  // they finish within the budget almost always.
  for (int i = 0; i < kSpinIterations; ++i) {
    if (pending_.load(std::memory_order_acquire) == 0) break;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Acquire, not relaxed: the last worker's fetch_sub can land before
    // it takes the mutex to notify, so the mutex alone does not order its
    // chunk before our return. Without the acquire, the caller could
    // reuse the job's callable (a stack lambda) while nothing orders the
    // workers' reads of it first.
    done_cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    if (first_error_) {
      std::exception_ptr e = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }
}

}  // namespace glaf
