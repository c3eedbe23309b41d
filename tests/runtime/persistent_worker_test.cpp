// Persistent-worker tests for the spin-then-park thread pool. The pool
// spawns its workers once; between dispatches they spin on the job
// generation counter for a time budget (pausing, and yielding every few
// dozen probes) and park on std::atomic::wait when it runs out. These
// tests pin down the lifecycle invariants the fused-region dispatch path
// depends on (and run under TSan in CI via the `jit` label):
//
//  - worker identity is stable: a long burst of dispatches reuses the
//    same ranks, never spawning or losing a worker;
//  - back-to-back dispatches stay on the spin path (fewer parks than
//    dispatches), and an idle pool parks (it burns no more CPU than the
//    spin budget after its last dispatch);
//  - the park/wake handshake cannot deadlock: dispatches that arrive
//    while workers spin AND dispatches that arrive long after every
//    worker parked both complete;
//  - a pool whose workers share the caller's one CPU still completes
//    dispatches promptly, because every spinning thread yields;
//  - exceptions keep propagating, and the pool stays usable afterwards.
//
// The tests act only on their own threads (the affinity of the test
// thread, and the pools it builds).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sched.h>
#include <time.h>

#include <gtest/gtest.h>

#include "runtime/thread_pool.hpp"

namespace glaf {
namespace {

constexpr int kDispatches = 100;

TEST(PersistentWorkers, StableRankSetAcrossManyDispatches) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4);
  std::mutex mu;
  std::set<std::thread::id> worker_ids;
  std::vector<std::int64_t> sums(static_cast<std::size_t>(kDispatches), 0);
  for (int d = 0; d < kDispatches; ++d) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(1000, [&](int rank, std::int64_t begin,
                                std::int64_t end) {
      ASSERT_GE(rank, 0);
      ASSERT_LT(rank, pool.size());
      std::int64_t local = 0;
      for (std::int64_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
      if (rank != 0) {
        const std::lock_guard<std::mutex> lock(mu);
        worker_ids.insert(std::this_thread::get_id());
      }
    });
    sums[static_cast<std::size_t>(d)] = sum.load();
  }
  for (const std::int64_t s : sums) EXPECT_EQ(s, 999 * 1000 / 2);
  // Workers are persistent: across 100 dispatches only the three
  // constructor-spawned threads ever ran a non-zero rank.
  EXPECT_LE(worker_ids.size(), 3u);
  EXPECT_GE(worker_ids.size(), 1u);
  EXPECT_EQ(pool.dispatches(), static_cast<std::uint64_t>(kDispatches));
}

TEST(PersistentWorkers, BackToBackDispatchesStayOnTheSpinPath) {
  ThreadPool pool(4);
  // A hot burst with no idle gaps: a worker parks only when no dispatch
  // arrives within its spin budget, so the burst as a whole parks fewer
  // times than it dispatches (ideally never).
  constexpr int kBurst = 1000;
  std::atomic<std::int64_t> total{0};
  for (int d = 0; d < kBurst; ++d) {
    pool.parallel_for(64, [&](int, std::int64_t begin, std::int64_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 64 * kBurst);
  EXPECT_EQ(pool.dispatches(), static_cast<std::uint64_t>(kBurst));
  EXPECT_LT(pool.parks(), pool.dispatches());
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TEST(PersistentWorkers, IdlePoolParks) {
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  pool.parallel_for(16, [](int, std::int64_t, std::int64_t) {});
  // While the caller sleeps, each worker spins out its budget and parks:
  // the process burns at most budget x workers of CPU (plus slack for the
  // wake-ups and the clock), not the whole sleep.
  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double cpu = process_cpu_seconds() - cpu0;
  const double budget =
      std::chrono::duration<double>(ThreadPool::kSpinBudget).count() *
      (kThreads - 1);
  EXPECT_LT(cpu, budget + 0.005) << "idle workers kept spinning";
  EXPECT_GE(pool.parks(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(PersistentWorkers, CoLocatedPoolCompletesDispatchesPromptly) {
  // Pin the test thread to one CPU before building the pool, so every
  // worker inherits that CPU: caller and workers then take turns, and a
  // dispatch completes only as fast as the spinners yield to each other.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  constexpr int kBurst = 2000;
  std::atomic<std::int64_t> total{0};
  double seconds = 0.0;
  {
    ThreadPool pool(4);
    const auto t0 = std::chrono::steady_clock::now();
    for (int d = 0; d < kBurst; ++d) {
      pool.parallel_for(64, [&](int, std::int64_t begin, std::int64_t end) {
        total.fetch_add(end - begin, std::memory_order_relaxed);
      });
    }
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(total.load(), 64 * kBurst);
  // A spinner that never yields holds the CPU for a scheduler slice
  // (milliseconds) per dispatch; yielding ones take microseconds.
  EXPECT_LT(seconds, 2.0) << kBurst << " co-located dispatches";
}

TEST(PersistentWorkers, WakesParkedWorkersWithoutDeadlock) {
  ThreadPool pool(4);
  pool.parallel_for(16, [](int, std::int64_t, std::int64_t) {});
  // Let every worker exhaust its spin budget and park (the budget is
  // thousands of relaxed loads — microseconds; poll rather than guess).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.parks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(pool.parks(), 3u) << "workers never parked";
  // A dispatch against a fully parked pool must wake all of them.
  std::atomic<int> ranks_seen{0};
  pool.parallel_for(4, [&](int, std::int64_t begin, std::int64_t end) {
    ranks_seen.fetch_add(static_cast<int>(end - begin),
                         std::memory_order_relaxed);
  });
  EXPECT_EQ(ranks_seen.load(), 4);
  // And the park/wake cycle is repeatable.
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<std::int64_t> n{0};
    pool.parallel_for(100, [&](int, std::int64_t begin, std::int64_t end) {
      n.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(n.load(), 100) << round;
  }
}

TEST(PersistentWorkers, ExceptionsPropagateAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](int, std::int64_t begin, std::int64_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The failed dispatch must not wedge the generation/pending protocol.
  for (int d = 0; d < 10; ++d) {
    std::atomic<std::int64_t> n{0};
    pool.parallel_for(32, [&](int, std::int64_t begin, std::int64_t end) {
      n.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(n.load(), 32) << d;
  }
}

TEST(PersistentWorkers, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::int64_t sum = 0;
  pool.parallel_for(10, [&](int rank, std::int64_t begin, std::int64_t end) {
    EXPECT_EQ(rank, 0);
    for (std::int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
  // Inline execution bypasses the dispatch protocol entirely.
  EXPECT_EQ(pool.dispatches(), 0u);
  EXPECT_EQ(pool.parks(), 0u);
}

TEST(PersistentWorkers, ConcurrentCallersFromDifferentPoolsDoNotInterfere) {
  // Two pools side by side: each keeps its own generation protocol.
  ThreadPool a(2);
  ThreadPool b(3);
  std::atomic<std::int64_t> total_a{0};
  std::atomic<std::int64_t> total_b{0};
  std::thread ta([&] {
    for (int d = 0; d < 50; ++d) {
      a.parallel_for(128, [&](int, std::int64_t begin, std::int64_t end) {
        total_a.fetch_add(end - begin, std::memory_order_relaxed);
      });
    }
  });
  std::thread tb([&] {
    for (int d = 0; d < 50; ++d) {
      b.parallel_for(128, [&](int, std::int64_t begin, std::int64_t end) {
        total_b.fetch_add(end - begin, std::memory_order_relaxed);
      });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(total_a.load(), 128 * 50);
  EXPECT_EQ(total_b.load(), 128 * 50);
}

}  // namespace
}  // namespace glaf
