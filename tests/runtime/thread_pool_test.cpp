#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace glaf {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::int64_t sum = 0;
  pool.parallel_for(100, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](int, std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](int, std::int64_t b, std::int64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, RanksAreDistinctAndBounded) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> rank_hits(4);
  pool.parallel_for(4000, [&](int rank, std::int64_t, std::int64_t) {
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, 4);
    rank_hits[rank].fetch_add(1);
  });
  int total = 0;
  for (auto& h : rank_hits) total += h.load();
  EXPECT_EQ(total, 4);  // one chunk per rank
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](int, std::int64_t b, std::int64_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](int, std::int64_t b, std::int64_t e) {
    ok.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ReductionViaPerThreadPartials) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 100000;
  std::vector<double> partial(4, 0.0);
  pool.parallel_for(kN, [&](int rank, std::int64_t b, std::int64_t e) {
    double s = 0.0;
    for (std::int64_t i = b; i < e; ++i) s += static_cast<double>(i);
    partial[static_cast<std::size_t>(rank)] += s;
  });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kN) * (kN - 1) / 2.0);
}

TEST(ThreadPool, ManySequentialRegions) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(64, [&](int, std::int64_t b, std::int64_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(ThreadPoolDynamic, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_dynamic(kN, 7, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolDynamic, ChunkSizesRespected) {
  ThreadPool pool(2);
  std::vector<std::int64_t> sizes;
  std::mutex m;
  pool.parallel_for_dynamic(100, 8, [&](int, std::int64_t b, std::int64_t e) {
    const std::lock_guard<std::mutex> lock(m);
    sizes.push_back(e - b);
  });
  std::int64_t total = 0;
  for (const std::int64_t s : sizes) {
    EXPECT_LE(s, 8);
    EXPECT_GE(s, 1);
    total += s;
  }
  EXPECT_EQ(total, 100);
}

TEST(ThreadPoolDynamic, DegenerateChunkClamped) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for_dynamic(10, 0, [&](int, std::int64_t b, std::int64_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPoolDynamic, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_dynamic(0, 4,
                            [&](int, std::int64_t, std::int64_t) {
                              called = true;
                            });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolDynamic, ReductionViaPartialsMatchesStatic) {
  ThreadPool pool(4);
  constexpr std::int64_t kN = 20000;
  std::atomic<std::int64_t> dynamic_sum{0};
  pool.parallel_for_dynamic(kN, 16, [&](int, std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    dynamic_sum.fetch_add(local);
  });
  EXPECT_EQ(dynamic_sum.load(), kN * (kN - 1) / 2);
}

}  // namespace
}  // namespace glaf
