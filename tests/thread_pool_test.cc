// Tests for the fixed-size ThreadPool and its ParallelFor helper: lifecycle,
// full index coverage, exception propagation, nested calls, and a stress run
// with many tiny chunks.
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace preqr {
namespace {

TEST(ThreadPoolTest, ConstructAndTeardownVariousSizes) {
  for (int n : {1, 2, 4, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
  // <=0 falls back to the default size (at least one thread).
  ThreadPool def(0);
  EXPECT_GE(def.num_threads(), 1);
}

TEST(ThreadPoolTest, DefaultNumThreadsHonoursEnv) {
  setenv("PREQR_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3);
  setenv("PREQR_NUM_THREADS", "0", 1);  // invalid -> hardware default
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  unsetenv("PREQR_NUM_THREADS");
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (int64_t n : {0, 1, 7, 64, 1000}) {
      for (int64_t grain : {1, 3, 64, 1000}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h.store(0);
        // Note: the serial fast path may pass the whole range as one chunk,
        // so chunk sizes are not asserted — only exact index coverage.
        pool.ParallelFor(0, n, grain, [&](int64_t b, int64_t e) {
          ASSERT_LE(b, e);
          for (int64_t i = b; i < e; ++i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForNonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(10, 110, 7, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), (10 + 109) * 100 / 2);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [](int64_t b, int64_t) {
                         if (b == 42) throw std::runtime_error("chunk boom");
                       }),
      std::runtime_error);
  // The pool remains usable after an exception.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 16, 1,
                   [&](int64_t b, int64_t e) {
                     count.fetch_add(static_cast<int>(e - b));
                   });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 32);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Nested call: must complete inline without deadlocking the pool.
      pool.ParallelFor(0, 32, 4, [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
          hits[static_cast<size_t>(i * 32 + j)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, StressParallelForManyTinyChunks) {
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(0, 500, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) sum.fetch_add(1);
    });
  }
  EXPECT_EQ(sum.load(), 20 * 500);
}

TEST(ThreadPoolTest, GlobalPoolRebuild) {
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 2);
  std::atomic<int> count{0};
  ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 100);
  ThreadPool::SetGlobalThreads(0);  // restore default
}

}  // namespace
}  // namespace preqr
