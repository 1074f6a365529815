// Tests for the fixed-size ThreadPool and its ParallelFor helper: lifecycle,
// full index coverage, exception propagation, nested calls, a stress run
// with many tiny chunks, callers not waiting on helpers that never ran, and
// InlineScope keeping every chunk on the calling thread.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
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

// A caller waits for its chunks, not for the helpers it queued: with the
// only worker stuck inside another call's chunk, a second ParallelFor runs
// every chunk itself and must return while its helper is still queued.
TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnstartedHelpers) {
  ThreadPool pool(2);
  std::promise<void> entered_promise, release_promise;
  std::shared_future<void> worker_entered = entered_promise.get_future();
  std::shared_future<void> released = release_promise.get_future();
  std::thread blocker([&] {
    const std::thread::id caller = std::this_thread::get_id();
    // Two chunks: whichever thread claims first waits for the other, so
    // the worker always ends up holding one of them.
    pool.ParallelFor(0, 2, 1, [&](int64_t, int64_t) {
      if (std::this_thread::get_id() == caller) {
        worker_entered.wait();
      } else {
        entered_promise.set_value();
        released.wait();
      }
    });
  });
  worker_entered.wait();

  std::atomic<int> count{0};
  std::promise<void> done_promise;
  std::future<void> done = done_promise.get_future();
  std::thread second([&] {
    pool.ParallelFor(0, 4, 1, [&](int64_t b, int64_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
    done_promise.set_value();
  });
  const bool returned = done.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  // Release the worker before asserting, so a failure cannot hang the test.
  release_promise.set_value();
  second.join();
  blocker.join();
  EXPECT_TRUE(returned)
      << "ParallelFor blocked on a helper the busy worker never started";
  EXPECT_EQ(count.load(), 4);
}

// Under an InlineScope every chunk of a multi-chunk ParallelFor runs on the
// calling thread; scopes nest and restore the previous state, and a thread
// outside any scope still fans out.
TEST(ThreadPoolTest, InlineScopeRunsOnCaller) {
  ThreadPool pool(8);
  const std::thread::id caller = std::this_thread::get_id();
  // 64 chunks; returns the set of threads that ran one.
  auto runners = [&] {
    std::mutex mu;
    std::set<std::thread::id> ids;
    int64_t covered = 0;
    pool.ParallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      covered += e - b;
    });
    EXPECT_EQ(covered, 64);
    return ids;
  };
  const std::set<std::thread::id> only_caller{caller};
  {
    InlineScope outer;
    EXPECT_EQ(runners(), only_caller);
    {
      InlineScope inner;
      EXPECT_EQ(runners(), only_caller);
    }
    // Leaving the inner scope restores the outer one, not the default.
    EXPECT_EQ(runners(), only_caller);
  }
  // Out of every scope the pool fans out again: chunks that block until a
  // second thread joins in can only finish on more than one thread.
  std::atomic<int> started{0};
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, 2, 1, [&](int64_t, int64_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  });
  EXPECT_EQ(ids.size(), 2u);
  // A scope belongs to its thread: another thread's scope keeps that
  // thread's calls inline.
  std::thread other([&] {
    InlineScope scope;
    const std::set<std::thread::id> only_other{std::this_thread::get_id()};
    EXPECT_EQ(runners(), only_other);
  });
  other.join();
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
