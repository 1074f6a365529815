#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace preqr {

namespace {

// Set while a thread is executing pool work (either a worker thread or the
// caller running ParallelFor chunks). Nested parallel calls run inline.
thread_local bool tls_in_pool_work = false;

// Target number of scalar operations per ParallelFor chunk. Small enough
// that moderate test shapes exercise multi-chunk execution, large enough
// that chunk dispatch overhead stays negligible on real kernels.
constexpr int64_t kGrainCost = 4096;

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

int64_t GrainForCost(int64_t cost_per_item) {
  return std::max<int64_t>(1, kGrainCost / std::max<int64_t>(1, cost_per_item));
}

int ThreadPool::DefaultNumThreads() {
  if (const char* env = std::getenv("PREQR_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultNumThreads();
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers exit only once the queue is empty, so no task is left behind.
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_work = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // ParallelFor's helpers catch their chunks' exceptions
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  // Serial fast path: single-thread pool (exact legacy execution), a range
  // that fits one chunk, or a nested call from inside pool work.
  if (workers_.empty() || n <= grain || tls_in_pool_work) {
    fn(begin, end);
    return;
  }

  struct Work {
    const std::function<void(int64_t, int64_t)>* fn;
    int64_t begin, end, grain, nchunks;
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t chunks_done = 0;
    std::exception_ptr error;
  };
  auto work = std::make_shared<Work>();
  work->fn = &fn;
  work->begin = begin;
  work->end = end;
  work->grain = grain;
  work->nchunks = (n + grain - 1) / grain;

  auto run_chunks = [](const std::shared_ptr<Work>& w) {
    int64_t finished = 0;
    std::exception_ptr err;
    for (;;) {
      const int64_t c = w->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= w->nchunks) break;
      const int64_t b = w->begin + c * w->grain;
      const int64_t e = std::min(b + w->grain, w->end);
      try {
        (*w->fn)(b, e);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
      ++finished;
    }
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->chunks_done += finished;
      if (err && !w->error) w->error = err;
    }
    w->done_cv.notify_one();
  };

  // One helper task per worker, capped by the chunk count; the caller also
  // participates below, so tiny ranges do not pay wakeup latency for
  // helpers that would find the queue already drained. The caller waits
  // for the chunks, not for the helpers: a helper that starts after the
  // last chunk finished claims nothing and never touches `fn`, and the
  // shared Work block outlives it.
  const int helpers = static_cast<int>(std::min<int64_t>(
      static_cast<int64_t>(workers_.size()), work->nchunks - 1));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < helpers; ++i) {
      queue_.emplace_back([work, run_chunks] { run_chunks(work); });
    }
  }
  cv_.notify_all();

  tls_in_pool_work = true;
  run_chunks(work);
  tls_in_pool_work = false;

  {
    std::unique_lock<std::mutex> lock(work->mu);
    work->done_cv.wait(lock,
                       [&] { return work->chunks_done >= work->nchunks; });
    if (work->error) std::rethrow_exception(work->error);
  }
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int n) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_pool = std::make_unique<ThreadPool>(n);
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

}  // namespace preqr
