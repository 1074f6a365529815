#ifndef PREQR_COMMON_THREAD_POOL_H_
#define PREQR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace preqr {

// Fixed-size thread pool backing all parallel tensor kernels.
//
// Determinism contract: ParallelFor partitions [begin, end) into contiguous
// chunks and runs `fn(chunk_begin, chunk_end)` on pool threads plus the
// calling thread. Callers must write disjoint outputs per index and make
// each output depend only on its own indices; under that contract results
// are bitwise-identical for every thread count and chunking, because each
// output element is produced by the same serial instruction sequence.
// Reductions that cross indices (bias/gamma sums, embedding scatter) must
// instead partition over *destinations* so every destination accumulates
// its contributions in the original index order (see nn/ops.cc).
//
// Nested calls (ParallelFor from inside a pool task) run inline on the
// current thread, so kernels stay safe when invoked from already-parallel
// regions such as the per-example pre-training loop.
class ThreadPool {
 public:
  // num_threads <= 0 selects DefaultNumThreads(). The pool owns
  // num_threads - 1 worker threads; the caller participates in ParallelFor.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Splits [begin, end) into chunks of at most `grain` indices and runs
  // `fn(chunk_begin, chunk_end)` across the pool. Blocks until every chunk
  // finished; rethrows the first exception raised by any chunk.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  // Thread count from PREQR_NUM_THREADS (clamped to [1, 256]); falls back
  // to std::thread::hardware_concurrency().
  static int DefaultNumThreads();

  // Process-wide pool used by the nn kernels; created lazily.
  static ThreadPool& Global();

  // Rebuilds the global pool with `n` threads (<= 0 restores the default).
  // Intended for tests and benchmarks that sweep thread counts; not safe
  // while kernels are running on other threads.
  static void SetGlobalThreads(int n);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Convenience wrapper over ThreadPool::Global().ParallelFor.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

// Grain size targeting roughly `kGrainCost` scalar operations per chunk for
// loops whose per-index cost is `cost_per_item` operations.
int64_t GrainForCost(int64_t cost_per_item);

}  // namespace preqr

#endif  // PREQR_COMMON_THREAD_POOL_H_
