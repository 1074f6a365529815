#ifndef PREQR_COMMON_METRICS_H_
#define PREQR_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

// Metrics primitives shared by every layer: counters, gauges, histograms
// and the encode-path shape records. They sit in common/ because the
// tasks-layer encoder records into them and the serving layer, above it,
// aggregates them (serving/metrics.h re-exports these names).
namespace preqr {

// Monotonic event counter. Relaxed atomics on purpose: metrics observe the
// request path, they never synchronize it.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (queue depth, live connections): goes up and down,
// unlike a Counter. Same relaxed-ordering contract.
class Gauge {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Decrement(int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Lock-free histogram over exponential buckets: bucket b covers
// [scale * growth^(b-1), scale * growth^b), bucket 0 covers [0, scale),
// the last bucket is unbounded. Percentiles interpolate linearly inside
// the bucket that crosses the target rank — an estimate whose error is
// bounded by the bucket width, which is what latency dashboards need.
class Histogram {
 public:
  Histogram(double scale, double growth, int num_buckets);

  void Observe(double value);
  uint64_t count() const;
  double sum() const;
  double mean() const;
  double Percentile(double p) const;  // p in [0, 1]

 private:
  std::vector<double> bounds_;  // upper bound per bucket, last = +inf
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Snapshot of the encode-path shape counters (padded [B, T, d] forwards and
// zero-vector fallbacks) from one sink or from the process-global registry.
struct EncodePathStats {
  uint64_t fallback_total = 0;   // zero-vector fallbacks for malformed SQL
  uint64_t padded_batches = 0;   // padded [B, T, d] forwards executed
  uint64_t padded_slots = 0;     // B * T_max summed over those forwards
  uint64_t valid_tokens = 0;     // sum of example lengths over those forwards
  // valid_tokens / padded_slots — the fraction of batched compute that
  // touched real rows (1.0 when no padded batch ran yet).
  double Occupancy() const;
};

// One scope's worth of encode-path counters. Every EncoderService owns one
// (inside its ServingMetrics) so two live services never interleave their
// fallback/occupancy numbers; encoders running outside any service record
// into the process-global registry instead (see ScopedEncodePathSink).
class EncodePathSink {
 public:
  void RecordFallback() { fallbacks_.Increment(); }
  void RecordPaddedBatch(int batch_size, int t_max, uint64_t valid_tokens);
  EncodePathStats Stats() const;
  const Histogram& padded_waste_pct() const { return padded_waste_pct_; }

 private:
  Counter fallbacks_;
  Counter padded_batches_;
  Counter padded_slots_;
  Counter valid_tokens_;
  // Padded-waste percent (100 * pad slots / total slots) per batch.
  Histogram padded_waste_pct_{1.0, 2.0, 9};
};

// RAII redirection of RecordEncodeFallback/RecordPaddedBatch on this thread:
// while alive, records land in `sink` instead of the process-global
// registry. serving::EncoderService installs one around every encoder call,
// so the tasks-layer encoder needs no ServingMetrics plumbing and still
// reports to the service that invoked it. Nests: the previous sink is
// restored.
class ScopedEncodePathSink {
 public:
  explicit ScopedEncodePathSink(EncodePathSink* sink);
  ~ScopedEncodePathSink();
  ScopedEncodePathSink(const ScopedEncodePathSink&) = delete;
  ScopedEncodePathSink& operator=(const ScopedEncodePathSink&) = delete;

 private:
  EncodePathSink* previous_;
};

// --- Process-global encode-path instrumentation ---------------------------
// The padded [B, T, d] forwards and the zero-vector fallback live below the
// serving layer (tasks::PreqrEncoder has no ServingMetrics instance), so
// records go through free functions: to the thread's ScopedEncodePathSink
// when one is installed (the serving path), otherwise to a process-global
// registry (direct encoder use in training loops, benches, tests).
//
// Counts one zero-vector fallback. Each distinct error message is logged to
// stderr once per process, so a single bad query template cannot flood logs
// while new failure modes still surface.
void RecordEncodeFallback(const std::string& error);
// Records one padded [B, T_max] batch carrying `valid_tokens` = sum_i T_i
// real rows; feeds the padded-waste histogram of the active sink.
void RecordPaddedBatch(int batch_size, int t_max, uint64_t valid_tokens);
// The process-global registry's view (unscoped records only).
EncodePathStats GlobalEncodePathStats();
// Padded-waste percent (100 * pad slots / total slots) per recorded batch.
const Histogram& GlobalPaddedWasteHistogram();

}  // namespace preqr

#endif  // PREQR_COMMON_METRICS_H_
