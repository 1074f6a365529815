#include "common/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_set>

#include "common/check.h"

namespace preqr {

namespace {

// Process-global encode-path sink (cf. BufferPool::TotalStats): catches
// records made outside any service scope (training loops, direct encoder
// use in benches and tests). Once-per-distinct-error logging stays here —
// it is process-level hygiene regardless of which sink counts the event.
struct EncodePathRegistry {
  EncodePathSink sink;
  std::mutex log_mu;
  std::unordered_set<std::string> logged_errors;
};

EncodePathRegistry& Registry() {
  static EncodePathRegistry* r = new EncodePathRegistry();
  return *r;
}

// The thread's active sink; null means "record into the global registry".
// Thread-local (not an argument) so the tasks-layer encoder keeps its
// metrics-free signature while still reporting to the service driving it.
thread_local EncodePathSink* t_encode_sink = nullptr;

}  // namespace

double EncodePathStats::Occupancy() const {
  return padded_slots == 0 ? 1.0
                           : static_cast<double>(valid_tokens) /
                                 static_cast<double>(padded_slots);
}

void EncodePathSink::RecordPaddedBatch(int batch_size, int t_max,
                                       uint64_t valid_tokens) {
  const uint64_t slots =
      static_cast<uint64_t>(batch_size) * static_cast<uint64_t>(t_max);
  padded_batches_.Increment();
  padded_slots_.Increment(slots);
  valid_tokens_.Increment(valid_tokens);
  if (slots > 0) {
    padded_waste_pct_.Observe(100.0 *
                              static_cast<double>(slots - valid_tokens) /
                              static_cast<double>(slots));
  }
}

EncodePathStats EncodePathSink::Stats() const {
  EncodePathStats s;
  s.fallback_total = fallbacks_.value();
  s.padded_batches = padded_batches_.value();
  s.padded_slots = padded_slots_.value();
  s.valid_tokens = valid_tokens_.value();
  return s;
}

ScopedEncodePathSink::ScopedEncodePathSink(EncodePathSink* sink)
    : previous_(t_encode_sink) {
  t_encode_sink = sink;
}

ScopedEncodePathSink::~ScopedEncodePathSink() { t_encode_sink = previous_; }

void RecordEncodeFallback(const std::string& error) {
  auto& r = Registry();
  EncodePathSink* sink = t_encode_sink != nullptr ? t_encode_sink : &r.sink;
  sink->RecordFallback();
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(r.log_mu);
    first = r.logged_errors.insert(error).second;
  }
  if (first) {
    std::fprintf(stderr, "[encode] zero-vector fallback: %s\n", error.c_str());
  }
}

void RecordPaddedBatch(int batch_size, int t_max, uint64_t valid_tokens) {
  EncodePathSink* sink =
      t_encode_sink != nullptr ? t_encode_sink : &Registry().sink;
  sink->RecordPaddedBatch(batch_size, t_max, valid_tokens);
}

EncodePathStats GlobalEncodePathStats() { return Registry().sink.Stats(); }

const Histogram& GlobalPaddedWasteHistogram() {
  return Registry().sink.padded_waste_pct();
}

Histogram::Histogram(double scale, double growth, int num_buckets) {
  PREQR_CHECK_GT(scale, 0.0);
  PREQR_CHECK_GT(growth, 1.0);
  PREQR_CHECK_GT(num_buckets, 1);
  bounds_.reserve(static_cast<size_t>(num_buckets));
  double bound = scale;
  for (int b = 0; b + 1 < num_buckets; ++b) {
    bounds_.push_back(bound);
    bound *= growth;
  }
  bounds_.push_back(std::numeric_limits<double>::infinity());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size());
  for (size_t b = 0; b < bounds_.size(); ++b) counts_[b] = 0;
}

void Histogram::Observe(double value) {
  size_t b = 0;
  while (value >= bounds_[b]) ++b;  // last bound is +inf: always terminates
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; spell the CAS loop out for
  // toolchains that lower it poorly.
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;  // defined: an empty histogram reports 0
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(n);
  double lower = 0.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < bounds_.size(); ++b) {
    const uint64_t in_bucket = counts_[b].load(std::memory_order_relaxed);
    // Only a non-empty bucket can hold the target rank. The old code
    // stopped at the first bucket whose cumulative count crossed target —
    // including empty leading buckets when target rounds to 0 — and
    // reported that bucket's upper bound, so a histogram whose samples
    // all sat in bucket 3 answered p50 with bucket 0's edge.
    if (in_bucket > 0 &&
        static_cast<double>(seen) + static_cast<double>(in_bucket) >= target) {
      if (std::isinf(bounds_[b])) {
        // The unbounded last bucket has no width to interpolate in; the
        // previous finite bound is the largest value the samples are known
        // to exceed (the old code invented `2 * lower + 1` here).
        return lower;
      }
      const double upper = bounds_[b];
      // A rank exactly on the boundary (target == seen + in_bucket) gives
      // frac == 1 and returns exactly `upper`.
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
    seen += in_bucket;
    lower = bounds_[b];
  }
  // Only reachable when a racing Observe bumped count_ after our bucket
  // scan started; the largest finite bound is the only defined answer
  // (`lower` here would be +inf).
  return bounds_.size() >= 2 ? bounds_[bounds_.size() - 2] : 0.0;
}

}  // namespace preqr
