#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/thread_pool.h"
#include "nn/kernels_dispatch.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::vector<size_t> LeastStolenParts(const std::vector<double>& steal,
                                     double share) {
  if (steal.empty()) return {};
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const size_t keep = std::clamp<size_t>(
      static_cast<size_t>(std::lround(share * static_cast<double>(steal.size()))), 1,
      steal.size());
  const double limit = sorted[keep - 1];
  std::vector<size_t> parts;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= limit) parts.push_back(i);
  }
  return parts;
}

double LeastStolenMedian(const std::vector<double>& values,
                         const std::vector<double>& steal, double share) {
  std::vector<double> kept;
  for (size_t i : LeastStolenParts(steal, share)) kept.push_back(values[i]);
  return Median(std::move(kept));
}

LogHistogram::LogHistogram() : buckets_(2600, 0) {}

void LogHistogram::Add(double value) {
  size_t b = 0;
  if (value > kMin) {
    b = static_cast<size_t>(std::log(value / kMin) / std::log(kGrowth)) + 1;
  }
  b = std::min(b, buckets_.size() - 1);
  ++buckets_[b];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(below + buckets_[b]) > rank) {
      // Bucket b holds (lo, hi]; spread its values evenly across it.
      const double lo = b == 0 ? 0.0 : kMin * std::pow(kGrowth, double(b - 1));
      const double hi = kMin * std::pow(kGrowth, double(b));
      const double frac = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * std::min(1.0, frac);
    }
    below += buckets_[b];
  }
  return kMin * std::pow(kGrowth, double(buckets_.size() - 1));
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return t;
  t.steal = v[7];
  for (unsigned long long x : v) t.total += x;
  return t;
}

StealSampler::StealSampler(Clock::time_point start, int bins) {
  readings_.reserve(static_cast<size_t>(bins) + 1);
  thread_ = std::thread([this, start, bins] {
    for (int k = 0; k <= bins; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k * kBinSeconds)));
      readings_.push_back(ReadCpuTicks());
    }
  });
}

StealSampler::~StealSampler() {
  if (thread_.joinable()) thread_.join();
}

std::vector<double> StealSampler::Finish() {
  if (thread_.joinable()) thread_.join();
  std::vector<double> steal;
  for (size_t k = 1; k < readings_.size(); ++k) {
    steal.push_back(StealShare(readings_[k - 1], readings_[k]));
  }
  return steal;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

uint64_t Report::Attempted() const {
  uint64_t n = 0;
  for (const auto& p : phases) n += p.sent;
  return n;
}

uint64_t Report::Failed() const {
  uint64_t n = 0;
  for (const auto& p : phases) n += p.failed;
  return n;
}

std::string DescribeConfig(const preqr::core::PreqrConfig& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "d_model=%d num_layers=%d num_heads=%d ffn_hidden=%d "
                "state_dim=%d pos_dim=%d max_seq_len=%d use_automaton=%d "
                "use_schema=%d",
                c.d_model, c.num_layers, c.num_heads, c.ffn_hidden, c.state_dim,
                c.pos_dim, c.max_seq_len, c.use_automaton ? 1 : 0,
                c.use_schema ? 1 : 0);
  return buf;
}

void StampRun(const Options& options, Report* report) {
  auto& s = report->stamp;
  s["workload"] = options.workload;
  s["seed"] = std::to_string(options.seed);
  s["seconds"] = std::to_string(options.seconds);
  s["trace"] = options.trace ? "1" : "0";
  s["nproc"] = std::to_string(std::thread::hardware_concurrency());
  s["pool_threads"] = std::to_string(preqr::ThreadPool::Global().num_threads());
  s["kernel_impl"] = preqr::nn::kernels::ActiveImplName();
  s["preqr_config"] = DescribeConfig(DefaultModelConfig());
  s["commit"] = options.commit;
}

}  // namespace perfbench
