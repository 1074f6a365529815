// Shared pieces of the repo benchmark runner: run options, the metric
// report, timing helpers and the run stamp.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }
inline double UsSince(Clock::time_point t0) { return 1e6 * SecondsSince(t0); }

// Linear-interpolated percentile, p in [0, 1]. Sorts a copy.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Machine-wide CPU time counters from /proc/stat, in clock ticks: steal
// (time a vCPU wanted to run while the hypervisor ran something else) and
// all time. Both read 0 where /proc/stat cannot be read.
struct CpuTicks {
  uint64_t steal = 0, total = 0;
};
CpuTicks ReadCpuTicks();
// Steal as a share of the CPU time between two readings.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

// A measured window runs without pauses and is cut, for its timing
// metrics, into bins of kBinSeconds: each reply or query counts in the bin
// in which it completed, and a StealSampler gives each bin's steal share.
constexpr double kBinSeconds = 0.1;
inline int WindowBins(double seconds) {
  return std::max(1, static_cast<int>(seconds / kBinSeconds));
}

// Reads the machine's steal counter at every bin boundary of a window, on
// a thread of its own, so the measured work never pauses for it.
class StealSampler {
 public:
  StealSampler(Clock::time_point start, int bins);
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  // Waits for the last boundary; the steal share of each bin.
  std::vector<double> Finish();

 private:
  std::vector<CpuTicks> readings_;  // written only by thread_ until joined
  std::thread thread_;
};

// Every timing metric is reported over the least-stolen parts of a run.
// On a shared host, steal comes in spells that slow the default thread pool
// several-fold (every ParallelFor waits for its slowest helper): at 15%
// steal serve_cold and learn_plan ran 3-4x slower than at none. Even in a
// spell of 20% steal a few tenths of a second go unstolen, so the
// least-stolen bins measure the program rather than its neighbours.
//
// The indices of the least-stolen `share` of the parts (at least one),
// widened to every part stolen no more than the last of them, so a quiet
// run keeps all its quiet parts.
std::vector<size_t> LeastStolenParts(const std::vector<double>& steal,
                                     double share);
// The median of `values` over the least-stolen `share` of its parts.
double LeastStolenMedian(const std::vector<double>& values,
                         const std::vector<double>& steal, double share);
constexpr double kLeastStolenShare = 0.1;

// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

// Log-bucketed histogram of positive values (1% bucket growth from 0.01),
// so a window's latency distribution takes fixed memory however many
// requests it holds. Percentiles interpolate inside the bucket.
class LogHistogram {
 public:
  LogHistogram();
  void Add(double value);
  void Merge(const LogHistogram& other);
  uint64_t count() const { return count_; }
  double Percentile(double p) const;  // p in [0, 1]; 0 when empty

 private:
  static constexpr double kMin = 0.01;
  static constexpr double kGrowth = 1.01;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Shrinks every size for the self-test; never used by measured runs.
  bool tiny = false;
  std::string commit = "unknown";
  // Where the traced run writes its span file.
  std::string out_dir = ".bench_out";
};

// Counts of one phase: what was sent, what came back good, what failed.
struct PhaseCount {
  std::string phase;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

// Everything one run reports. Metrics print in insertion order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  // Per-bin values behind a window metric, printed for inspection.
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<PhaseCount> phases;
  std::vector<std::string> failed_checks;
  // Stamp fields (machine and configuration), printed before the result.
  std::map<std::string, std::string> stamp;

  void Set(const std::string& name, double value, const std::string& unit);
  void Series(const std::string& name, std::vector<double> values) {
    series.emplace_back(name, std::move(values));
  }
  void Phase(const PhaseCount& phase) { phases.push_back(phase); }
  void Check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  uint64_t Attempted() const;
  uint64_t Failed() const;
};

inline double FailRatio(uint64_t attempted, uint64_t failed) {
  return attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                   : 0.0;
}

// The model configuration every workload runs: the program's defaults.
inline preqr::core::PreqrConfig DefaultModelConfig() { return {}; }
std::string DescribeConfig(const preqr::core::PreqrConfig& config);

// Fills machine and configuration fields: nproc, pool threads, kernel
// implementation, model configuration, seed and commit.
void StampRun(const Options& options, Report* report);

// Wall seconds of one call.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

// The samples of a run's repeated set-up; setup_s is the median of the
// less-stolen half of them.
class SetupTimes {
 public:
  template <typename Fn>
  void Time(Fn&& fn) {
    const CpuTicks t0 = ReadCpuTicks();
    seconds_.push_back(TimeSeconds(fn));
    steal_.push_back(StealShare(t0, ReadCpuTicks()));
  }
  double Seconds() const { return LeastStolenMedian(seconds_, steal_, 0.5); }
  const std::vector<double>& samples() const { return seconds_; }

 private:
  std::vector<double> seconds_, steal_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
