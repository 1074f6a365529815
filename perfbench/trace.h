// Span recorder for the traced run. Spans are recorded from the benchmark's
// own code around calls into the program's public functions; the program
// itself is not instrumented. Spans stay in memory and are written out
// once, at the end of the run.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t parent = 0;   // id of the enclosing span, 0 = none
  uint64_t request = 0;  // request the span belongs to, 0 = none
};

class Tracer {
 public:
  static Tracer& Get();

  // Off by default: Begin returns 0 and End ignores it.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Span ids are 1-based positions in the record list.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  // Durations in microseconds of every finished span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  // Writes every span plus a per-name count/total/self-time summary as
  // JSON. A span's self time is its duration minus the part of it its
  // child spans cover.
  bool Write(const std::string& path, const std::string& stamp_json) const;
  size_t size() const;

 private:
  Tracer();
  int64_t NowNs() const;
  // Self time of span `index` (0-based), in nanoseconds.
  int64_t SelfNs(size_t index,
                 const std::vector<std::vector<size_t>>& children) const;
  std::vector<std::vector<size_t>> Children() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// RAII span; a no-op when tracing is off.
class Span {
 public:
  Span(const char* name, uint64_t parent = 0, uint64_t request = 0)
      : id_(Tracer::Get().Begin(name, parent, request)) {}
  ~Span() { Tracer::Get().End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
