#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled()) return 0;
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<std::vector<size_t>> Tracer::Children() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t p = spans_[i].parent;
    if (p != 0 && p <= spans_.size()) children[p - 1].push_back(i);
  }
  return children;
}

int64_t Tracer::SelfNs(size_t index,
                       const std::vector<std::vector<size_t>>& children) const {
  const SpanRecord& s = spans_[index];
  // Union of the children's intervals, clipped to the parent's.
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t c : children[index]) {
    const int64_t a = std::max(spans_[c].start_ns, s.start_ns);
    const int64_t b = std::min(spans_[c].end_ns, s.end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0, cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return (s.end_ns - s.start_ns) - covered;
}

bool Tracer::Write(const std::string& path,
                   const std::string& stamp_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto children = Children();
  struct Summary {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Summary> summary;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Summary& s = summary[spans_[i].name];
    ++s.count;
    s.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    s.self_ns += SelfNs(i, children);
  }
  std::fprintf(f, "{\n\"stamp\": %s,\n\"summary\": {", stamp_json.c_str());
  bool first = true;
  for (const auto& [name, s] : summary) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(s.count),
                 static_cast<double>(s.total_ns) / 1e6,
                 static_cast<double>(s.self_ns) / 1e6);
    first = false;
  }
  std::fprintf(f, "\n},\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %llu, \"request\": %llu}",
                 i ? "," : "", i + 1, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
