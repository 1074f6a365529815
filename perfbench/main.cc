// The repo benchmark runner. One invocation runs one workload and prints
// every metric it measured, then one JSON line:
//
//   perfbench_runner --workload serve_hot|serve_cold|learn_plan
//                    --seed N --seconds S --trace 0|1
//                    [--commit ID] [--out-dir DIR] [--tiny]
//   perfbench_runner --selftest
//
// perfbench/run.py builds this binary and turns its output into the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "inputs.h"
#include "trace.h"
#include "workload/imdb.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string StampJson(const Report& report) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : report.stamp) {
    out += (first ? "\"" : ", \"") + k + "\": \"" + JsonEscape(v) + "\"";
    first = false;
  }
  return out + "}";
}

void PrintReport(const Report& report) {
  std::printf("stamp %s\n", StampJson(report).c_str());
  for (const auto& p : report.phases) {
    std::printf("phase %-20s sent %10llu  ok %10llu  failed %6llu\n",
                p.phase.c_str(), static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.failed));
  }
  for (const auto& c : report.failed_checks) {
    std::printf("check FAILED: %s\n", c.c_str());
  }
  for (const auto& [name, values] : report.series) {
    std::printf("series %-32s", name.c_str());
    for (double v : values) std::printf(" %.6g", v);
    std::printf("\n");
  }
  for (const auto& m : report.metrics) {
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // The machine-readable form run.py reads.
  std::string json = "{\"correct\": ";
  json += report.failed_checks.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.Attempted());
  json += ", \"failed\": " + std::to_string(report.Failed());
  json += ", \"stamp\": " + StampJson(report) + ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int RunWorkload(const Options& options) {
  Report report;
  StampRun(options, &report);
  const bool serve_hot = options.workload == "serve_hot";
  const bool serve_cold = options.workload == "serve_cold";
  const bool learn_plan = options.workload == "learn_plan";
  if (!serve_hot && !serve_cold && !learn_plan) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  Tracer::Get().Enable(options.trace);
  double setup_s = 0;
  if (serve_hot || serve_cold) {
    setup_s = RunServe(options, serve_hot, &report);
  } else {
    PaperLoop loop(options, &report);
    setup_s = loop.setup_seconds();
    // Training and the fixed planning pass come before the window, so the
    // window plans with the fine-tuned estimator on warm code paths.
    loop.Train();
    loop.PlanAll();
    loop.RunPlanWindow(options.seconds);
    Tracer::Get().Enable(options.trace);
    loop.ReportMetrics();
    if (options.trace) {
      ReportEncodeLayers(loop.model(), loop.automaton(), loop.input_db(), options,
                         &report);
    }
  }
  Tracer::Get().Enable(false);

  report.Set("setup_s", setup_s, "s");
  report.Set("fail_ratio", FailRatio(report.Attempted(), report.Failed()),
             "ratio");
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (options.trace) {
    report.stamp["spans"] = std::to_string(Tracer::Get().size());
    std::error_code ignored;
    std::filesystem::create_directories(options.out_dir, ignored);
    const std::string path = options.out_dir + "/trace_" + options.workload +
                             "_" + std::to_string(options.seed) + ".json";
    report.Check(Tracer::Get().Write(path, StampJson(report)),
                 "cannot write the span file " + path);
    report.stamp["span_file"] = path;
  }
  PrintReport(report);
  return 0;
}

// Reproducibility of the input streams and the reply check's teeth.
int RunSelfTest(const Options& options) {
  int failures = 0;
  const auto db = preqr::workload::MakeImdbDatabase(7, 0.05);
  const auto a = DigestQueries(SqlGen(db, 5).Distinct(64, 1, 5));
  const auto b = DigestQueries(SqlGen(db, 5).Distinct(64, 1, 5));
  const auto c = DigestQueries(SqlGen(db, 6).Distinct(64, 1, 5));
  std::printf("selftest stream digest seed5=%016llx seed5'=%016llx seed6=%016llx\n",
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(c));
  if (a != b) {
    std::printf("selftest FAILED: the same seed gave two streams\n");
    ++failures;
  }
  if (a == c) {
    std::printf("selftest FAILED: two seeds gave the same stream\n");
    ++failures;
  }
  std::string detail;
  if (!SelfTestReplyCheck(options, &detail)) {
    std::printf("selftest FAILED: reply check: %s\n", detail.c_str());
    ++failures;
  } else {
    std::printf("selftest reply check: %s\n", detail.c_str());
  }
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  options.tiny = options.tiny || selftest;
  if (selftest) return perfbench::RunSelfTest(options);
  if (options.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  return perfbench::RunWorkload(options);
}
