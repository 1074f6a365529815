// The paper loop (pre-train, fine-tune, plan, execute) and learn_plan's
// measured window, in process with a single caller.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "automaton/template_extractor.h"
#include "common/thread_pool.h"
#include "core/pretrain.h"
#include "db/executor.h"
#include "db/stats.h"
#include "inputs.h"
#include "pg/pg_estimator.h"
#include "planner/cardinality.h"
#include "planner/join_planner.h"
#include "schema/schema_graph.h"
#include "serving/metrics.h"
#include "sql/parser.h"
#include "tasks/estimator.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "trace.h"
#include "workload/imdb.h"
#include "workloads.h"

namespace perfbench {

namespace db = preqr::db;
namespace planner = preqr::planner;
namespace tasks = preqr::tasks;

namespace {

constexpr uint64_t kLearnDbSeed = 42;
constexpr double kLearnDbScale = 0.1;
constexpr uint64_t kModelSeed = 44;
constexpr int kSetups = 4;

struct Sizes {
  size_t pretrain = 144;       // batch 8: 18 MLM steps ...
  size_t pretrain_blocks = 6;  // ... in 6 blocks of 3 steps
  size_t fit = 72;
  size_t fit_epochs = 3;  // each epoch as two Fit calls over one half
  size_t plan = 108;      // 36 each of 3, 4 and 5 tables
  size_t probe_steps = 6;  // pre-training steps per pool-speedup block
};

Sizes SizesFor(const Options& options) {
  Sizes s;
  if (options.tiny) {
    s.pretrain = 32;
    s.pretrain_blocks = 2;
    s.fit = 16;
    s.fit_epochs = 1;
    s.plan = 6;
    s.probe_steps = 1;
  }
  return s;
}

uint64_t FallbackTotal() {
  return preqr::serving::GlobalEncodePathStats().fallback_total;
}

}  // namespace

// Counts the planner's questions to an estimator and forwards them.
class CountingEstimator : public planner::CardinalityEstimator {
 public:
  CountingEstimator(const db::Database& database,
                    planner::CardinalityEstimator* inner)
      : CardinalityEstimator(database), inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  double EstimateCardinality(const preqr::sql::SelectStatement& stmt) override {
    ++calls_;
    return inner_->EstimateCardinality(stmt);
  }
  double EstimateSubsetCardinality(const preqr::sql::SelectStatement& stmt,
                                   const std::vector<int>& subset) override {
    ++calls_;
    return inner_->EstimateSubsetCardinality(stmt, subset);
  }
  uint64_t calls() const { return calls_; }

 private:
  planner::CardinalityEstimator* inner_;
  uint64_t calls_ = 0;
};

// The loop's stack, built by set-up: the database and its statistics, the
// tokenizer, the mined automaton, the schema graph, the model, the PG
// statistics, and the fine-tuning labels. Members point into each other.
struct LearnStack {
  db::Database database;
  std::vector<db::TableStats> stats;
  std::unique_ptr<preqr::text::SqlTokenizer> tokenizer;
  preqr::automaton::Automaton fa;
  preqr::schema::SchemaGraph graph;
  std::unique_ptr<preqr::core::PreqrModel> model;
  std::unique_ptr<preqr::pg::PgEstimator> pg;
  std::unique_ptr<db::Executor> exec;
  std::vector<double> fit_cards;
  std::vector<preqr::sql::SelectStatement> plan_stmts;

  void Build(const std::vector<std::string>& corpus,
             const std::vector<std::string>& fit_sqls,
             const std::vector<std::string>& plan_sqls) {
    database = preqr::workload::MakeImdbDatabase(kLearnDbSeed, kLearnDbScale);
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(database);
    tokenizer = std::make_unique<preqr::text::SqlTokenizer>(database.catalog(),
                                                            stats, 8);
    fa = preqr::automaton::TemplateExtractor(0.2).BuildAutomaton(corpus);
    graph = preqr::schema::SchemaGraph::Build(database.catalog());
    model = std::make_unique<preqr::core::PreqrModel>(
        DefaultModelConfig(), tokenizer.get(), &fa, &graph, kModelSeed);
    pg = std::make_unique<preqr::pg::PgEstimator>(database);
    exec = std::make_unique<db::Executor>(database);
    for (const auto& sql : fit_sqls) {
      auto stmt = preqr::sql::Parse(sql);
      PREQR_CHECK(stmt.ok());
      auto r = exec->Execute(stmt.value());
      PREQR_CHECK(r.ok());
      fit_cards.push_back(r.value().cardinality);
    }
    for (const auto& sql : plan_sqls) {
      auto stmt = preqr::sql::Parse(sql);
      PREQR_CHECK(stmt.ok());
      plan_stmts.push_back(std::move(stmt.value()));
    }
  }
};

PaperLoop::PaperLoop(const Options& options, Report* report)
    : options_(options), report_(report) {
  const Sizes sizes = SizesFor(options);
  input_db_ = std::make_unique<db::Database>(
      preqr::workload::MakeImdbDatabase(kLearnDbSeed, kLearnDbScale));
  SqlGen gen(*input_db_, options.seed * 2654435761ULL + 17);
  corpus_ = gen.Distinct(sizes.pretrain, 1, 5);
  fit_sqls_ = gen.Distinct(sizes.fit, 1, 4);
  plan_sqls_ = gen.Distinct(sizes.plan, 3, 5);
  window_gen_ = std::make_unique<SqlGen>(*input_db_, options.seed * 97 + 5);
  report_->stamp["db_scale_learn"] = std::to_string(kLearnDbScale);
  // Set-up, kSetups times; the last stack is the one the loop uses.
  for (int i = 0; i < kSetups; ++i) {
    stack_ = std::make_unique<LearnStack>();
    setup_.Time([&] { stack_->Build(corpus_, fit_sqls_, plan_sqls_); });
  }
  report_->Series("setup_s", setup_.samples());
}

PaperLoop::~PaperLoop() = default;

double PaperLoop::setup_seconds() const { return setup_.Seconds(); }

preqr::core::PreqrModel* PaperLoop::model() { return stack_->model.get(); }
const preqr::automaton::Automaton& PaperLoop::automaton() const {
  return stack_->fa;
}

void PaperLoop::Train() {
  const Sizes sizes = SizesFor(options_);
  // MLM pre-training in blocks: one Train call per block over its own
  // slice of the corpus. Train starts a fresh optimizer, so each block
  // restarts Adam on the weights the previous block left.
  const size_t per_block = corpus_.size() / sizes.pretrain_blocks;
  for (size_t b = 0; b < sizes.pretrain_blocks; ++b) {
    const std::vector<std::string> slice(
        corpus_.begin() + static_cast<std::ptrdiff_t>(b * per_block),
        corpus_.begin() + static_cast<std::ptrdiff_t>((b + 1) * per_block));
    preqr::core::Pretrainer::Options po;
    po.epochs = 1;
    po.seed = options_.seed + b;
    preqr::core::Pretrainer pretrainer(*stack_->model, po);
    pretrain_s_.push_back(TimeSeconds([&] {
      Span span("core.pretrain");
      pretrainer.Train(slice);
    }));
    pretrain_steps_ = pretrainer.step();
  }
  pretrain_examples_ = per_block;

  // Fine-tuning, the paper's Case 1: the last Trm_g layer plus the head,
  // each epoch as two Fit calls over one half of the labelled queries. The
  // head's optimizer carries across Fit calls.
  encoder_ = std::make_unique<tasks::PreqrEncoder>(stack_->model.get());
  tasks::EstimatorModel::Options eo;
  eo.epochs = 1;
  eo.seed = options_.seed;
  estimator_ = std::make_unique<tasks::EstimatorModel>(encoder_.get(), eo);
  const size_t half = fit_sqls_.size() / 2;
  for (size_t i = 0; i < 2 * sizes.fit_epochs; ++i) {
    const auto from = static_cast<std::ptrdiff_t>((i % 2) * half);
    const auto to = from + static_cast<std::ptrdiff_t>(half);
    const std::vector<std::string> sqls(fit_sqls_.begin() + from,
                                        fit_sqls_.begin() + to);
    const std::vector<double> cards(stack_->fit_cards.begin() + from,
                                    stack_->fit_cards.begin() + to);
    fit_s_.push_back(TimeSeconds([&] {
      Span span("tasks.fit");
      estimator_->Fit(sqls, cards);
    }));
  }
  fit_cache_ = encoder_->cache_stats();
  const uint64_t pretrained = pretrain_examples_ * pretrain_s_.size();
  const uint64_t fitted = half * fit_s_.size();
  report_->Phase({"pretrain", pretrained, pretrained, 0});
  report_->Phase({"finetune", fitted, fitted, 0});
}

double PaperLoop::Predict(const std::string& sql) {
  Span span("tasks.predict");
  const auto t0 = Clock::now();
  const double v = estimator_->Predict(sql);
  predict_us_.push_back(UsSince(t0));
  return v;
}

void PaperLoop::PlanAll() {
  planner::TrueCardinalityEstimator true_est(stack_->database);
  planner::PgCardinalityEstimator pg_est(stack_->database, *stack_->pg);
  planner::CallbackCardinalityEstimator preqr_est(
      stack_->database, "preqr",
      [this](const std::string& sql) { return Predict(sql); });
  CountingEstimator counted_true(stack_->database, &true_est);
  CountingEstimator counted_pg(stack_->database, &pg_est);
  CountingEstimator counted_preqr(stack_->database, &preqr_est);
  planner::CardinalityEstimator* estimators[3] = {&counted_true, &counted_pg,
                                                  &counted_preqr};
  const db::CostModel cm;
  const uint64_t fallbacks_before = FallbackTotal();
  PhaseCount phase{"plan"};
  for (size_t qi = 0; qi < stack_->plan_stmts.size(); ++qi) {
    const auto& stmt = stack_->plan_stmts[qi];
    auto full = stack_->exec->Execute(stmt);
    const double count = full.ok() ? full.value().cardinality : -1;
    double cost[3] = {0, 0, 0};
    bool ok_all = full.ok();
    for (int e = 0; e < 3; ++e) {
      phase.sent += 2;
      Span query("planner.query", 0, qi + 1);
      preqr::StatusOr<planner::PlanChoice> choice = preqr::Status::Unavailable("");
      const double pm = 1e3 * TimeSeconds([&] {
        Span span("planner.plan", query.id(), qi + 1);
        choice = planner::PlanJoinOrder(stack_->database, stmt, *estimators[e], cm);
      });
      if (!choice.ok()) {
        phase.failed += 2;
        ok_all = false;
        continue;
      }
      ++phase.ok;
      preqr::StatusOr<db::PlannedExecResult> res = preqr::Status::Unavailable("");
      const double xm = 1e3 * TimeSeconds([&] {
        Span span("db.execute_order", query.id(), qi + 1);
        res = stack_->exec->ExecuteOrder(stmt, choice.value().order, cm);
      });
      // Output check: an executed order counts what the default plan does.
      if (!res.ok() || res.value().cardinality != count) {
        ++phase.failed;
        ok_all = false;
        report_->Check(false, "plan: ExecuteOrder count differs from Execute on query " +
                                  std::to_string(qi));
        continue;
      }
      ++phase.ok;
      cost[e] = res.value().cost;
      if (e == 2) {
        plan_ms_.push_back(pm);
        exec_ms_.push_back(xm);
      }
    }
    if (!ok_all) continue;
    ++scored_;
    for (int e = 0; e < 3; ++e) units_[e] += cost[e];
    if (cost[0] > 0) log_ratio_sum_ += std::log(cost[2] / cost[0]);
    if (cost[2] <= cost[0] * (1 + 1e-9)) ++preqr_optimal_;
    // Output check: exact cardinalities plan the optimal left-deep order.
    report_->Check(cost[1] >= cost[0] * (1 - 1e-9) && cost[2] >= cost[0] * (1 - 1e-9),
                   "plan: the true estimator's plan was beaten on query " +
                       std::to_string(qi));
  }
  const uint64_t fallbacks = FallbackTotal() - fallbacks_before;
  const uint64_t predictions = predict_us_.size();
  phase.sent += predictions;
  phase.ok += predictions - std::min(fallbacks, predictions);
  phase.failed += fallbacks;
  predict_fallbacks_ += fallbacks;
  preqr_estimates_ = counted_preqr.calls();
  report_->Phase(phase);
  report_->Check(scored_ == stack_->plan_stmts.size(),
                 "plan: not every query was planned and executed");
}

void PaperLoop::RunPlanWindow(double seconds) {
  struct Done {
    std::string sql;
    double count = 0;
  };
  std::vector<Done> done;
  PhaseCount phase{"learn_plan"};
  const db::CostModel cm;
  planner::CallbackCardinalityEstimator preqr_est(
      stack_->database, "preqr",
      [this](const std::string& sql) { return estimator_->Predict(sql); });
  const uint64_t fallbacks_before = FallbackTotal();
  const int bins = WindowBins(seconds);
  std::vector<uint64_t> bin_done(static_cast<size_t>(bins), 0);
  std::vector<std::pair<size_t, double>> latency_ms;  // (bin, latency)
  // A traced run measures its first half untraced and its second half
  // traced; the difference of the halves' p90 is the tracing overhead.
  const bool traced = Tracer::Get().enabled();
  if (traced) Tracer::Get().Enable(false);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto half = start + (end - start) / 2;
  StealSampler sampler(start, bins);
  for (uint64_t n = 0;; ++n) {
    const auto t0 = Clock::now();
    if (t0 >= end) break;
    if (traced && t0 >= half) Tracer::Get().Enable(true);
    const std::string sql = window_gen_->Next(3 + static_cast<int>(n % 3));
    ++phase.sent;
    Span query("learn.query", 0, n + 1);
    auto stmt = preqr::sql::Parse(sql);
    if (!stmt.ok()) {
      ++phase.failed;
      continue;
    }
    auto choice = planner::PlanJoinOrder(stack_->database, stmt.value(), preqr_est, cm);
    if (!choice.ok()) {
      ++phase.failed;
      continue;
    }
    auto res = stack_->exec->ExecuteOrder(stmt.value(), choice.value().order, cm);
    if (!res.ok()) {
      ++phase.failed;
      continue;
    }
    const auto t1 = Clock::now();
    ++phase.ok;
    done.push_back({sql, res.value().cardinality});
    const auto bin = static_cast<size_t>(
        std::chrono::duration<double>(t1 - start).count() / kBinSeconds);
    if (bin < bin_done.size()) {
      ++bin_done[bin];
      latency_ms.emplace_back(bin, 1e3 * std::chrono::duration<double>(t1 - t0).count());
    }
  }
  const std::vector<double> bin_steal = sampler.Finish();
  const uint64_t fallbacks = FallbackTotal() - fallbacks_before;
  phase.failed += fallbacks;
  phase.ok -= std::min(phase.ok, fallbacks);
  predict_fallbacks_ += fallbacks;
  report_->Phase(phase);

  // Output check, outside the window: each executed order's count equals
  // the default plan's.
  size_t mismatches = 0;
  for (const auto& d : done) {
    auto stmt = preqr::sql::Parse(d.sql);
    auto full = stack_->exec->Execute(stmt.value());
    if (!full.ok() || full.value().cardinality != d.count) ++mismatches;
  }
  report_->Check(mismatches == 0, "learn_plan: " + std::to_string(mismatches) +
                                      " executed orders disagree with Execute");
  report_->Check(phase.ok > 0, "learn_plan: no query completed");

  std::vector<double> rate;
  double steal_sum = 0;
  for (int i = 0; i < bins; ++i) {
    rate.push_back(static_cast<double>(bin_done[static_cast<size_t>(i)]) / kBinSeconds);
    steal_sum += bin_steal[static_cast<size_t>(i)];
  }
  report_->Series("goodput_qps", rate);
  report_->Series("steal", bin_steal);
  const auto quiet = LeastStolenParts(bin_steal, kLeastStolenShare);
  std::vector<char> chosen(static_cast<size_t>(bins), 0);
  uint64_t quiet_done = 0;
  for (size_t i : quiet) {
    chosen[i] = 1;
    quiet_done += bin_done[i];
  }
  // Latencies of the bins selected by `keep`.
  auto latencies = [&](auto keep) {
    std::vector<double> out;
    for (const auto& [bin, ms] : latency_ms) {
      if (keep(bin)) out.push_back(ms);
    }
    return out;
  };
  const auto all = latencies([](size_t) { return true; });
  report_->Set("goodput_qps",
               static_cast<double>(quiet_done) /
                   (kBinSeconds * static_cast<double>(std::max<size_t>(1, quiet.size()))),
               "1/s");
  report_->Set("latency_ms_p90",
               Percentile(latencies([&](size_t bin) { return chosen[bin] != 0; }), 0.9),
               "ms");
  report_->Set("latency_ms_p50", Percentile(all, 0.5), "ms");
  report_->Set("latency_ms_p99", Percentile(all, 0.99), "ms");
  report_->Set("machine.steal_pct", 100 * steal_sum / static_cast<double>(bins), "%");
  if (traced) {
    const size_t mid = static_cast<size_t>(bins) / 2;
    const double before = Percentile(latencies([&](size_t bin) { return bin < mid; }), 0.9);
    const double after = Percentile(latencies([&](size_t bin) { return bin >= mid; }), 0.9);
    report_->Set("trace.overhead_pct", before > 0 ? 100.0 * (after - before) / before : 0,
                 "%");
  }
}

double PaperLoop::ProbePretrainSeconds(size_t steps, uint64_t seed) {
  // A throwaway model of the same configuration, so the probe leaves the
  // trained one alone.
  preqr::core::PreqrModel probe(DefaultModelConfig(), stack_->tokenizer.get(),
                                &stack_->fa, &stack_->graph, kModelSeed);
  preqr::core::Pretrainer::Options po;
  po.epochs = 1;
  po.seed = seed;
  po.max_steps = static_cast<int64_t>(steps);
  preqr::core::Pretrainer trainer(probe, po);
  return TimeSeconds([&] { trainer.Train(corpus_); });
}

void PaperLoop::ReportMetrics() {
  const Sizes sizes = SizesFor(options_);
  const double pretrain_block_s = Median(pretrain_s_);
  const double fit_call_s = Median(fit_s_);
  const double fit_examples = static_cast<double>(fit_sqls_.size() / 2);
  report_->Set("pretrain_qps",
               static_cast<double>(pretrain_examples_) / pretrain_block_s, "1/s");
  report_->Set("finetune_qps", fit_examples / fit_call_s, "1/s");
  // Geometric mean over queries of executed work units, preqr / true: each
  // query counts once, so one heavy query cannot swing it. The summed
  // ratio is db.work_units_preqr / db.work_units_true.
  report_->Set("plan_cost_ratio",
               scored_ ? std::exp(log_ratio_sum_ / static_cast<double>(scored_)) : 0,
               "ratio");
  if (!options_.trace) return;

  const auto& cache = fit_cache_;
  report_->Set("core.pretrain_step_ms",
               1e3 * pretrain_block_s /
                   static_cast<double>(std::max<int64_t>(1, pretrain_steps_)),
               "ms");
  report_->Set("tasks.fit_ms_per_example", 1e3 * fit_call_s / fit_examples, "ms");
  report_->Set("tasks.prefix_cache_hit_ratio",
               cache.hits + cache.misses
                   ? static_cast<double>(cache.hits) /
                         static_cast<double>(cache.hits + cache.misses)
                   : 0,
               "ratio");
  report_->Set("planner.plan_ms_p50", Percentile(plan_ms_, 0.5), "ms");
  report_->Set("planner.estimates_per_query",
               static_cast<double>(preqr_estimates_) /
                   static_cast<double>(stack_->plan_stmts.size()),
               "count");
  report_->Set("tasks.predict_us_p50", Percentile(predict_us_, 0.5), "us");
  report_->Set("db.exec_ms_p50", Percentile(exec_ms_, 0.5), "ms");
  report_->Set("db.work_units_preqr", units_[2], "units");
  report_->Set("db.work_units_true", units_[0], "units");
  report_->Set("planner.optimal_share_preqr",
               scored_ ? static_cast<double>(preqr_optimal_) / static_cast<double>(scored_)
                       : 0,
               "ratio");
  report_->Set("pg.plan_cost_ratio", units_[0] > 0 ? units_[1] / units_[0] : 0, "ratio");
  report_->Set("tasks.predict_fallbacks", static_cast<double>(predict_fallbacks_),
               "count");

  // Pool speedup of pre-training: the same steps on a fresh model at one
  // pool thread and at the default, in alternating blocks.
  std::vector<double> at_default, at_one;
  for (int b = 0; b < 4; ++b) {
    const bool one = (b % 2) == 1;
    preqr::ThreadPool::SetGlobalThreads(one ? 1 : 0);
    (one ? at_one : at_default)
        .push_back(ProbePretrainSeconds(sizes.probe_steps, options_.seed + b));
  }
  preqr::ThreadPool::SetGlobalThreads(0);
  report_->Set("common.pool_speedup_pretrain", Median(at_one) / Median(at_default),
               "ratio");
}

}  // namespace perfbench
