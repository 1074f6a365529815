// The three workloads. Each run is one process: set-up (repeated), warm-up,
// a measured window, then output checks outside the window.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "automaton/fa.h"
#include "bench.h"
#include "core/preqr_model.h"
#include "db/database.h"
#include "inputs.h"
#include "tasks/estimator.h"
#include "tasks/preqr_encoder.h"

namespace perfbench {

// serve_hot (hot = true) and serve_cold: closed-loop TCP clients against a
// loopback EncodeServer hosting two tenants. Sets the window's metrics and
// returns the set-up seconds of the serving stack (SetupTimes::Seconds).
double RunServe(const Options& options, bool hot, Report* report);

struct LearnStack;

// learn_plan: the paper loop in process, with a single caller. Set-up
// builds its stack; Train runs MLM pre-training in blocks, then Case 1
// fine-tuning of the cardinality estimator (last Trm_g layer plus head);
// PlanAll plans the fixed multi-join queries with the true, pg and preqr
// estimators and executes each chosen order; RunPlanWindow is the measured
// window.
class PaperLoop {
 public:
  // Generates the loop's inputs from the seed, then sets its stack up
  // several times (the set-up samples) and keeps the last.
  PaperLoop(const Options& options, Report* report);
  ~PaperLoop();
  PaperLoop(const PaperLoop&) = delete;
  PaperLoop& operator=(const PaperLoop&) = delete;

  double setup_seconds() const;
  void Train();
  void PlanAll();
  // Fresh multi-join queries planned with the fine-tuned preqr estimator
  // and executed, for `seconds`.
  void RunPlanWindow(double seconds);
  // The training and planning metrics (per-layer ones in a traced run).
  void ReportMetrics();

  preqr::core::PreqrModel* model();
  const preqr::automaton::Automaton& automaton() const;
  const preqr::db::Database& input_db() const { return *input_db_; }

 private:
  double Predict(const std::string& sql);
  double ProbePretrainSeconds(size_t steps, uint64_t seed);

  Options options_;
  Report* report_;
  std::unique_ptr<preqr::db::Database> input_db_;  // literals for the inputs
  std::vector<std::string> corpus_, fit_sqls_, plan_sqls_;
  std::unique_ptr<SqlGen> window_gen_;
  std::unique_ptr<LearnStack> stack_;
  SetupTimes setup_;

  std::vector<double> pretrain_s_, fit_s_;
  uint64_t pretrain_examples_ = 0;
  int64_t pretrain_steps_ = 0;
  std::unique_ptr<preqr::tasks::PreqrEncoder> encoder_;
  std::unique_ptr<preqr::tasks::EstimatorModel> estimator_;
  preqr::LruCacheStats fit_cache_;  // the prefix cache after fine-tuning

  double units_[3] = {0, 0, 0};  // executed work units: true, pg, preqr
  double log_ratio_sum_ = 0;     // sum of log(preqr / true) per query
  uint64_t scored_ = 0, preqr_optimal_ = 0, predict_fallbacks_ = 0,
           preqr_estimates_ = 0;
  std::vector<double> plan_ms_, exec_ms_, predict_us_;
};

// Per-layer metrics of one encode, from an in-process stage pass over
// fresh queries (parse, automaton walk, tokenize, prefix, last layer and
// the encoder's own total), the computed model FLOPs, and the pool speedup
// of solo encodes at one pool thread against the default.
void ReportEncodeLayers(preqr::core::PreqrModel* model,
                        const preqr::automaton::Automaton& fa,
                        const preqr::db::Database& input_db,
                        const Options& options, Report* report);

// The self-test's output-check probe: builds a tiny serving stack, takes
// replies over the wire, and returns true when an unmodified reply passes
// the bitwise check and a reply with one flipped float bit fails it.
bool SelfTestReplyCheck(const Options& options, std::string* detail);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
