#include "tasks/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "eval/metrics.h"
#include "nn/ops.h"

namespace preqr::tasks {

Mlp3::Mlp3(int in_dim, int hidden, Rng& rng)
    : fc1_(in_dim, hidden, rng),
      fc2_(hidden, hidden, rng),
      fc3_(hidden, 1, rng) {
  RegisterChild("fc1", &fc1_);
  RegisterChild("fc2", &fc2_);
  RegisterChild("fc3", &fc3_);
}

nn::Tensor Mlp3::Forward(const nn::Tensor& x) const {
  return fc3_.Forward(nn::Relu(fc2_.Forward(nn::Relu(fc1_.Forward(x)))));
}

EstimatorModel::EstimatorModel(baselines::QueryEncoder* encoder,
                               Options options)
    : encoder_(encoder), options_(options), rng_(options.seed) {
  head_ = std::make_unique<Mlp3>(encoder->dim(), options.hidden, rng_);
  encoder_static_ = encoder->TrainableParameters().empty();
  std::vector<nn::Tensor> params = head_->Parameters();
  for (const auto& t : encoder->TrainableParameters()) params.push_back(t);
  opt_ = std::make_unique<nn::Adam>(params, options.lr);
}

nn::Tensor EstimatorModel::Features(const std::string& sql, bool train) {
  if (encoder_static_) {
    auto f = TryFeatures(sql);
    // Unencodable SQL rides the encoder's fallback features, computed
    // outside the success-only cache.
    return f.ok() ? f.value() : encoder_->EncodeVector(sql, /*train=*/false);
  }
  return encoder_->EncodeVector(sql, train);
}

StatusOr<nn::Tensor> EstimatorModel::TryFeatures(const std::string& sql) {
  if (encoder_static_) {
    auto it = feature_cache_.find(sql);
    if (it != feature_cache_.end()) return it->second;
    auto f = encoder_->TryEncodeVector(sql, /*train=*/false);
    if (f.ok()) feature_cache_.emplace(sql, f.value());
    return f;
  }
  return encoder_->TryEncodeVector(sql, /*train=*/false);
}

double EstimatorModel::Fit(const std::vector<std::string>& sqls,
                           const std::vector<double>& targets) {
  FitWithValidation(sqls, targets, {}, {});
  return last_train_loss_;
}

std::vector<double> EstimatorModel::FitWithValidation(
    const std::vector<std::string>& train_sqls,
    const std::vector<double>& train_targets,
    const std::vector<std::string>& val_sqls,
    const std::vector<double>& val_targets) {
  PREQR_CHECK_EQ(train_sqls.size(), train_targets.size());
  std::vector<float> log_targets;
  log_targets.reserve(train_targets.size());
  float max_log = 0.0f;
  for (double t : train_targets) {
    log_targets.push_back(static_cast<float>(std::log1p(std::max(0.0, t))));
    max_log = std::max(max_log, log_targets.back());
  }
  if (!log_targets.empty()) max_log_target_ = max_log;
  std::vector<size_t> order(train_sqls.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<double> val_curve;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.NextUint64(i)]);
    }
    double loss_sum = 0;
    int batches = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(options_.batch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(options_.batch_size));
      opt_->ZeroGrad();
      encoder_->BeginStep(/*train=*/true);
      nn::Tensor batch_loss;
      for (size_t bi = start; bi < end; ++bi) {
        const size_t qi = order[bi];
        nn::Tensor pred = head_->Forward(Features(train_sqls[qi], true));
        nn::Tensor loss = nn::MseLoss(pred, {log_targets[qi]});
        batch_loss = batch_loss.defined() ? nn::Add(batch_loss, loss) : loss;
      }
      batch_loss =
          nn::Scale(batch_loss, 1.0f / static_cast<float>(end - start));
      batch_loss.Backward();
      opt_->Step();
      loss_sum += batch_loss.item();
      ++batches;
    }
    last_train_loss_ = loss_sum / std::max(1, batches);
    if (options_.verbose) {
      std::fprintf(stderr, "[estimator %s] epoch %d loss=%.4f\n",
                   encoder_->name().c_str(), epoch, last_train_loss_);
    }
    if (!val_sqls.empty()) {
      auto preds = PredictAll(val_sqls);
      val_curve.push_back(eval::ComputeQErrors(val_targets, preds).mean);
    }
  }
  return val_curve;
}

// Predictions are clamped in log space to the training target range plus a
// margin: out-of-distribution extrapolation must not dominate the max/99th
// statistics.
double EstimatorModel::ClampedExpm1(float log_pred) const {
  return std::expm1(std::clamp(static_cast<double>(log_pred), 0.0,
                               static_cast<double>(max_log_target_) + 2.0));
}

double EstimatorModel::Predict(const std::string& sql) {
  encoder_->BeginStep(/*train=*/false);
  auto features = TryFeatures(sql);
  if (!features.ok()) {
    ++predict_fallback_total_;
    return ClampedExpm1(
        head_->Forward(encoder_->EncodeVector(sql, /*train=*/false)).item());
  }
  return ClampedExpm1(head_->Forward(features.value()).item());
}

StatusOr<double> EstimatorModel::TryPredict(const std::string& sql) {
  encoder_->BeginStep(/*train=*/false);
  auto features = TryFeatures(sql);
  if (!features.ok()) return features.status();
  return ClampedExpm1(head_->Forward(features.value()).item());
}

std::vector<double> EstimatorModel::PredictAll(
    const std::vector<std::string>& sqls) {
  encoder_->BeginStep(/*train=*/false);
  std::vector<double> out;
  out.reserve(sqls.size());
  if (encoder_static_) {
    // Static featurizers keep the per-query feature memo shared with Fit.
    for (const auto& sql : sqls) {
      nn::Tensor pred = head_->Forward(Features(sql, false));
      out.push_back(ClampedExpm1(pred.item()));
    }
    return out;
  }
  // Trainable encoders go through the batched base-interface entry point
  // (PreQR computes the missing frozen prefixes as padded batches on this
  // thread; other encoders fall back to the serial default).
  auto features = encoder_->EncodeVectorBatch(sqls, /*train=*/false);
  for (const auto& f : features) {
    out.push_back(ClampedExpm1(head_->Forward(f).item()));
  }
  return out;
}

}  // namespace preqr::tasks
