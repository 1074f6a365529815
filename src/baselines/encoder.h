#ifndef PREQR_BASELINES_ENCODER_H_
#define PREQR_BASELINES_ENCODER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace preqr::baselines {

// A query encoder producing a fixed-size feature vector [1, dim] for
// regression heads (cardinality / cost estimation). Implementations may be
// trainable (LSTM, PreQR last layer) or static featurizers (one-hot).
//
// The interface is batch-first and Status-propagating: the serving layer
// and the task loops call EncodeVectorBatch / TryEncodeVectorBatch so every
// encoder shares one call shape, and encoders with a parse path surface
// malformed SQL as an error Status instead of crashing. The per-query
// virtuals remain the primitive that featurizer baselines implement.
class QueryEncoder {
 public:
  virtual ~QueryEncoder() = default;

  // Encodes one SQL query. `train` enables gradient recording through the
  // encoder's trainable parameters (if any). Malformed input maps to the
  // encoder's fallback features (typically zeros) — use TryEncodeVector
  // when the caller needs the error.
  virtual nn::Tensor EncodeVector(const std::string& sql, bool train) = 0;

  // Status-propagating encode: an error Status for malformed SQL, the
  // feature vector otherwise. The default wraps EncodeVector, which never
  // fails for the static featurizers.
  virtual StatusOr<nn::Tensor> TryEncodeVector(const std::string& sql,
                                               bool train) {
    return EncodeVector(sql, train);
  }

  // Batched encode: output i is identical to EncodeVector(sqls[i], train).
  // The default runs serially; encoders with a cheaper batched path (PreQR
  // computes missing frozen prefixes as padded batches) override.
  virtual std::vector<nn::Tensor> EncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) {
    std::vector<nn::Tensor> out;
    out.reserve(sqls.size());
    for (const auto& sql : sqls) out.push_back(EncodeVector(sql, train));
    return out;
  }

  // Batched Status-propagating encode: slots fail independently — a
  // malformed query yields an error Status in its slot without affecting
  // the others. This is the serving layer's dispatch point.
  virtual std::vector<StatusOr<nn::Tensor>> TryEncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) {
    std::vector<StatusOr<nn::Tensor>> out;
    out.reserve(sqls.size());
    for (const auto& sql : sqls) out.push_back(TryEncodeVector(sql, train));
    return out;
  }

  // Drops any memoized per-query state (e.g. PreQR's cached frozen
  // prefixes) after the underlying model's parameters changed. Default:
  // nothing to drop.
  virtual void InvalidateCache() {}

  // Parameters updated during downstream fine-tuning (may be empty).
  virtual std::vector<nn::Tensor> TrainableParameters() = 0;
  virtual int dim() const = 0;
  virtual std::string name() const = 0;
  // Hook called once before each optimizer step (e.g. to refresh a shared
  // schema encoding). Default: nothing.
  virtual void BeginStep(bool /*train*/) {}
};

// A query encoder producing a per-token memory [S, dim] for attention-based
// decoders (SQL-to-Text).
class SequenceEncoder {
 public:
  virtual ~SequenceEncoder() = default;
  virtual nn::Tensor EncodeSequence(const std::string& sql, bool train) = 0;
  virtual std::vector<nn::Tensor> TrainableParameters() = 0;
  virtual int dim() const = 0;
  // Width of EncodeSequence rows; defaults to dim() but may differ when an
  // encoder's fixed-vector read-out is wider than its token states.
  virtual int sequence_dim() const { return dim(); }
  virtual std::string name() const = 0;
};

}  // namespace preqr::baselines

#endif  // PREQR_BASELINES_ENCODER_H_
