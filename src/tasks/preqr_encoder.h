#ifndef PREQR_TASKS_PREQR_ENCODER_H_
#define PREQR_TASKS_PREQR_ENCODER_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/encoder.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "core/preqr_model.h"

namespace preqr::tasks {

// Adapts a pre-trained PreqrModel to the downstream encoder interfaces.
// Fine-tuning follows the paper: only the *last* SQLBERT (Trm_g) layer
// trains together with the task head; everything below is frozen, so the
// frozen prefix of each query is computed once and cached in a sharded,
// size-bounded LRU (a frequent-query workload keeps re-visiting the same
// statements, so a bounded cache captures the hits without growing with
// the query log).
//
// Every entry point is a batch: the single-query ones (EncodeVector,
// TryEncodeVector, EncodeSequence) are batches of one through the same
// resolve — cache probe, padded EncodePrefixBatch for the misses, chunked
// LastLayerBatch, then the read-out. The padded kernels partition per
// example, so a batch of one carries exactly the bits of the solo
// PreqrModel::Forward (pinned by batch_invariance_test).
class PreqrEncoder : public baselines::QueryEncoder,
                     public baselines::SequenceEncoder {
 public:
  struct Options {
    // Total frozen-prefix entries held across all shards.
    size_t cache_capacity = 4096;
    int cache_shards = 8;
  };

  explicit PreqrEncoder(core::PreqrModel* model);
  PreqrEncoder(core::PreqrModel* model, Options options);

  nn::Tensor EncodeVector(const std::string& sql, bool train) override;
  nn::Tensor EncodeSequence(const std::string& sql, bool train) override;
  // Status-propagating entry points: malformed SQL returns the parse error
  // instead of the zero fallback that EncodeVector keeps for the task
  // loops.
  StatusOr<nn::Tensor> TryEncodeVector(const std::string& sql,
                                       bool train) override;
  // Batched entry point: missing frozen prefixes and the per-query
  // read-outs run as genuine padded [B, T, d] forwards (chunks of up to
  // kMaxEncodeBatch queries); duplicate queries collapse onto one prefix
  // computation. Output i is bitwise-identical to
  // TryEncodeVector(sqls[i], train) at any batch composition — the batched
  // kernels partition per example, so neighbors (including malformed ones)
  // cannot change a query's bits (pinned by batch_invariance_test).
  // EncodeVectorBatch substitutes the zero-prefix read-out for malformed
  // queries, like EncodeVector.
  std::vector<StatusOr<nn::Tensor>> TryEncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) override;
  std::vector<nn::Tensor> EncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) override;
  std::vector<nn::Tensor> TrainableParameters() override;
  // Structured read-out: [CLS ; mean(all) ; mean-of-span-means ;
  // max-of-span-means ; mean(tables)] over the final token states.
  int dim() const override { return 5 * model_->config().d_model; }
  int sequence_dim() const override { return model_->config().d_model; }
  std::string name() const override { return "PreQR"; }
  // The wrapped model (non-owned) — what AttachModel/RegisterTenant want
  // when this encoder backs a serving tenant.
  core::PreqrModel* model() const { return model_; }
  void BeginStep(bool train) override;

  // Drops cached prefixes and re-encodes the frozen schema nodes (call
  // after further pre-training / incremental updates of the model).
  void InvalidateCache() override;

  // Prefix-cache observability (cache sizing, serving dashboards, tests).
  LruCacheStats cache_stats() const { return prefix_cache_.stats(); }
  size_t cached_queries() const { return prefix_cache_.size(); }

 private:
  // Queries per padded [B, T, d] forward; bounds the T_max * B slab a
  // single chunk allocates while keeping dispatch counts ~B times lower
  // than the per-query loop.
  static constexpr int kMaxEncodeBatch = 32;

  struct CachedQuery {
    nn::Tensor prefix;  // frozen-prefix token states [S, d]
    // Predicate spans (each join/filter conjunct's token positions) and the
    // FROM-list positions, from the automaton symbolization. Pooling per
    // span keeps each predicate's column-op-value binding intact.
    std::vector<std::vector<int>> predicate_spans;
    std::vector<int> table_rows;
  };
  // Span/table structure from the automaton symbolization over the first
  // `s` (possibly clipped) token positions.
  static void ExtractStructure(const text::SqlTokenizer::Tokenized& tokenized,
                               int s, CachedQuery* out);
  // Frozen prefixes + span structure for several queries at once: chunks of
  // parse-ok queries run as one padded EncodePrefixBatch each; parse errors
  // land in status[i] without touching their neighbors' chunks.
  void ComputeQueriesBatched(const std::vector<std::string>& sqls,
                             std::vector<CachedQuery>* computed,
                             std::vector<Status>* status);
  // Receives slot i's final token states [S_i, d] and its cached entry.
  using ReadOutFn = std::function<void(size_t i, const nn::Tensor& tokens,
                                       const CachedQuery& cached)>;
  // The one encode path behind every entry point: cache probe, batched
  // prefixes for the distinct misses, then the last layer over padded
  // chunks of the resolved prefixes, calling `emit` per resolved slot
  // (under the grad mode `train` selects). Returns each slot's status; with
  // `zero_fallback` a malformed query is still emitted, over ZeroEntry().
  std::vector<Status> Resolve(const std::vector<std::string>& sqls,
                              bool train, bool zero_fallback,
                              const ReadOutFn& emit);
  // The structured read-out over one query's final token states.
  nn::Tensor PoolReadOut(const nn::Tensor& tokens, const CachedQuery& cached);
  // Zero-row entry used by the legacy fallback for malformed queries.
  CachedQuery ZeroEntry() const;

  core::PreqrModel* model_;
  nn::Tensor schema_;  // detached schema node encodings
  ShardedLruCache<std::string, CachedQuery> prefix_cache_;
};

}  // namespace preqr::tasks

#endif  // PREQR_TASKS_PREQR_ENCODER_H_
