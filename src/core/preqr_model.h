#ifndef PREQR_CORE_PREQR_MODEL_H_
#define PREQR_CORE_PREQR_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "automaton/fa.h"
#include "common/status.h"
#include "core/config.h"
#include "nn/module.h"
#include "schema/schema_graph.h"
#include "text/tokenizer.h"

namespace preqr::core {

// One Trm_g block (Figure 6): the original transformer encoder sub-layer
// over the query tokens, plus the query-aware sub-graph transformer that
// cross-attends tokens to schema-node embeddings; outputs are concatenated
// and projected back to d_model.
class TrmGLayer : public nn::Module {
 public:
  TrmGLayer(const PreqrConfig& config, Rng& rng);

  // e_q: [S, d]; schema_nodes: [N, d] (empty tensor disables the schema
  // branch, cf. PreQRNT). Returns [S, d].
  nn::Tensor Forward(const nn::Tensor& e_q,
                     const nn::Tensor& schema_nodes) const;

  // Padded-batch forward over [B, T, d]: masked self-attention inside trm_,
  // unmasked cross-attention onto the shared schema nodes (every key is
  // valid), masked layer norms throughout. Valid rows are bitwise the
  // single-example Forward; pad rows come out exactly zero.
  nn::Tensor ForwardBatch(const nn::Tensor& e_q,
                          const nn::Tensor& schema_nodes,
                          const std::vector<int>& lengths) const;

 private:
  nn::TransformerEncoderLayer trm_;        // black rectangle of Figure 6
  nn::MultiHeadAttention graph_attention_; // red rectangle: Trm'
  nn::FeedForward graph_ffn_;
  nn::LayerNorm graph_ln1_, graph_ln2_;
  nn::Linear fuse_;  // Concat(e_q, e_g) [S,2d] -> [S,d]
  nn::LayerNorm fuse_ln_;  // keeps every sub-layer output normalized
};

// The full PreQR model: Input Embedding (token + SQL state + position),
// Query-Aware Schema (BiLSTM name encoder + R-GCN), and SQLBERT (a stack of
// Trm_g layers with an MLM head).
class PreqrModel : public nn::Module {
 public:
  // Pointers are non-owned and must outlive the model.
  PreqrModel(PreqrConfig config, const text::SqlTokenizer* tokenizer,
             const automaton::Automaton* fa, const schema::SchemaGraph* graph,
             uint64_t seed = 1234);

  struct Encoding {
    nn::Tensor tokens;  // [S, d] final token representations
    nn::Tensor cls;     // [1, d] aggregate representation
  };

  // --- Schema branch ----------------------------------------------------
  // Encodes all schema nodes ([N, d]); call once per training step and
  // share across the batch. With `with_grad=false` the result is detached
  // (used for frozen-encoder fine-tuning and inference).
  nn::Tensor EncodeSchemaNodes(bool with_grad);

  // --- Full forward (pre-training) ---------------------------------------
  // `masked_ids` may override token ids (MLM); empty = use tokenized ids.
  // `dropout_rng` overrides the model's internal RNG for the dropout mask;
  // pass a per-example RNG when running forwards on several threads so the
  // draw sequence is independent of scheduling (nullptr = internal RNG).
  Encoding Forward(const text::SqlTokenizer::Tokenized& tokenized,
                   const nn::Tensor& schema_nodes,
                   const std::vector<int>& masked_ids = {},
                   Rng* dropout_rng = nullptr);

  // MLM prediction head over the final token states: [S, vocab] (or
  // [B, T, vocab] for a batched input — the head is row-wise).
  nn::Tensor MlmLogits(const nn::Tensor& token_states) const;

  // --- Batched forward ([B, T, d] padded execution) -----------------------
  // The batch must have been collated with max_len = config().max_seq_len.
  // Padding invariance: row i < batch.lengths[b] of every output is
  // bitwise-identical to the same row of the single-query Forward on that
  // example alone; pad rows are exactly zero.
  //
  // Full forward for the batched MLM step. `masked_ids[b]` (optional)
  // overrides example b's token ids; in train mode `dropout_seeds[b]`
  // seeds example b's private dropout stream (the serial RNG pre-pass in
  // the trainer keeps draws independent of scheduling). Returns [B, T, d].
  nn::Tensor ForwardBatch(const text::SqlTokenizer::TokenizedBatch& batch,
                          const nn::Tensor& schema_nodes,
                          const std::vector<std::vector<int>>& masked_ids = {},
                          const std::vector<uint64_t>& dropout_seeds = {});

  // --- Split forward (fine-tuning: frozen prefix + trainable last layer) --
  // Runs embedding + the first L-1 layers as one tape-free padded forward
  // for the whole batch. Returns [B, T, d]; slice per example with
  // nn::SliceExample. A single query is a batch of one.
  nn::Tensor EncodePrefixBatch(const text::SqlTokenizer::TokenizedBatch& batch,
                               const nn::Tensor& schema_nodes_detached);
  // Runs the last Trm_g layer over padded prefixes [B, T, d] (lengths[b]
  // valid rows each). Gradients (train mode) flow into the layer's
  // parameters exactly as through the last layer of the solo Forward.
  nn::Tensor LastLayerBatch(const nn::Tensor& prefix_states,
                            const nn::Tensor& schema_nodes,
                            const std::vector<int>& lengths);

  // Convenience: tokenize + encode with a cached no-grad schema encoding,
  // as a ForwardBatch of one.
  Result<Encoding> Encode(const std::string& sql);

  // Invalidate the cached inference schema encoding (after training steps).
  void InvalidateSchemaCache() { cached_schema_ = nn::Tensor(); }

  // --- Parameter groups (Section 3.6 update cases) -------------------------
  std::vector<nn::Tensor> LastLayerParameters() const;   // Case 1
  std::vector<nn::Tensor> SchemaParameters() const;      // Case 2
  std::vector<nn::Tensor> InputParameters() const;       // Case 3

  const PreqrConfig& config() const { return config_; }
  const text::SqlTokenizer& tokenizer() const { return *tokenizer_; }
  int vocab_size() const { return tokenizer_->vocab().size(); }

 private:
  nn::Tensor EmbedInput(const text::SqlTokenizer::Tokenized& tokenized,
                        const std::vector<int>& override_ids) const;
  // Padded batch embedding [B, T, d]: per-example state/position ids are
  // computed exactly as EmbedInput does, then all channels gather/project
  // as one [B*T, .] block (row-wise ops, so per-row bits match).
  nn::Tensor EmbedInputBatch(const text::SqlTokenizer::TokenizedBatch& batch,
                             const std::vector<std::vector<int>>& override_ids)
      const;

  PreqrConfig config_;
  const text::SqlTokenizer* tokenizer_;
  const automaton::Automaton* fa_;
  const schema::SchemaGraph* graph_;
  mutable Rng rng_;

  // Input Embedding.
  nn::Embedding token_embedding_;
  nn::Embedding state_embedding_;
  nn::Embedding position_embedding_;
  nn::Linear composite_proj_;

  // Query-Aware Schema.
  nn::BiLstm name_lstm_;
  nn::Linear name_proj_;
  std::vector<std::unique_ptr<nn::RgcnLayer>> rgcn_;
  std::vector<std::vector<nn::Edge>> rel_edges_;
  std::vector<std::vector<float>> rel_norms_;
  // Tokenized schema node names (vocab ids), cached at construction.
  std::vector<std::vector<int>> node_name_ids_;

  // SQLBERT.
  std::vector<std::unique_ptr<TrmGLayer>> layers_;
  nn::Linear mlm_head_;

  nn::Tensor cached_schema_;  // no-grad cache for inference
};

}  // namespace preqr::core

#endif  // PREQR_CORE_PREQR_MODEL_H_
