#ifndef PREQR_SERVING_TENANT_REGISTRY_H_
#define PREQR_SERVING_TENANT_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "automaton/fa.h"
#include "common/status.h"
#include "core/preqr_model.h"
#include "db/stats.h"
#include "schema/schema_graph.h"
#include "sql/catalog.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"

namespace preqr::serving {

// Everything one hosted database needs to serve PreQR embeddings, bundled
// with the ownership and construction order the layers below leave
// implicit: the tokenizer keeps a reference into the catalog, the model
// keeps pointers into the tokenizer/automaton/graph, the encoder keeps a
// pointer into the model. A TenantContext owns the whole chain; register it
// with EncoderService::RegisterTenant(id, encoder(), model(), context) and
// the service keeps it alive until the last reference to the tenant is gone.
//
// The per-database artifacts are the point (the paper internalizes ONE
// database's schema into the model): schema graph, schema-token
// vocabulary, template automaton, and weights are all derived from this
// tenant's catalog/stats/corpus and shared with no other tenant.
class TenantContext {
 public:
  struct Options {
    // The database this tenant serves: schema + per-table statistics
    // (stats must align with catalog.tables(), as SqlTokenizer requires).
    sql::Catalog catalog;
    std::vector<db::TableStats> stats;
    // Representative workload the template automaton is mined from. May be
    // empty (the automaton degrades to its start state gracefully).
    std::vector<std::string> corpus;
    core::PreqrConfig config;
    uint64_t seed = 1234;
    int num_value_buckets = 8;
    double template_epsilon = 0.2;
    tasks::PreqrEncoder::Options encoder_options;
  };

  // Builds the full chain (graph -> automaton -> tokenizer -> model ->
  // encoder). Misaligned stats fail with kInvalidArgument — runtime
  // registration must not crash on bad input.
  static StatusOr<std::unique_ptr<TenantContext>> Create(Options options);

  // Members point into each other; moving or copying would dangle them.
  TenantContext(const TenantContext&) = delete;
  TenantContext& operator=(const TenantContext&) = delete;

  const sql::Catalog& catalog() const { return catalog_; }
  const schema::SchemaGraph& graph() const { return graph_; }
  const automaton::Automaton& automaton() const { return fa_; }
  const text::SqlTokenizer& tokenizer() const { return *tokenizer_; }
  const text::Vocab& vocab() const { return tokenizer_->vocab(); }
  core::PreqrModel* model() const { return model_.get(); }
  tasks::PreqrEncoder* encoder() const { return encoder_.get(); }

  // One-line inventory of the per-tenant artifacts, for logs and the
  // bench harness.
  std::string Describe() const;

 private:
  explicit TenantContext(Options options);

  // Construction order is load-bearing: each member may reference the ones
  // above it, and destruction runs in reverse.
  sql::Catalog catalog_;
  std::vector<db::TableStats> stats_;
  schema::SchemaGraph graph_;
  automaton::Automaton fa_;
  std::unique_ptr<text::SqlTokenizer> tokenizer_;
  std::unique_ptr<core::PreqrModel> model_;
  std::unique_ptr<tasks::PreqrEncoder> encoder_;
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_TENANT_REGISTRY_H_
