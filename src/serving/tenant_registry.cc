#include "serving/tenant_registry.h"

#include <utility>

#include "automaton/template_extractor.h"
#include "common/check.h"

namespace preqr::serving {

TenantContext::TenantContext(Options options)
    : catalog_(std::move(options.catalog)),
      stats_(std::move(options.stats)),
      graph_(schema::SchemaGraph::Build(catalog_)),
      fa_(automaton::TemplateExtractor(options.template_epsilon)
              .BuildAutomaton(options.corpus)),
      tokenizer_(std::make_unique<text::SqlTokenizer>(
          catalog_, stats_, options.num_value_buckets)),
      model_(std::make_unique<core::PreqrModel>(options.config,
                                                tokenizer_.get(), &fa_,
                                                &graph_, options.seed)),
      encoder_(std::make_unique<tasks::PreqrEncoder>(
          model_.get(), options.encoder_options)) {
  // The tokenizer must reference *our* catalog copy, not the caller's
  // moved-from Options — this is the dangling-reference bug the bundle
  // exists to prevent.
  PREQR_CHECK(&tokenizer_->catalog() == &catalog_);
}

StatusOr<std::unique_ptr<TenantContext>> TenantContext::Create(
    Options options) {
  if (options.stats.size() != options.catalog.tables().size()) {
    return Status::InvalidArgument(
        "TenantContext: stats must align with catalog.tables() (" +
        std::to_string(options.stats.size()) + " stats for " +
        std::to_string(options.catalog.tables().size()) + " tables)");
  }
  // The ctor is private (construction order is an invariant, not a
  // convenience), so no make_unique here.
  return std::unique_ptr<TenantContext>(
      new TenantContext(std::move(options)));
}

std::string TenantContext::Describe() const {
  return std::to_string(catalog_.tables().size()) + " tables, " +
         std::to_string(graph_.num_nodes()) + " graph nodes, " +
         std::to_string(graph_.num_edges()) + " graph edges, " +
         std::to_string(tokenizer_->vocab().size()) + " vocab tokens, " +
         std::to_string(fa_.num_states()) + " automaton states, dim " +
         std::to_string(encoder_->dim());
}

}  // namespace preqr::serving
