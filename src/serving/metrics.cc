#include "serving/metrics.h"

#include <cstdio>

#include "common/thread_pool.h"
#include "nn/buffer_pool.h"
#include "nn/kernels_dispatch.h"

namespace preqr::serving {

std::shared_ptr<TenantMetrics> ServingMetrics::Tenant(
    const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& slot = tenants_[tenant_id];
  if (slot == nullptr) slot = std::make_shared<TenantMetrics>();
  return slot;
}

void ServingMetrics::DropTenant(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  tenants_.erase(tenant_id);
}

double ServingMetrics::CacheHitRate() const {
  const uint64_t hits = cache_hits.value();
  const uint64_t total = hits + cache_misses.value();
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

std::string ServingMetrics::DumpText() const {
  char line[160];
  std::string out;
  auto emit_counter = [&](const char* name, const Counter& c) {
    std::snprintf(line, sizeof(line), "%s %llu\n", name,
                  static_cast<unsigned long long>(c.value()));
    out += line;
  };
  auto emit_value = [&](const char* name, double v) {
    std::snprintf(line, sizeof(line), "%s %.6g\n", name, v);
    out += line;
  };
  emit_counter("serving_requests_total", requests);
  emit_counter("serving_cache_hits_total", cache_hits);
  emit_counter("serving_cache_misses_total", cache_misses);
  emit_value("serving_cache_hit_rate", CacheHitRate());
  emit_counter("serving_errors_total", errors);
  emit_counter("serving_batches_total", batches);
  emit_counter("serving_batched_queries_total", batched_queries);
  emit_counter("serving_invalidations_total", invalidations);
  emit_counter("serving_model_reloads_total", reloads);
  emit_counter("serving_model_reload_failures_total", reload_failures);
  // Admission control: everything the service refused, by reason, plus the
  // instantaneous ring depth.
  emit_counter("serving_shed_queue_full_total", shed_queue_full);
  emit_counter("serving_shed_client_quota_total", shed_client_quota);
  emit_counter("serving_shed_low_priority_total", shed_low_priority);
  std::snprintf(line, sizeof(line), "serving_shed_total %llu\n",
                static_cast<unsigned long long>(ShedTotal()));
  out += line;
  emit_counter("serving_deadline_rejected_total", deadline_rejected);
  emit_counter("serving_deadline_dropped_total", deadline_dropped);
  std::snprintf(line, sizeof(line), "serving_queue_depth %lld\n",
                static_cast<long long>(queue_depth.value()));
  out += line;
  // Drain accounting: what a reload waited out and what invalidation threw
  // away — the previously-invisible cost of InvalidateCache/ReloadModel.
  emit_counter("serving_drain_waiters_total", drain_waiters);
  emit_counter("serving_drained_requests_total", drained_requests);
  emit_counter("serving_invalidated_embeddings_total", invalidated_embeddings);
  emit_counter("serving_rejected_on_shutdown_total", rejected_on_shutdown);
  // Tenancy: tenant lifecycle plus unknown-id rejections (which happen
  // before the cache probe, so they appear in no hit/miss counter).
  emit_counter("serving_tenant_not_found_total", tenant_not_found);
  emit_counter("serving_tenant_registrations_total", tenant_registrations);
  emit_counter("serving_tenant_deregistrations_total", tenant_deregistrations);
  {
    // Per-tenant dimension: the same events as the aggregate counters,
    // labeled. The default tenant ("") renders as tenant="default".
    std::lock_guard<std::mutex> lock(tenants_mu_);
    auto emit_tenant = [&](const char* name, const std::string& id,
                           const Counter& c) {
      std::snprintf(line, sizeof(line), "%s{tenant=\"%s\"} %llu\n", name,
                    id.empty() ? "default" : id.c_str(),
                    static_cast<unsigned long long>(c.value()));
      out += line;
    };
    for (const auto& [id, tm] : tenants_) {
      emit_tenant("serving_tenant_requests_total", id, tm->requests);
      emit_tenant("serving_tenant_cache_hits_total", id, tm->cache_hits);
      emit_tenant("serving_tenant_cache_misses_total", id, tm->cache_misses);
      emit_tenant("serving_tenant_errors_total", id, tm->errors);
      emit_tenant("serving_tenant_shed_total", id, tm->shed);
      emit_tenant("serving_tenant_reloads_total", id, tm->reloads);
      emit_tenant("serving_tenant_drained_requests_total", id,
                  tm->drained_requests);
    }
  }
  emit_value("serving_batch_size_mean", batch_size.mean());
  emit_value("serving_batch_size_p99", batch_size.Percentile(0.99));
  emit_value("serving_encode_latency_us_p50",
             encode_latency_us.Percentile(0.5));
  emit_value("serving_encode_latency_us_p99",
             encode_latency_us.Percentile(0.99));
  emit_value("serving_hit_latency_us_p50", hit_latency_us.Percentile(0.5));
  emit_value("serving_hit_latency_us_p99", hit_latency_us.Percentile(0.99));
  emit_value("serving_queue_latency_us_p50", queue_latency_us.Percentile(0.5));
  emit_value("serving_queue_latency_us_p99",
             queue_latency_us.Percentile(0.99));
  emit_value("serving_batch_occupancy_pct_mean", batch_occupancy_pct.mean());
  emit_value("serving_batch_occupancy_pct_p99",
             batch_occupancy_pct.Percentile(0.99));
  // Network front-end (zeros when no EncodeServer is attached).
  emit_counter("serving_net_connections_total", net_connections);
  emit_counter("serving_net_connections_rejected_total",
               net_connections_rejected);
  emit_counter("serving_net_requests_total", net_requests);
  emit_counter("serving_net_bad_frames_total", net_bad_frames);
  // Tensor-storage recycling behind the no-grad encode path (process-wide).
  const nn::BufferPoolStats pool = nn::BufferPool::TotalStats();
  auto emit_u64 = [&](const char* name, uint64_t v) {
    std::snprintf(line, sizeof(line), "%s %llu\n", name,
                  static_cast<unsigned long long>(v));
    out += line;
  };
  emit_u64("nn_buffer_pool_allocs_total", pool.allocs);
  emit_u64("nn_buffer_pool_reuses_total", pool.reuses);
  emit_u64("nn_buffer_pool_releases_total", pool.releases);
  emit_u64("nn_buffer_pool_discards_total", pool.discards);
  emit_u64("nn_buffer_pool_live_bytes", pool.live_bytes);
  // This service's own encode path: fallbacks + padded-batch shape from the
  // per-service sink — two live services no longer interleave these.
  const EncodePathStats enc = encode_path.Stats();
  emit_u64("encode_fallback_total", enc.fallback_total);
  emit_u64("encode_padded_batches_total", enc.padded_batches);
  emit_u64("encode_padded_slots_total", enc.padded_slots);
  emit_u64("encode_valid_tokens_total", enc.valid_tokens);
  emit_value("encode_batch_occupancy", enc.Occupancy());
  const Histogram& waste = encode_path.padded_waste_pct();
  emit_value("encode_padded_waste_pct_mean", waste.mean());
  emit_value("encode_padded_waste_pct_p99", waste.Percentile(0.99));
  // How this process executes encodes: the kernel pool's size, the
  // service's dispatch workers, and the kernel backend (info-style metric:
  // the value is always 1, the labels carry the answer).
  std::snprintf(line, sizeof(line),
                "serving_build_info{pool_threads=\"%d\",dispatch_workers=\"%lld\","
                "kernel_impl=\"%s\"} 1\n",
                ThreadPool::Global().num_threads(),
                static_cast<long long>(dispatch_workers.value()),
                nn::kernels::ActiveImplName());
  out += line;
  return out;
}

}  // namespace preqr::serving
