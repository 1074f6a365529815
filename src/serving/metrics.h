#ifndef PREQR_SERVING_METRICS_H_
#define PREQR_SERVING_METRICS_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"

namespace preqr::serving {

// The primitives live in common/metrics.h, below the tasks layer that
// records into them; serving code and its callers keep the serving:: names.
using preqr::Counter;
using preqr::EncodePathSink;
using preqr::EncodePathStats;
using preqr::Gauge;
using preqr::GlobalEncodePathStats;
using preqr::GlobalPaddedWasteHistogram;
using preqr::Histogram;
using preqr::RecordEncodeFallback;
using preqr::RecordPaddedBatch;
using preqr::ScopedEncodePathSink;

// Per-tenant slice of the serving counters. The aggregate ServingMetrics
// counters keep counting every tenant's traffic; these break the same
// events down by tenant for DumpText's labeled lines and the isolation
// tests. Blocks are created on demand and kept alive by shared_ptr so a
// request that raced a deregistration can still bump its counters safely.
struct TenantMetrics {
  Counter requests;          // Encode + EncodeBatch slots for this tenant
  Counter cache_hits;        // served from this tenant's cache partition
  Counter cache_misses;      // had to reach this tenant's encoder
  Counter errors;            // malformed SQL under this tenant
  Counter shed;              // admission-control rejections
  Counter reloads;           // successful per-tenant model reloads
  Counter drained_requests;  // queued work a reload/deregister waited out
};

// Everything the embedding-serving layer exports. DumpText renders a
// Prometheus-style text snapshot; the bench harness prints it after a run.
struct ServingMetrics {
  Counter requests;         // Encode + EncodeBatch slots
  Counter cache_hits;       // served from the embedding LRU
  Counter cache_misses;     // had to reach the encoder
  Counter errors;           // malformed SQL (error Status returned)
  Counter batches;          // micro-batches dispatched to the encoder
  Counter batched_queries;  // queries carried by those batches
  Counter invalidations;    // InvalidateCache calls (ReloadModel included)
  Counter reloads;          // successful hot model reloads
  Counter reload_failures;  // rejected reloads (weights kept, cache intact)

  // --- Admission control / deadlines (request ring front of the service) --
  Counter shed_queue_full;     // kResourceExhausted: ring at capacity
  Counter shed_client_quota;   // kResourceExhausted: client over its share
  Counter shed_low_priority;   // kResourceExhausted: ring past high water,
                               // priority <= 0
  Counter deadline_rejected;   // kDeadlineExceeded on arrival (never queued)
  Counter deadline_dropped;    // kDeadlineExceeded while queued — dropped by
                               // a dispatch worker before encoding
  uint64_t ShedTotal() const {
    return shed_queue_full.value() + shed_client_quota.value() +
           shed_low_priority.value();
  }

  // --- Drain / invalidation (dropped or waited-out in-flight work) --------
  Counter drain_waiters;           // admissions parked while a reload drained
  Counter drained_requests;        // queued requests a drain waited out
  Counter invalidated_embeddings;  // cached embeddings dropped by
                                   // InvalidateCache/ReloadModel/deregister
  Counter rejected_on_shutdown;    // kUnavailable: queued at destruction

  // --- Tenancy (tenant lifecycle + routing) --------------------------------
  Counter tenant_not_found;        // kNotFound: unknown tenant id, rejected
                                   // before the cache probe
  Counter tenant_registrations;    // RegisterTenant calls that succeeded
  Counter tenant_deregistrations;  // DeregisterTenant drains that completed

  Gauge queue_depth;  // requests in the ring right now
  Gauge dispatch_workers;  // the service's dispatch worker threads

  Histogram batch_size{1.0, 2.0, 12};
  Histogram encode_latency_us{1.0, 4.0, 16};  // cold path, per request
  Histogram hit_latency_us{1.0, 4.0, 16};     // cache-hit path, per request
  Histogram queue_latency_us{1.0, 4.0, 16};   // admission -> dispatch pop
  // Percent of max_batch_size capacity each dispatched micro-batch used —
  // low means the batch window closes before the queue fills.
  Histogram batch_occupancy_pct{1.0, 2.0, 9};

  // --- Network front-end (EncodeServer) -----------------------------------
  Counter net_connections;           // accepted connections
  Counter net_connections_rejected;  // closed at accept: over the cap
  Counter net_requests;              // frames dispatched to a handler
  Counter net_bad_frames;            // unparseable/oversized frames or a
                                     // protocol-version mismatch

  // This service's own encode-path shape (fallbacks + padded batches):
  // installed as the thread's sink around every encoder call the service
  // makes, so two services never interleave these numbers.
  EncodePathSink encode_path;

  // Per-tenant counter block, created on demand. The returned block stays
  // valid for the caller even after DropTenant (shared ownership).
  std::shared_ptr<TenantMetrics> Tenant(const std::string& tenant_id);
  // Stops rendering the tenant's lines; outstanding holders of the block
  // keep a harmless orphan.
  void DropTenant(const std::string& tenant_id);

  double CacheHitRate() const;
  std::string DumpText() const;

 private:
  mutable std::mutex tenants_mu_;
  // Ordered so DumpText emits tenants in a stable order.
  std::map<std::string, std::shared_ptr<TenantMetrics>> tenants_;
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_METRICS_H_
