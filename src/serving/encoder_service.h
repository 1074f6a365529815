#ifndef PREQR_SERVING_ENCODER_SERVICE_H_
#define PREQR_SERVING_ENCODER_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/encoder.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "nn/module.h"
#include "serving/metrics.h"
#include "serving/request_ring.h"

namespace preqr::serving {

// Steady-clock deadline carried by every request. kNoDeadline means the
// caller will wait as long as it takes.
using DeadlineClock = std::chrono::steady_clock;
inline constexpr DeadlineClock::time_point kNoDeadline =
    DeadlineClock::time_point::max();
// Absolute deadline `timeout` from now — the usual way callers build one.
// Saturating: a timeout so large that now + timeout would overflow the
// clock's (nanosecond int64) representation — e.g. a hostile timeout_us of
// INT64_MAX off the wire — becomes kNoDeadline instead of signed-overflow
// UB that wraps the deadline into the past and fails the request with
// kDeadlineExceeded on arrival.
template <typename Rep, typename Period>
DeadlineClock::time_point DeadlineAfter(
    std::chrono::duration<Rep, Period> timeout) {
  const DeadlineClock::time_point now = DeadlineClock::now();
  // Compare in double seconds: converting the timeout into the clock's
  // duration first could itself overflow before the comparison runs. The
  // 1 s margin absorbs the double rounding; nobody can tell kNoDeadline
  // from a deadline ~292 years out.
  using DSec = std::chrono::duration<double>;
  const double timeout_s = std::chrono::duration_cast<DSec>(timeout).count();
  const double headroom_s =
      std::chrono::duration_cast<DSec>(DeadlineClock::time_point::max() - now)
          .count();
  if (timeout_s >= headroom_s - 1.0) return kNoDeadline;
  return now + std::chrono::duration_cast<DeadlineClock::duration>(timeout);
}

// The tenant every tenant-less request routes to: the encoder the service
// was constructed with. Single-tenant callers never mention tenants at all.
inline constexpr const char kDefaultTenantId[] = "";

// The transport-independent request contract. Every field beyond `sql` is
// optional; a default-constructed request behaves like the old bare
// Encode(sql) call (default tenant, no deadline, anonymous client, normal
// priority).
struct EncodeRequest {
  std::string sql;
  // Which tenant's schema/model/cache serves this query. "" is the default
  // tenant; an id with no registered tenant fails with kNotFound before
  // any cache partition is probed.
  std::string tenant_id;
  // Requests whose deadline passes before encoding starts fail with
  // kDeadlineExceeded — on arrival if already expired, or dropped by a
  // dispatch worker while queued. Work that already started is always
  // delivered.
  DeadlineClock::time_point deadline = kNoDeadline;
  // Admission-control key: each client id gets an equal share of the
  // request ring ("" is the shared anonymous bucket).
  std::string client_id;
  // Requests with priority > 0 may use the reserved tail of the ring when
  // it is past its high-water mark; priority <= 0 requests are shed there.
  int priority = 0;
};

// What a successful encode returns: the embedding plus the per-request
// observability callers need to build latency SLOs on top.
struct EncodeResponse {
  nn::Tensor embedding;
  std::string tenant_id;   // the tenant that served it ("" = default)
  bool cache_hit = false;
  double queue_us = 0.0;   // admission -> worker pop (0 for cache hits)
  double encode_us = 0.0;  // micro-batch encode time (0 for cache hits)
};

// Knobs for the embedding cache, the micro-batcher, and admission control.
struct EncoderServiceOptions {
  // Embeddings held across all cache shards, per tenant (each tenant owns
  // its own cache partition of this size).
  size_t cache_capacity = 4096;
  int cache_shards = 8;
  // Most queries one dispatched micro-batch may carry.
  int max_batch_size = 64;
  // How long a dispatch worker that picked a tenant waits for more of that
  // tenant's requests before handing a non-full batch to its encoder. 0
  // dispatches whatever is queued immediately — requests that arrive while
  // the tenant's earlier batch is encoding still coalesce, which is the
  // common case under load.
  std::chrono::microseconds batch_window{0};
  // Bounded request ring (rounded up to a power of two), shared by all
  // tenants. A full ring sheds with kResourceExhausted instead of queueing
  // without bound.
  size_t ring_capacity = 256;
  // Most requests one client id may have queued at once; above it the
  // client is shed with kResourceExhausted while others keep being
  // admitted. 0 derives capacity/4 (clamped to >= 1).
  size_t per_client_quota = 0;
  // Ring slots reserved for priority > 0 requests: once the ring holds
  // capacity - priority_reserve requests, priority <= 0 arrivals are shed.
  // 0 derives capacity/4.
  size_t priority_reserve = 0;
};

// Thread-safe embedding-serving front-end over any baselines::QueryEncoder.
// Learned DB components (cardinality/cost heads, clustering) issue cheap
// repeated lookups over a frequent-query workload; this layer turns that
// access pattern into cache hits and coalesced encoder batches, and bounds
// it: a request ring with per-client admission control sheds overload with
// canonical codes instead of queueing without bound.
//
// The service hosts N *tenants*: each tenant is one database's encoder (its
// own schema graph, vocabulary, automaton, and model behind the
// QueryEncoder interface) with its own cache partition, encode mutex, and
// per-tenant metrics. The encoder passed at construction becomes the
// default tenant (""), so single-tenant callers are unchanged; more tenants
// register and deregister at runtime under load.
//
//  * Results are cached per tenant in a sharded LRU keyed by the SQL text —
//    the effective cache key is (tenant, sql), so identical SQL under two
//    tenants never shares an entry; hits return a detached copy without
//    touching the encoder.
//  * Misses are admitted onto a bounded ring (shared across tenants) and
//    dispatched in micro-batches through TryEncodeVectorBatch by K dispatch
//    workers, K = the global thread pool's size at construction
//    (PREQR_NUM_THREADS=1 gives one). A worker takes the oldest queued
//    tenant that has no batch in flight, pops up to max_batch_size of that
//    tenant's requests (in FIFO order, leaving everyone else's queued), and
//    encodes the batch start to finish with its kernels inline — the
//    parallelism is across tenant batches, not inside one GEMM. A tenant's
//    encoder only ever sees one call at a time, so encoders that are not
//    themselves thread-safe are safe behind the service.
//  * Error contract (canonical codes): malformed SQL -> kParseError /
//    kInvalidArgument; unknown tenant -> kNotFound (before the cache
//    probe); expired deadline -> kDeadlineExceeded; shed by admission
//    control -> kResourceExhausted; destroyed mid-flight -> kUnavailable.
//  * Determinism: encodes run with train=false and each query's
//    computation is independent, so every result — cached or not, batched
//    or not, under any tenant interleaving — is bitwise-identical to
//    EncodeVector(sql, false) on that tenant's encoder alone (pinned by
//    parallel_determinism_test and tenant_test).
class EncoderService {
 public:
  // Registers `encoder` as the default tenant ("").
  explicit EncoderService(baselines::QueryEncoder* encoder,
                          EncoderServiceOptions options = {});
  // Starts with no tenants at all (multi-tenant serving): every request is
  // kNotFound until RegisterTenant is called.
  explicit EncoderService(EncoderServiceOptions options);
  // Fails every request still queued with kUnavailable, then joins the
  // dispatch workers (a batch already encoding is delivered first).
  ~EncoderService();

  // --- Tenant lifecycle (safe under concurrent traffic) -------------------
  // The service is the one owner of tenant membership. RegisterTenant gives
  // a tenant its own cache partition, metrics block, and encode mutex.
  // `encoder` (and `model`, when given — it enables per-tenant ReloadModel)
  // must stay alive while the service can reach them: pass whatever owns
  // them as `owner` (e.g. the tenant's TenantContext) and the service keeps
  // it alive until the last reference to the tenant is gone — after
  // deregistration, once the in-flight calls that still hold the tenant
  // have returned. Without an owner the caller guarantees the lifetime.
  // Fails with kInvalidArgument on a duplicate id or a null encoder.
  Status RegisterTenant(const std::string& tenant_id,
                        baselines::QueryEncoder* encoder,
                        nn::Module* model = nullptr,
                        std::shared_ptr<const void> owner = {});
  // Deregisters a tenant with a reload-style drain: new work for the
  // tenant is refused with kNotFound immediately, everything already
  // admitted is encoded and delivered (never dropped), then exactly this
  // tenant's cache partition is dropped and its metrics lines disappear.
  // Once it returns, no call through the service reaches the tenant's
  // encoder again. Other tenants are not disturbed. The default tenant
  // cannot be deregistered.
  Status DeregisterTenant(const std::string& tenant_id);
  bool HasTenant(const std::string& tenant_id) const;
  std::vector<std::string> TenantIds() const;

  // Encodes one request (blocking): cache hit, or admitted onto the ring
  // and coalesced into a micro-batch. Admission errors (unknown tenant,
  // shed, expired deadline) return immediately without reaching the
  // encoder.
  StatusOr<EncodeResponse> Encode(const EncodeRequest& request);

  // Async submit: admission (cache probe, deadline check, shedding) runs
  // synchronously so rejected requests resolve immediately; the returned
  // future resolves when the micro-batcher delivers. During a reload drain
  // Submit parks like Encode does (admission is the blocking part).
  std::future<StatusOr<EncodeResponse>> Submit(const EncodeRequest& request);

  // Encodes a workload slice synchronously: expired slots fail with
  // kDeadlineExceeded, cache hits resolve locally, and the distinct
  // remaining misses go to the encoder as one batch per tenant, bypassing
  // the ring (the caller is its own admission control — the batch is
  // bounded). Slot i corresponds to requests[i]; slots fail independently,
  // so a malformed query for tenant A cannot poison tenant B's slot.
  std::vector<StatusOr<EncodeResponse>> EncodeBatch(
      const std::vector<EncodeRequest>& requests);

  // Convenience overloads (explicitly kept): the request-struct calls
  // above are the API; these wrap them for callers that want the old
  // bare-SQL shape (default tenant, no deadline, anonymous client) and
  // just the tensor.
  StatusOr<nn::Tensor> Encode(const std::string& sql);
  std::vector<StatusOr<nn::Tensor>> EncodeBatch(
      const std::vector<std::string>& sqls);

  // Drops one tenant's cached embeddings and its encoder's own memoized
  // state. Call after the wrapped model's parameters changed (further
  // pre-training, incremental updates); waits for any in-flight batch.
  // kNotFound for unknown or deregistering ids.
  Status InvalidateCache(const std::string& tenant_id);
  // Same, for every registered tenant.
  void InvalidateCache();

  // Re-points a tenant's model (RegisterTenant's `model` argument is the
  // usual way to set it), enabling ReloadModel. Non-owned; must outlive the
  // tenant's registration. kNotFound for unknown or deregistering ids.
  Status AttachModel(const std::string& tenant_id, nn::Module* model);
  // Same, for the default tenant; crashes when there is none.
  void AttachModel(nn::Module* model);

  // Hot model reload for the default tenant — see the tenant overload.
  Status ReloadModel(const std::string& path);
  // Hot model reload (the paper's incremental-update loop, Table 5) for
  // one tenant, with a graceful per-tenant drain: new admissions for this
  // tenant park (they are never dropped), the workers finish everything
  // the tenant already queued, then the swap runs under the
  // tenant's encode mutex and its stale cache partition is cleared before
  // the parked requests proceed against the new weights. Other tenants
  // keep encoding throughout. On failure (missing/corrupt file,
  // architecture mismatch) the weights and the cache are left exactly as
  // they were and serving continues.
  Status ReloadModel(const std::string& tenant_id, const std::string& path);

  // Cached embeddings summed over all tenants / for one tenant (0 for
  // unknown ids).
  size_t cached_embeddings() const;
  size_t cached_embeddings(const std::string& tenant_id) const;
  size_t queue_depth() const;
  ServingMetrics& metrics() { return metrics_; }
  const ServingMetrics& metrics() const { return metrics_; }

 private:
  // One hosted database: its encoder, optional model (for reloads), cache
  // partition, and serialization point. `queued`, `inflight`,
  // `dispatching`, `draining` and `closing` are guarded by queue_mu_ — they
  // drive worker claims and the per-tenant drain conditions.
  struct Tenant {
    Tenant(std::string tenant_id, baselines::QueryEncoder* enc,
           nn::Module* mod, std::shared_ptr<const void> owned_by,
           const EncoderServiceOptions& options,
           std::shared_ptr<TenantMetrics> tenant_metrics)
        : owner(std::move(owned_by)),
          id(std::move(tenant_id)),
          encoder(enc),
          model(mod),
          cache(options.cache_capacity, options.cache_shards),
          metrics(std::move(tenant_metrics)) {}

    // Keeps encoder/model alive for as long as this record is reachable;
    // declared first so it is released last.
    const std::shared_ptr<const void> owner;
    const std::string id;
    baselines::QueryEncoder* const encoder;  // kept alive by `owner`
    nn::Module* model;                       // non-owned; guarded by encode_mu
    ShardedLruCache<std::string, nn::Tensor> cache;
    std::shared_ptr<TenantMetrics> metrics;
    // Serializes every call into *encoder (dispatch workers, EncodeBatch
    // misses, InvalidateCache, the reload swap) — per tenant, so one
    // tenant's reload never blocks another tenant's encodes. At most one
    // worker holds a tenant (`dispatching`), so a worker only ever waits
    // on it behind a synchronous call, never behind another worker.
    std::mutex encode_mu;
    // --- guarded by queue_mu_ ---
    size_t queued = 0;     // this tenant's requests sitting in the ring
    int inflight = 0;      // batches being encoded right now (ring + sync)
    bool dispatching = false;  // a dispatch worker holds this tenant
    bool draining = false; // a reload is waiting this tenant's work out
    bool closing = false;  // deregistration: refuse new work, drain the rest
  };
  using TenantPtr = std::shared_ptr<Tenant>;

  struct Pending {
    std::string sql;
    TenantPtr tenant;
    DeadlineClock::time_point deadline = kNoDeadline;
    std::string client_id;
    DeadlineClock::time_point enqueued_at;
    std::promise<StatusOr<EncodeResponse>> promise;
  };

  // A request that passed admission: its tenant and, on a hit, the cached
  // embedding (shared with the cache — callers hand out a detached copy).
  struct Admitted {
    TenantPtr tenant;
    std::optional<nn::Tensor> hit;
  };
  // Tenant lookups memoized per id across one EncodeBatch call.
  using Routes = std::unordered_map<std::string, TenantPtr>;

  TenantPtr FindTenant(const std::string& tenant_id) const;
  // The admission steps every entry point shares, in contract order: the
  // deadline on arrival, tenant routing (kNotFound before any probe),
  // per-tenant request counting, then the cache probe with its hit/miss
  // counters. `routes` (may be null) memoizes routing across a batch.
  StatusOr<Admitted> Admit(const EncodeRequest& request,
                           DeadlineClock::time_point now, Routes* routes);
  // Admit, then resolve hits locally or run the drain/shed checks and push
  // misses onto the ring. Returns an already-resolved result for hits and
  // rejections, or nullopt after a successful enqueue — *future then
  // delivers when the batcher does.
  std::optional<StatusOr<EncodeResponse>> AdmitOrResolve(
      const EncodeRequest& request,
      std::future<StatusOr<EncodeResponse>>* future);
  // Counts a synchronous call into the tenant's encoder (sync batch,
  // invalidation, model attach) as in flight, so drains wait it out.
  // Refused once the tenant is closing (kNotFound) or the service is
  // stopping (kUnavailable). Every successful BeginCall pairs with EndCall.
  Status BeginCall(Tenant& tenant);
  void EndCall(Tenant& tenant);
  // Drops the tenant's cache partition and counts what it held. Caller
  // holds tenant.encode_mu, so no encode can refill it mid-drop.
  void DropCache(Tenant& tenant);
  // InvalidateCache's per-tenant body, without the invalidations count.
  Status InvalidateTenant(Tenant& tenant);
  // Sets stopping_ and joins every started worker; the first worker to see
  // it fails whatever is still queued with kUnavailable.
  void StopWorkers();
  // One dispatch worker's loop: claims the oldest free tenant, pops its
  // batch (PopTenantBatch), encodes it with inline kernels and fulfills the
  // promises. Every worker runs it; they share the ring under queue_mu_.
  void DispatchLoop();
  // Tenant of the oldest queued request whose tenant no dispatch worker
  // holds; null when there is none. A synchronous call in flight does not
  // make a tenant busy: the worker that takes it waits on encode_mu.
  // Caller holds queue_mu_.
  TenantPtr OldestFreeTenant() const;
  // Hands a claimed tenant back (clears `dispatching`, ends the in-flight
  // count) and wakes its drain waiters, if any. The releasing worker
  // rescans the ring before it sleeps, so no worker needs waking for the
  // tenant's newer requests.
  void ReleaseTenant(Tenant& tenant);
  // Removes up to max_batch_size of `tenant`'s live requests from the ring,
  // oldest first, and fails every expired request it passes (any tenant's)
  // with kDeadlineExceeded; everything else stays queued in order. Sets
  // *wake_drains when a dropped request belonged to a tenant that a reload
  // or deregistration is draining, whose waiter the caller must wake once
  // it lets go of queue_mu_. Caller holds queue_mu_.
  std::vector<std::shared_ptr<Pending>> PopTenantBatch(
      const Tenant& tenant, DeadlineClock::time_point now, bool* wake_drains);
  // Takes `p` off the admission books (ring gauge, tenant and client
  // counts) once it has left the ring. Caller holds queue_mu_.
  void Dequeued(const Pending& p);
  // Encodes one single-tenant batch under the tenant's encode mutex and
  // fills that tenant's cache partition. Installs the service's encode-path
  // sink for the duration.
  std::vector<StatusOr<nn::Tensor>> EncodeLocked(
      Tenant& tenant, const std::vector<std::string>& sqls);

  EncoderServiceOptions options_;
  size_t per_client_quota_ = 0;
  size_t admit_watermark_ = 0;  // ring size at which priority<=0 sheds
  ServingMetrics metrics_;

  // Guards the map and each entry's metrics-block lifecycle, not tenant state.
  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantPtr> tenants_;

  mutable std::mutex queue_mu_;
  // Idle dispatch workers wait here, one woken per takeable request.
  std::condition_variable work_cv_;
  // Drain waiters, admissions parked behind a reload, and batch_window
  // waits — everything that is not an idle worker.
  std::condition_variable queue_cv_;
  RequestRing<std::shared_ptr<Pending>> ring_;
  std::unordered_map<std::string, size_t> queued_per_client_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;  // the dispatch workers
};

}  // namespace preqr::serving

#endif  // PREQR_SERVING_ENCODER_SERVICE_H_
