#include "serving/encoder_service.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/serialize.h"

namespace preqr::serving {
namespace {

using Clock = DeadlineClock;

double ElapsedUs(Clock::time_point since, Clock::time_point until) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(until - since)
             .count() /
         1000.0;
}

double ElapsedUs(Clock::time_point since) {
  return ElapsedUs(since, Clock::now());
}

// Cached embeddings are shared across callers; hand out detached copies so
// a caller mutating its tensor cannot corrupt the cache (or another
// caller's view). Under the guard the copy draws from the BufferPool.
nn::Tensor DetachedCopy(const nn::Tensor& t) {
  nn::NoGradGuard no_grad;
  return t.Detach();
}

Status UnknownTenant(const std::string& tenant_id) {
  return Status::NotFound("unknown tenant '" + tenant_id + "'");
}

Status Deregistering(const std::string& tenant_id) {
  return Status::NotFound("tenant '" + tenant_id + "' is deregistering");
}

}  // namespace

EncoderService::EncoderService(EncoderServiceOptions options)
    : options_(options), ring_(options.ring_capacity) {
  // Derived admission knobs work off the *rounded* ring capacity so the
  // documented fractions hold for any requested size.
  const size_t cap = ring_.capacity();
  per_client_quota_ = options.per_client_quota > 0
                          ? options.per_client_quota
                          : std::max<size_t>(1, cap / 4);
  const size_t reserve =
      options.priority_reserve > 0 ? options.priority_reserve : cap / 4;
  admit_watermark_ = reserve >= cap ? 0 : cap - reserve;
  // One worker per pool thread: the cores the kernels would have fanned
  // out over now each encode a whole tenant batch.
  const int workers = ThreadPool::Global().num_threads();
  metrics_.dispatch_workers.Set(workers);
  workers_.reserve(static_cast<size_t>(workers));
  try {
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { DispatchLoop(); });
    }
  } catch (...) {
    StopWorkers();  // a thread failed to start: join the ones that did
    throw;
  }
}

EncoderService::EncoderService(baselines::QueryEncoder* encoder,
                               EncoderServiceOptions options)
    : EncoderService(options) {
  PREQR_CHECK(encoder != nullptr);
  // Cannot collide: the map is empty at construction.
  PREQR_CHECK(RegisterTenant(kDefaultTenantId, encoder).ok());
}

EncoderService::~EncoderService() { StopWorkers(); }

void EncoderService::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

Status EncoderService::RegisterTenant(const std::string& tenant_id,
                                      baselines::QueryEncoder* encoder,
                                      nn::Module* model,
                                      std::shared_ptr<const void> owner) {
  if (encoder == nullptr) {
    return Status::InvalidArgument("RegisterTenant requires an encoder");
  }
  {
    // The metrics block is created (and, on deregistration, dropped) under
    // tenants_mu_ with the map entry, so a re-registration racing a
    // deregistration never picks up the departing tenant's block.
    std::lock_guard<std::mutex> lock(tenants_mu_);
    if (tenants_.count(tenant_id) > 0) {
      return Status::InvalidArgument("tenant '" + tenant_id +
                                     "' already registered");
    }
    tenants_.emplace(tenant_id,
                     std::make_shared<Tenant>(tenant_id, encoder, model,
                                              std::move(owner), options_,
                                              metrics_.Tenant(tenant_id)));
  }
  metrics_.tenant_registrations.Increment();
  return Status::Ok();
}

Status EncoderService::DeregisterTenant(const std::string& tenant_id) {
  if (tenant_id == kDefaultTenantId) {
    return Status::InvalidArgument(
        "the default tenant cannot be deregistered");
  }
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (tenant->closing) {
      return Status::InvalidArgument("tenant '" + tenant_id +
                                     "' is already deregistering");
    }
    // From here on AdmitOrResolve and BeginCall refuse new work for this
    // tenant with kNotFound; everything already admitted drains.
    tenant->closing = true;
    lock.unlock();
    // Wake admissions parked behind a reload drain so they observe
    // `closing` and fail fast instead of waiting on a dying tenant.
    queue_cv_.notify_all();
    lock.lock();
    queue_cv_.wait(lock, [&] {
      return (tenant->queued == 0 && tenant->inflight == 0 &&
              !tenant->draining) ||
             stopping_;
    });
  }
  {
    // Belt and braces: inflight == 0 already guarantees no encoder call is
    // running, but taking the mutex makes the hand-off explicit.
    std::lock_guard<std::mutex> lock(tenant->encode_mu);
    DropCache(*tenant);
  }
  {
    // The owner goes with the last TenantPtr: this map entry, or a caller
    // that looked the tenant up before the drain and has yet to return.
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants_.erase(tenant_id);
    metrics_.DropTenant(tenant_id);
  }
  metrics_.tenant_deregistrations.Increment();
  queue_cv_.notify_all();
  return Status::Ok();
}

bool EncoderService::HasTenant(const std::string& tenant_id) const {
  return FindTenant(tenant_id) != nullptr;
}

std::vector<std::string> EncoderService::TenantIds() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<std::string> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) ids.push_back(id);
  return ids;
}

EncoderService::TenantPtr EncoderService::FindTenant(
    const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : it->second;
}

size_t EncoderService::cached_embeddings() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  size_t total = 0;
  for (const auto& [id, tenant] : tenants_) total += tenant->cache.size();
  return total;
}

size_t EncoderService::cached_embeddings(const std::string& tenant_id) const {
  TenantPtr tenant = FindTenant(tenant_id);
  return tenant == nullptr ? 0 : tenant->cache.size();
}

size_t EncoderService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return ring_.size();
}

StatusOr<EncoderService::Admitted> EncoderService::Admit(
    const EncodeRequest& request, Clock::time_point now, Routes* routes) {
  // A dead-on-arrival deadline never touches the cache or the ring: the
  // caller has already given up, the cheapest correct answer is "no".
  if (request.deadline <= now) {
    metrics_.deadline_rejected.Increment();
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  // Tenant routing comes before the cache probe: an unknown tenant id has
  // no cache partition to probe, and must not perturb hit/miss counters.
  Admitted admitted;
  if (routes == nullptr) {
    admitted.tenant = FindTenant(request.tenant_id);
  } else {
    auto [it, inserted] = routes->try_emplace(request.tenant_id);
    if (inserted) it->second = FindTenant(request.tenant_id);
    admitted.tenant = it->second;
  }
  Tenant* tenant = admitted.tenant.get();
  if (tenant == nullptr) {
    metrics_.tenant_not_found.Increment();
    return UnknownTenant(request.tenant_id);
  }
  tenant->metrics->requests.Increment();
  admitted.hit = tenant->cache.Get(request.sql);
  if (admitted.hit) {
    metrics_.cache_hits.Increment();
    tenant->metrics->cache_hits.Increment();
  } else {
    metrics_.cache_misses.Increment();
    tenant->metrics->cache_misses.Increment();
  }
  return admitted;
}

std::optional<StatusOr<EncodeResponse>> EncoderService::AdmitOrResolve(
    const EncodeRequest& request,
    std::future<StatusOr<EncodeResponse>>* future) {
  metrics_.requests.Increment();
  const auto t0 = Clock::now();
  StatusOr<Admitted> admitted = Admit(request, t0, /*routes=*/nullptr);
  if (!admitted.ok()) return admitted.status();
  const TenantPtr& tenant = admitted.value().tenant;
  if (admitted.value().hit) {
    EncodeResponse response;
    response.embedding = DetachedCopy(*admitted.value().hit);
    response.tenant_id = tenant->id;
    response.cache_hit = true;
    metrics_.hit_latency_us.Observe(ElapsedUs(t0));
    return StatusOr<EncodeResponse>(std::move(response));
  }
  auto pending = std::make_shared<Pending>();
  pending->sql = request.sql;
  pending->tenant = tenant;
  pending->deadline = request.deadline;
  pending->client_id = request.client_id;
  *future = pending->promise.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    // A per-tenant reload drain parks this tenant's admissions instead of
    // dropping them: nothing is lost, the swap just gets a quiesced queue.
    // Other tenants sail past. Deadlines keep ticking; a deregistration
    // (closing) wakes the parked waiter to fail fast below.
    if (tenant->draining && !stopping_ && !tenant->closing) {
      metrics_.drain_waiters.Increment();
      auto unparked = [&] {
        return !tenant->draining || tenant->closing || stopping_;
      };
      if (pending->deadline == kNoDeadline) {
        queue_cv_.wait(lock, unparked);
      } else if (!queue_cv_.wait_until(lock, pending->deadline, unparked)) {
        metrics_.deadline_rejected.Increment();
        return Status::DeadlineExceeded("deadline expired during reload drain");
      }
    }
    if (stopping_) {
      metrics_.rejected_on_shutdown.Increment();
      return Status::Unavailable("encoder service is shutting down");
    }
    if (tenant->closing) {
      // Deregistration in progress: admitted work drains, new work is
      // refused exactly as if the tenant were already gone.
      return Deregistering(tenant->id);
    }
    // Admission control, cheapest check first. Every rejection is
    // kResourceExhausted — distinguishable from malformed SQL (kParseError
    // / kInvalidArgument) and from expired deadlines (kDeadlineExceeded).
    if (ring_.full()) {
      metrics_.shed_queue_full.Increment();
      tenant->metrics->shed.Increment();
      return Status::ResourceExhausted("request ring full");
    }
    if (ring_.size() >= admit_watermark_ && request.priority <= 0) {
      metrics_.shed_low_priority.Increment();
      tenant->metrics->shed.Increment();
      return Status::ResourceExhausted(
          "request ring past high water; slot reserved for priority > 0");
    }
    auto [it, inserted] = queued_per_client_.try_emplace(pending->client_id, 0);
    if (it->second >= per_client_quota_) {
      if (inserted) queued_per_client_.erase(it);
      metrics_.shed_client_quota.Increment();
      tenant->metrics->shed.Increment();
      return Status::ResourceExhausted("client '" + pending->client_id +
                                       "' exceeded its queued-request quota");
    }
    ++it->second;
    ++tenant->queued;
    pending->enqueued_at = Clock::now();
    PREQR_CHECK(ring_.TryPush(pending));
    metrics_.queue_depth.Increment();
    if (!tenant->dispatching) {
      // Takeable right now: one idle worker is enough.
      lock.unlock();
      work_cv_.notify_one();
    } else if (options_.batch_window.count() > 0 &&
               tenant->queued == static_cast<size_t>(options_.max_batch_size)) {
      // The worker holding this tenant may be waiting out batch_window for
      // exactly this: a full batch.
      lock.unlock();
      queue_cv_.notify_all();
    }
    // Otherwise the worker holding the tenant picks this request up when
    // it rescans the ring after its batch.
  }
  return std::nullopt;
}

StatusOr<EncodeResponse> EncoderService::Encode(const EncodeRequest& request) {
  std::future<StatusOr<EncodeResponse>> future;
  if (auto resolved = AdmitOrResolve(request, &future)) {
    return *std::move(resolved);
  }
  return future.get();
}

std::future<StatusOr<EncodeResponse>> EncoderService::Submit(
    const EncodeRequest& request) {
  std::future<StatusOr<EncodeResponse>> future;
  if (auto resolved = AdmitOrResolve(request, &future)) {
    std::promise<StatusOr<EncodeResponse>> ready;
    ready.set_value(*std::move(resolved));
    return ready.get_future();
  }
  return future;
}

StatusOr<nn::Tensor> EncoderService::Encode(const std::string& sql) {
  EncodeRequest request;
  request.sql = sql;
  auto response = Encode(request);
  if (!response.ok()) return response.status();
  return std::move(response.value().embedding);
}

EncoderService::TenantPtr EncoderService::OldestFreeTenant() const {
  for (size_t i = 0; i < ring_.size(); ++i) {
    const TenantPtr& tenant = ring_.Peek(i)->tenant;
    if (!tenant->dispatching) return tenant;
  }
  return nullptr;
}

void EncoderService::Dequeued(const Pending& p) {
  metrics_.queue_depth.Decrement();
  --p.tenant->queued;
  auto it = queued_per_client_.find(p.client_id);
  if (it != queued_per_client_.end() && --it->second == 0) {
    queued_per_client_.erase(it);
  }
}

std::vector<std::shared_ptr<EncoderService::Pending>>
EncoderService::PopTenantBatch(const Tenant& tenant, Clock::time_point now,
                               bool* wake_drains) {
  std::vector<std::shared_ptr<Pending>> batch;
  const size_t max_batch = static_cast<size_t>(options_.max_batch_size);
  ring_.RemoveIf([&](std::shared_ptr<Pending>& p) {
    // Deadline propagation into the micro-batcher: expired requests are
    // dropped here, before encoding, not discovered afterwards — a busy
    // tenant's included, whenever a worker passes them.
    if (p->deadline <= now) {
      Dequeued(*p);
      if (p->tenant->draining || p->tenant->closing) *wake_drains = true;
      metrics_.deadline_dropped.Increment();
      p->promise.set_value(
          Status::DeadlineExceeded("deadline expired while queued"));
      return true;
    }
    if (p->tenant.get() != &tenant || batch.size() >= max_batch) return false;
    Dequeued(*p);
    batch.push_back(std::move(p));
    return true;
  });
  return batch;
}

void EncoderService::DispatchLoop() {
  // This worker owns whole batches: its kernels never fan out, the other
  // workers run the other tenants' batches at the same time.
  InlineScope inline_kernels;
  const size_t max_batch = static_cast<size_t>(options_.max_batch_size);
  for (;;) {
    TenantPtr tenant;
    std::vector<std::shared_ptr<Pending>> batch;
    Clock::time_point popped_at;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (tenant = OldestFreeTenant()) != nullptr;
      });
      if (stopping_) {
        // Fail whatever is still queued; nobody blocks on a dead service.
        std::shared_ptr<Pending> p;
        while (ring_.TryPop(&p)) {
          Dequeued(*p);
          metrics_.rejected_on_shutdown.Increment();
          p->promise.set_value(
              Status::Unavailable("encoder service destroyed"));
        }
        return;
      }
      // Claim the tenant while still under the lock: no other worker pops
      // its requests until ReleaseTenant, and a drain started now waits for
      // this batch too.
      tenant->dispatching = true;
      ++tenant->inflight;
      // Pass the wake-up on when another tenant is still takeable, so an
      // idle worker never sleeps past queued work.
      if (OldestFreeTenant() != nullptr) work_cv_.notify_one();
      if (options_.batch_window.count() > 0 && tenant->queued < max_batch) {
        // Wait for the tenant's batch to fill, but never past its earliest
        // queued deadline — an expired request must be dropped, not slept
        // over.
        auto wake = Clock::now() + options_.batch_window;
        for (size_t i = 0; i < ring_.size(); ++i) {
          const Pending& p = *ring_.Peek(i);
          if (p.tenant == tenant) wake = std::min(wake, p.deadline);
        }
        queue_cv_.wait_until(lock, wake, [&] {
          return stopping_ || tenant->queued >= max_batch;
        });
        if (stopping_) {
          tenant->dispatching = false;
          --tenant->inflight;
          continue;  // top of loop fails the queue
        }
      }
      popped_at = Clock::now();
      bool wake_drains = false;
      batch = PopTenantBatch(*tenant, popped_at, &wake_drains);
      lock.unlock();
      if (wake_drains) queue_cv_.notify_all();
      if (batch.empty()) {
        // Everything it had queued expired.
        ReleaseTenant(*tenant);
        continue;
      }
    }
    std::vector<std::string> sqls;
    sqls.reserve(batch.size());
    for (const auto& p : batch) sqls.push_back(p->sql);
    const auto encode_t0 = Clock::now();
    auto results = EncodeLocked(*tenant, sqls);
    const double encode_us = ElapsedUs(encode_t0);
    metrics_.batches.Increment();
    metrics_.batch_size.Observe(static_cast<double>(batch.size()));
    metrics_.batch_occupancy_pct.Observe(
        100.0 * static_cast<double>(batch.size()) /
        static_cast<double>(options_.max_batch_size));
    metrics_.batched_queries.Increment(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const double queue_us = ElapsedUs(batch[i]->enqueued_at, popped_at);
      metrics_.queue_latency_us.Observe(queue_us);
      metrics_.encode_latency_us.Observe(ElapsedUs(batch[i]->enqueued_at));
      if (!results[i].ok()) {
        metrics_.errors.Increment();
        tenant->metrics->errors.Increment();
        batch[i]->promise.set_value(results[i].status());
        continue;
      }
      EncodeResponse response;
      response.embedding = std::move(results[i].value());
      response.tenant_id = tenant->id;
      response.cache_hit = false;
      response.queue_us = queue_us;
      response.encode_us = encode_us;
      batch[i]->promise.set_value(std::move(response));
    }
    ReleaseTenant(*tenant);
  }
}

void EncoderService::ReleaseTenant(Tenant& tenant) {
  bool drain_waits;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    tenant.dispatching = false;
    --tenant.inflight;
    drain_waits = tenant.draining || tenant.closing;
  }
  if (drain_waits) queue_cv_.notify_all();
}

std::vector<StatusOr<nn::Tensor>> EncoderService::EncodeLocked(
    Tenant& tenant, const std::vector<std::string>& sqls) {
  std::lock_guard<std::mutex> lock(tenant.encode_mu);
  // Serving encodes are pure inference: no tape on this thread regardless
  // of which QueryEncoder implementation sits behind the interface.
  nn::NoGradGuard no_grad;
  // Fallback/occupancy records from inside the encoder land in this
  // service's sink, not the process-global registry — two services (or
  // tenants of one) never interleave counters.
  ScopedEncodePathSink sink_scope(&metrics_.encode_path);
  auto results = tenant.encoder->TryEncodeVectorBatch(sqls, /*train=*/false);
  // Fill the cache while still holding encode_mu, so an InvalidateCache
  // cannot slip between the encode and the insertion and leave stale
  // embeddings behind.
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (results[i].ok()) {
      tenant.cache.Put(sqls[i], DetachedCopy(results[i].value()));
    }
  }
  return results;
}

std::vector<StatusOr<EncodeResponse>> EncoderService::EncodeBatch(
    const std::vector<EncodeRequest>& requests) {
  // Degenerate empty batch: nothing to do, and no latency observation —
  // an empty request must not skew the per-query histograms.
  if (requests.empty()) return {};
  metrics_.requests.Increment(requests.size());
  const auto t0 = Clock::now();
  const size_t n = requests.size();
  // Rejected slots fail up front; live hits resolve locally; the distinct
  // live misses form one encoder batch per tenant.
  struct TenantGroup {
    TenantPtr tenant;
    std::vector<std::string> sqls;
    std::unordered_map<std::string, int> index;
    std::vector<StatusOr<nn::Tensor>> results;
    double encode_us = 0.0;
    // Set when the group could not run at all (tenant closing/shutdown).
    std::optional<Status> refused;
  };
  std::vector<TenantGroup> groups;
  std::unordered_map<const Tenant*, size_t> group_of_tenant;
  Routes routes;
  std::vector<StatusOr<Admitted>> slots;
  slots.reserve(n);
  std::vector<int> group_of(n, -1);
  std::vector<int> miss_of(n, -1);
  for (size_t i = 0; i < n; ++i) {
    slots.push_back(Admit(requests[i], t0, &routes));
    if (!slots[i].ok()) continue;
    const Admitted& admitted = slots[i].value();
    // Groups follow each tenant's first admitted slot, so tenants encode
    // in request order.
    auto [git, ginserted] =
        group_of_tenant.try_emplace(admitted.tenant.get(), groups.size());
    if (ginserted) {
      groups.push_back(TenantGroup{});
      groups.back().tenant = admitted.tenant;
    }
    if (admitted.hit) continue;
    TenantGroup& group = groups[git->second];
    auto [it, inserted] = group.index.emplace(
        requests[i].sql, static_cast<int>(group.sqls.size()));
    if (inserted) group.sqls.push_back(requests[i].sql);
    group_of[i] = static_cast<int>(git->second);
    miss_of[i] = it->second;
  }
  bool encoded_any = false;
  for (auto& group : groups) {
    if (group.sqls.empty()) continue;
    // The sync path bypasses the ring but not the drain accounting: a
    // per-tenant deregistration must be able to wait this batch out, and
    // must refuse batches that arrive after it started closing.
    Status entered = BeginCall(*group.tenant);
    if (!entered.ok()) {
      group.refused = std::move(entered);
      continue;
    }
    const auto encode_t0 = Clock::now();
    group.results = EncodeLocked(*group.tenant, group.sqls);
    group.encode_us = ElapsedUs(encode_t0);
    EndCall(*group.tenant);
    encoded_any = true;
    metrics_.batches.Increment();
    metrics_.batch_size.Observe(static_cast<double>(group.sqls.size()));
    metrics_.batched_queries.Increment(group.sqls.size());
  }
  std::vector<StatusOr<EncodeResponse>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!slots[i].ok()) {
      out.push_back(slots[i].status());
      continue;
    }
    const Admitted& admitted = slots[i].value();
    EncodeResponse response;
    response.tenant_id = admitted.tenant->id;
    if (admitted.hit) {
      response.embedding = DetachedCopy(*admitted.hit);
      response.cache_hit = true;
      out.push_back(std::move(response));
      continue;
    }
    TenantGroup& group = groups[static_cast<size_t>(group_of[i])];
    if (group.refused) {
      out.push_back(*group.refused);
      continue;
    }
    const auto& r = group.results[static_cast<size_t>(miss_of[i])];
    if (r.ok()) {
      response.embedding = DetachedCopy(r.value());
      response.encode_us = group.encode_us;
      out.push_back(std::move(response));
    } else {
      metrics_.errors.Increment();
      group.tenant->metrics->errors.Increment();
      out.push_back(r.status());
    }
  }
  const double per_query_us = ElapsedUs(t0) / static_cast<double>(n);
  if (encoded_any) {
    metrics_.encode_latency_us.Observe(per_query_us);
  } else {
    metrics_.hit_latency_us.Observe(per_query_us);
  }
  return out;
}

std::vector<StatusOr<nn::Tensor>> EncoderService::EncodeBatch(
    const std::vector<std::string>& sqls) {
  std::vector<EncodeRequest> requests(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) requests[i].sql = sqls[i];
  auto responses = EncodeBatch(requests);
  std::vector<StatusOr<nn::Tensor>> out;
  out.reserve(responses.size());
  for (auto& r : responses) {
    if (r.ok()) {
      out.push_back(std::move(r.value().embedding));
    } else {
      out.push_back(r.status());
    }
  }
  return out;
}

Status EncoderService::BeginCall(Tenant& tenant) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (stopping_) return Status::Unavailable("encoder service is shutting down");
  if (tenant.closing) return Deregistering(tenant.id);
  ++tenant.inflight;
  return Status::Ok();
}

void EncoderService::EndCall(Tenant& tenant) {
  bool drain_waits;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --tenant.inflight;
    // Only a reload or a deregistration waits on inflight.
    drain_waits = tenant.draining || tenant.closing;
  }
  if (drain_waits) queue_cv_.notify_all();
}

void EncoderService::DropCache(Tenant& tenant) {
  metrics_.invalidated_embeddings.Increment(tenant.cache.size());
  tenant.cache.Clear();
}

Status EncoderService::AttachModel(const std::string& tenant_id,
                                   nn::Module* model) {
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  Status entered = BeginCall(*tenant);
  if (!entered.ok()) return entered;
  {
    std::lock_guard<std::mutex> lock(tenant->encode_mu);
    tenant->model = model;
    // The attached module may not be the weights the encoder was built
    // against; dropping the encoder's memoized state (cached prefixes and
    // the schema encoding) keeps it consistent with whatever is now behind
    // it.
    tenant->encoder->InvalidateCache();
  }
  EndCall(*tenant);
  return Status::Ok();
}

void EncoderService::AttachModel(nn::Module* model) {
  PREQR_CHECK(AttachModel(kDefaultTenantId, model).ok());
}

Status EncoderService::ReloadModel(const std::string& path) {
  return ReloadModel(kDefaultTenantId, path);
}

Status EncoderService::ReloadModel(const std::string& tenant_id,
                                   const std::string& path) {
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    // One drain per tenant at a time; later reloads queue behind the
    // current one. Other tenants' drains proceed independently.
    queue_cv_.wait(lock, [&] { return !tenant->draining || stopping_; });
    if (stopping_) return Status::Unavailable("encoder service destroyed");
    if (tenant->closing) return Deregistering(tenant->id);
    tenant->draining = true;
    // Everything this tenant already admitted is waited out, not dropped:
    // the counter records how much in-flight work each reload had to let
    // finish. Other tenants keep flowing throughout.
    metrics_.drained_requests.Increment(tenant->queued);
    tenant->metrics->drained_requests.Increment(tenant->queued);
    queue_cv_.wait(lock, [&] {
      return (tenant->queued == 0 && tenant->inflight == 0) || stopping_;
    });
  }
  Status s;
  {
    // This tenant's queue is quiesced and its admissions are parked; the
    // encode mutex still guards against the synchronous EncodeBatch path,
    // so no batch ever sees half-new weights and no stale result can be
    // cached after the swap. The model check lives here too: taking
    // encode_mu before the drain would deadlock against a dispatch worker
    // mid-encode on this tenant.
    std::lock_guard<std::mutex> lock(tenant->encode_mu);
    if (tenant->model == nullptr) {
      s = Status::InvalidArgument("ReloadModel requires AttachModel before use");
    } else {
      s = nn::LoadModule(*tenant->model, path);
      if (s.ok()) {
        DropCache(*tenant);
        tenant->encoder->InvalidateCache();
        metrics_.invalidations.Increment();
        metrics_.reloads.Increment();
        tenant->metrics->reloads.Increment();
      } else {
        // LoadModule is transactional: the weights are untouched, so the
        // cached embeddings are still correct — keep serving them.
        metrics_.reload_failures.Increment();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    tenant->draining = false;
  }
  queue_cv_.notify_all();
  return s;
}

Status EncoderService::InvalidateTenant(Tenant& tenant) {
  Status entered = BeginCall(tenant);
  if (!entered.ok()) return entered;
  {
    // Taking encode_mu waits out any in-flight batch of this tenant, and
    // EncodeLocked inserts before releasing it — so after the drop nothing
    // stale can appear.
    std::lock_guard<std::mutex> lock(tenant.encode_mu);
    DropCache(tenant);
    tenant.encoder->InvalidateCache();
  }
  EndCall(tenant);
  return Status::Ok();
}

Status EncoderService::InvalidateCache(const std::string& tenant_id) {
  TenantPtr tenant = FindTenant(tenant_id);
  if (tenant == nullptr) return UnknownTenant(tenant_id);
  Status s = InvalidateTenant(*tenant);
  if (s.ok()) metrics_.invalidations.Increment();
  return s;
}

void EncoderService::InvalidateCache() {
  std::vector<TenantPtr> tenants;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& [id, tenant] : tenants_) tenants.push_back(tenant);
  }
  // A tenant that started deregistering since the snapshot is skipped: its
  // partition is being dropped anyway, and its encoder is off limits.
  for (const auto& tenant : tenants) (void)InvalidateTenant(*tenant);
  metrics_.invalidations.Increment();
}

}  // namespace preqr::serving
