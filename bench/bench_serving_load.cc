// Closed-loop load harness for the serving front-end: sweeps client
// concurrency against a live loopback EncodeServer and reports, per load
// point, the latency distribution of admitted requests (p50/p95/p99),
// sustained throughput, shed rate, and cache-hit rate — the numbers that
// tell you where the box saturates and whether admission control keeps
// tail latency bounded past that point (it must: overload is shed with
// kResourceExhausted, not absorbed into the queue).
//
// Environment knobs:
//   LOAD_SECONDS        wall time per load point          (default 2)
//   LOAD_CLIENTS        peak closed-loop concurrency      (default 32)
//   LOAD_RING           service ring capacity             (default 16)
//   LOAD_TIMEOUT_US     per-request deadline, <0 = none   (default 500000)
//   LOAD_CORPUS         distinct SQL queries in the mix   (default 48)
//   LOAD_CACHE          embedding-cache capacity          (default 8)
//   TENANTS             hosted databases, round-robin     (default 1)
//   BENCH_SERVING_JSON  output path                (default BENCH_serving.json)
//
// TENANTS=N registers N TenantContexts (same IMDB catalog, independently
// seeded weights — the serving layer is what is being measured, and
// identical catalogs make the per-tenant rows comparable) and assigns
// client threads round-robin, so every load point reports both the
// aggregate and a per-tenant breakdown in BENCH_serving.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/pretrain.h"
#include "db/stats.h"
#include "nn/kernels_dispatch.h"
#include "serving/client.h"
#include "serving/encoder_service.h"
#include "serving/server.h"
#include "serving/tenant_registry.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace {

using preqr::StatusCode;

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atol(v) : fallback;
}

std::string EnvStr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

// Per-thread deterministic generator (xorshift64*) so runs are repeatable.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
};

struct ThreadStats {
  std::vector<double> ok_latency_us;
  uint64_t ok = 0, hits = 0, shed = 0, deadline = 0, errors = 0;
};

// Client-side per-tenant slice of one load point (threads are assigned to
// tenants round-robin, so a load point below TENANTS clients legitimately
// leaves some tenants at zero).
struct TenantPoint {
  std::string tenant;
  uint64_t ok = 0, hits = 0, shed = 0, deadline = 0, errors = 0;
  double qps = 0.0;
};

struct LoadPoint {
  int clients = 0;
  double seconds = 0.0;
  uint64_t requests = 0, ok = 0, hits = 0, shed = 0, deadline = 0, errors = 0;
  double qps = 0.0, p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  double shed_rate = 0.0, cache_hit_rate = 0.0;
  std::vector<TenantPoint> per_tenant;
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main() {
  const long seconds = EnvLong("LOAD_SECONDS", 2);
  const long max_clients = EnvLong("LOAD_CLIENTS", 32);
  const long ring_capacity = EnvLong("LOAD_RING", 16);
  const long timeout_us = EnvLong("LOAD_TIMEOUT_US", 500000);
  const long corpus_size = EnvLong("LOAD_CORPUS", 48);
  const long cache_capacity = EnvLong("LOAD_CACHE", 8);
  const long tenants = std::max(1L, EnvLong("TENANTS", 1));
  const std::string json_path =
      EnvStr("BENCH_SERVING_JSON", "BENCH_serving.json");

  // Same small-model setup as the serving tests: the harness measures the
  // serving layer, not the model; a 32-dim encoder saturates a core fast.
  auto imdb = preqr::workload::MakeImdbDatabase(7, 0.02);
  preqr::db::StatsCollector collector;
  auto stats = collector.AnalyzeAll(imdb);
  preqr::workload::ImdbQueryGenerator gen(imdb, 3);
  std::vector<std::string> corpus;
  std::unordered_set<std::string> seen;
  for (const auto& q : gen.Synthetic(static_cast<int>(corpus_size), 2)) {
    if (seen.insert(q.sql).second) corpus.push_back(q.sql);
  }
  preqr::core::PreqrConfig config;
  config.d_model = 32;
  config.ffn_hidden = 64;

  preqr::serving::EncoderServiceOptions service_options;
  service_options.ring_capacity = static_cast<size_t>(ring_capacity);
  // A cache smaller than the corpus keeps the encoder the bottleneck: the
  // hot head of the skewed mix still hits, the tail forces real encodes —
  // otherwise the whole sweep degenerates into an LRU-lookup benchmark.
  // Each tenant owns its own partition of this size.
  service_options.cache_capacity = static_cast<size_t>(cache_capacity);
  // Each load thread is its own client: the fairness quota must not be
  // what sheds a uniform workload, only the ring bound should.
  service_options.per_client_quota = static_cast<size_t>(ring_capacity);
  service_options.batch_window = std::chrono::microseconds(200);
  preqr::serving::EncoderService service(service_options);
  std::vector<std::string> tenant_ids;
  for (long t = 0; t < tenants; ++t) {
    preqr::serving::TenantContext::Options tenant_options;
    tenant_options.catalog = imdb.catalog();
    tenant_options.stats = stats;
    tenant_options.corpus = corpus;
    tenant_options.config = config;
    tenant_options.seed = 17 + static_cast<uint64_t>(t);
    auto context =
        preqr::serving::TenantContext::Create(std::move(tenant_options));
    if (!context.ok()) {
      std::fprintf(stderr, "tenant context failed: %s\n",
                   context.status().ToString().c_str());
      return 1;
    }
    const std::string id = "t" + std::to_string(t);
    std::shared_ptr<preqr::serving::TenantContext> shared(
        std::move(context.value()));
    // The service owns the context from here on: it lives until the last
    // reference to the tenant is gone.
    auto registered = service.RegisterTenant(id, shared->encoder(),
                                             shared->model(), shared);
    if (!registered.ok()) {
      std::fprintf(stderr, "tenant register failed: %s\n",
                   registered.ToString().c_str());
      return 1;
    }
    std::printf("tenant %s: %s\n", id.c_str(), shared->Describe().c_str());
    tenant_ids.push_back(id);
  }
  preqr::serving::ServerOptions server_options;
  server_options.max_connections = static_cast<int>(max_clients) + 4;
  preqr::serving::EncodeServer server(&service, server_options);
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::vector<int> points;
  for (int c = 1; c <= max_clients; c *= 2) points.push_back(c);

  std::printf("serving load sweep: ring=%ld cache=%ld window=200us "
              "timeout=%ldus corpus=%zu model=d%d tenants=%ld\n",
              ring_capacity, cache_capacity, timeout_us, corpus.size(),
              config.d_model, tenants);
  std::printf("%8s %10s %10s %10s %10s %9s %9s %9s\n", "clients", "q/s",
              "p50_us", "p95_us", "p99_us", "shed%", "hit%", "dlx");

  std::vector<LoadPoint> results;
  for (int clients : points) {
    std::vector<ThreadStats> stats_per_thread(clients);
    std::vector<std::thread> workers;
    std::atomic<bool> stop{false};
    const auto t_start = std::chrono::steady_clock::now();
    for (int t = 0; t < clients; ++t) {
      workers.emplace_back([&, t] {
        preqr::serving::EncodeClient client;
        if (!client.Connect(server.port()).ok()) return;
        preqr::serving::WireRequestOptions options;
        options.timeout_us = timeout_us;
        options.client_id = "client-" + std::to_string(t);
        // Round-robin tenant assignment: thread t drives tenant t mod N.
        options.tenant_id = tenant_ids[static_cast<size_t>(t) %
                                       tenant_ids.size()];
        Rng rng(static_cast<uint64_t>(t) + 1);
        ThreadStats& s = stats_per_thread[t];
        while (!stop.load(std::memory_order_relaxed)) {
          // Skewed query mix (u^2): a hot head keeps the cache busy while
          // the tail keeps the encoder busy — both paths stay exercised.
          const double u = rng.Uniform();
          const size_t idx =
              static_cast<size_t>(u * u * static_cast<double>(corpus.size()));
          const auto q0 = std::chrono::steady_clock::now();
          auto r = client.Encode(corpus[std::min(idx, corpus.size() - 1)],
                                 options);
          const double us =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - q0)
                  .count() /
              1000.0;
          if (r.ok()) {
            ++s.ok;
            if (r.value().cache_hit) ++s.hits;
            s.ok_latency_us.push_back(us);
          } else if (r.status().code() == StatusCode::kResourceExhausted) {
            ++s.shed;
          } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
            ++s.deadline;
          } else {
            ++s.errors;
            if (!client.connected()) return;  // server went away
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    stop.store(true);
    for (auto& w : workers) w.join();
    const double elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t_start)
            .count() /
        1000.0;

    LoadPoint p;
    p.clients = clients;
    p.seconds = elapsed;
    std::vector<double> latencies;
    for (const auto& s : stats_per_thread) {
      p.ok += s.ok;
      p.hits += s.hits;
      p.shed += s.shed;
      p.deadline += s.deadline;
      p.errors += s.errors;
      latencies.insert(latencies.end(), s.ok_latency_us.begin(),
                       s.ok_latency_us.end());
    }
    p.requests = p.ok + p.shed + p.deadline + p.errors;
    std::sort(latencies.begin(), latencies.end());
    p.qps = elapsed > 0 ? static_cast<double>(p.ok) / elapsed : 0.0;
    p.p50_us = Percentile(latencies, 0.50);
    p.p95_us = Percentile(latencies, 0.95);
    p.p99_us = Percentile(latencies, 0.99);
    p.shed_rate =
        p.requests > 0
            ? static_cast<double>(p.shed) / static_cast<double>(p.requests)
            : 0.0;
    p.cache_hit_rate =
        p.ok > 0 ? static_cast<double>(p.hits) / static_cast<double>(p.ok)
                 : 0.0;
    // Per-tenant slice of the same run: thread t drove tenant t mod N.
    for (size_t ti = 0; ti < tenant_ids.size(); ++ti) {
      TenantPoint tp;
      tp.tenant = tenant_ids[ti];
      for (size_t t = ti; t < stats_per_thread.size();
           t += tenant_ids.size()) {
        const ThreadStats& s = stats_per_thread[t];
        tp.ok += s.ok;
        tp.hits += s.hits;
        tp.shed += s.shed;
        tp.deadline += s.deadline;
        tp.errors += s.errors;
      }
      tp.qps = elapsed > 0 ? static_cast<double>(tp.ok) / elapsed : 0.0;
      p.per_tenant.push_back(tp);
    }
    results.push_back(p);
    std::printf("%8d %10.1f %10.0f %10.0f %10.0f %8.1f%% %8.1f%% %9llu\n",
                p.clients, p.qps, p.p50_us, p.p95_us, p.p99_us,
                100.0 * p.shed_rate, 100.0 * p.cache_hit_rate,
                static_cast<unsigned long long>(p.deadline));
  }
  server.Stop();

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"serving_load\",\n";
  out << "  \"kernel_impl\": \"" << preqr::nn::kernels::ActiveImplName()
      << "\",\n";
  out << "  \"ring_capacity\": " << ring_capacity << ",\n";
  out << "  \"timeout_us\": " << timeout_us << ",\n";
  out << "  \"corpus\": " << corpus.size() << ",\n";
  out << "  \"tenants\": " << tenants << ",\n";
  out << "  \"points\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const LoadPoint& p = results[i];
    out << "    {\"clients\": " << p.clients << ", \"seconds\": " << p.seconds
        << ", \"requests\": " << p.requests << ", \"ok\": " << p.ok
        << ", \"shed\": " << p.shed << ", \"deadline_exceeded\": " << p.deadline
        << ", \"errors\": " << p.errors << ", \"qps\": " << p.qps
        << ", \"p50_us\": " << p.p50_us << ", \"p95_us\": " << p.p95_us
        << ", \"p99_us\": " << p.p99_us << ", \"shed_rate\": " << p.shed_rate
        << ", \"cache_hit_rate\": " << p.cache_hit_rate
        << ", \"per_tenant\": [";
    for (size_t ti = 0; ti < p.per_tenant.size(); ++ti) {
      const TenantPoint& tp = p.per_tenant[ti];
      out << "{\"tenant\": \"" << tp.tenant << "\", \"ok\": " << tp.ok
          << ", \"hits\": " << tp.hits << ", \"shed\": " << tp.shed
          << ", \"deadline_exceeded\": " << tp.deadline
          << ", \"errors\": " << tp.errors << ", \"qps\": " << tp.qps << "}"
          << (ti + 1 < p.per_tenant.size() ? ", " : "");
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("wrote %s (%zu load points)\n", json_path.c_str(),
              results.size());

  // Final server-side picture: queue depth back to zero, sheds accounted,
  // every tenant's cache partition populated independently.
  const auto& m = service.metrics();
  std::printf("server: requests=%llu sheds=%llu deadline_drops=%llu "
              "errors=%llu tenant_not_found=%llu\n",
              static_cast<unsigned long long>(m.requests.value()),
              static_cast<unsigned long long>(m.ShedTotal()),
              static_cast<unsigned long long>(m.deadline_dropped.value() +
                                              m.deadline_rejected.value()),
              static_cast<unsigned long long>(m.errors.value()),
              static_cast<unsigned long long>(m.tenant_not_found.value()));
  for (const auto& id : tenant_ids) {
    std::printf("server: tenant %s cached_embeddings=%zu\n", id.c_str(),
                service.cached_embeddings(id));
  }
  return 0;
}
