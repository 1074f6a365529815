// serve_hot and serve_cold: closed-loop TCP clients against a loopback
// EncodeServer that hosts two tenants, at the program's default service,
// server, model and thread-pool settings.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "common/thread_pool.h"
#include "db/stats.h"
#include "inputs.h"
#include "nn/tensor.h"
#include "serving/client.h"
#include "serving/encoder_service.h"
#include "serving/server.h"
#include "serving/tenant_registry.h"
#include "sql/parser.h"
#include "tasks/preqr_encoder.h"
#include "trace.h"
#include "workload/imdb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using preqr::StatusCode;
namespace serving = preqr::serving;
namespace nn = preqr::nn;

constexpr int kClients = 4;  // nproc on the reference machine
constexpr int kTenants = 2;
constexpr uint64_t kServeDbSeed = 7;
constexpr double kServeDbScale = 0.05;
// The per-request deadline: the latency limit of a blocking optimizer. A
// reply that arrives later counts as failed even if it is correct.
constexpr int64_t kDeadlineUs = 250000;
constexpr size_t kHotPerTenant = 32;
constexpr size_t kCorpus = 200;

uint64_t TenantSeed(int t) { return 17 + static_cast<uint64_t>(t); }
std::string TenantId(int t) { return "t" + std::to_string(t); }

// Times the tenant encoder's batch entry point, which is what the service's
// dispatcher calls; every other call forwards untouched.
class TimedEncoder : public preqr::baselines::QueryEncoder {
 public:
  explicit TimedEncoder(preqr::baselines::QueryEncoder* inner) : inner_(inner) {}
  nn::Tensor EncodeVector(const std::string& sql, bool train) override {
    return inner_->EncodeVector(sql, train);
  }
  preqr::StatusOr<nn::Tensor> TryEncodeVector(const std::string& sql,
                                              bool train) override {
    return inner_->TryEncodeVector(sql, train);
  }
  std::vector<nn::Tensor> EncodeVectorBatch(const std::vector<std::string>& sqls,
                                            bool train) override {
    return inner_->EncodeVectorBatch(sqls, train);
  }
  std::vector<preqr::StatusOr<nn::Tensor>> TryEncodeVectorBatch(
      const std::vector<std::string>& sqls, bool train) override {
    Span span("tasks.encode_batch");
    return inner_->TryEncodeVectorBatch(sqls, train);
  }
  void InvalidateCache() override { inner_->InvalidateCache(); }
  std::vector<nn::Tensor> TrainableParameters() override {
    return inner_->TrainableParameters();
  }
  int dim() const override { return inner_->dim(); }
  std::string name() const override { return inner_->name(); }
  void BeginStep(bool train) override { inner_->BeginStep(train); }

 private:
  preqr::baselines::QueryEncoder* inner_;
};

// One serving stack. Members are declared in construction order so the
// server stops before the service, and the service before the tenants.
struct ServeStack {
  std::vector<std::unique_ptr<serving::TenantContext>> tenants;
  std::vector<std::unique_ptr<TimedEncoder>> timed;
  std::unique_ptr<serving::EncoderService> service;
  std::unique_ptr<serving::EncodeServer> server;
};

std::unique_ptr<ServeStack> BuildServeStack(
    const std::vector<std::string>& corpus, bool traced) {
  auto stack = std::make_unique<ServeStack>();
  const auto db = preqr::workload::MakeImdbDatabase(kServeDbSeed, kServeDbScale);
  preqr::db::StatsCollector collector;
  const auto stats = collector.AnalyzeAll(db);
  stack->service = std::make_unique<serving::EncoderService>(
      serving::EncoderServiceOptions{});
  for (int t = 0; t < kTenants; ++t) {
    serving::TenantContext::Options o;
    o.catalog = db.catalog();
    o.stats = stats;
    o.corpus = corpus;
    o.config = DefaultModelConfig();
    o.seed = TenantSeed(t);
    auto ctx = serving::TenantContext::Create(std::move(o));
    PREQR_CHECK(ctx.ok());
    stack->tenants.push_back(std::move(ctx.value()));
    preqr::baselines::QueryEncoder* encoder = stack->tenants.back()->encoder();
    if (traced) {
      stack->timed.push_back(std::make_unique<TimedEncoder>(encoder));
      encoder = stack->timed.back().get();
    }
    PREQR_CHECK(stack->service
                    ->RegisterTenant(TenantId(t), encoder,
                                     stack->tenants.back()->model())
                    .ok());
  }
  stack->server = std::make_unique<serving::EncodeServer>(stack->service.get());
  PREQR_CHECK(stack->server->Start().ok());
  return stack;
}

// A reply kept for the bitwise output check.
struct Captured {
  int tenant = 0;
  std::string sql;
  std::vector<float> embedding;
};

// Hands out the workload's queries: a fixed hot set per tenant, or one
// shared stream of distinct queries.
class QuerySource {
 public:
  QuerySource(const preqr::db::Database& db, uint64_t seed, bool hot)
      : hot_(hot), gen_(db, seed * 1000003 + 11) {
    if (hot_) {
      auto all = gen_.Distinct(kHotPerTenant * kTenants, 1, 4);
      for (int t = 0; t < kTenants; ++t) {
        hot_sets_.emplace_back(all.begin() + t * kHotPerTenant,
                               all.begin() + (t + 1) * kHotPerTenant);
      }
    }
  }
  const std::vector<std::string>& hot_set(int tenant) const {
    return hot_sets_[static_cast<size_t>(tenant)];
  }
  // Hot: a seeded pick from the tenant's hot set. Cold: the next query of
  // the shared distinct stream (distinct across clients and tenants).
  std::string Next(int tenant, uint64_t* rng) {
    if (hot_) {
      *rng = *rng * 6364136223846793005ULL + 1442695040888963407ULL;
      return hot_set(tenant)[(*rng >> 33) % kHotPerTenant];
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (;;) {
      std::string sql = gen_.Next(1 + static_cast<int>(seen_.size() % 4));
      if (seen_.insert(sql).second) return sql;
    }
  }

 private:
  bool hot_;
  std::vector<std::vector<std::string>> hot_sets_;
  std::mutex mu_;  // guards gen_ and seen_ for the cold stream
  SqlGen gen_;
  std::unordered_set<std::string> seen_;
};

struct ServerCounters {
  uint64_t requests = 0, hits = 0, misses = 0, batches = 0, batched = 0,
           shed = 0, deadline = 0, slots = 0, valid_tokens = 0;
};

ServerCounters Snapshot(const serving::EncoderService& service) {
  const auto& m = service.metrics();
  const auto path = m.encode_path.Stats();
  ServerCounters c;
  c.requests = m.requests.value();
  c.hits = m.cache_hits.value();
  c.misses = m.cache_misses.value();
  c.batches = m.batches.value();
  c.batched = m.batched_queries.value();
  c.shed = m.ShedTotal();
  c.deadline = m.deadline_dropped.value() + m.deadline_rejected.value();
  c.slots = path.padded_slots;
  c.valid_tokens = path.valid_tokens;
  return c;
}

// The window as the clients saw it: counts, successful replies per time
// bin (by completion time) with a sample of their latencies, the steal
// share of each bin, and the per-request server timings the replies carry.
struct WindowResult {
  uint64_t sent = 0, ok = 0, failed = 0;
  std::vector<uint64_t> bin_ok;
  std::vector<std::pair<uint32_t, float>> latency_us;  // (bin, latency)
  std::vector<double> bin_steal;
  LogHistogram queue_us;          // misses: admission -> dispatcher pop
  LogHistogram encode_us;         // misses: micro-batch encode
  LogHistogram miss_overhead_us;  // misses: client latency - queue - encode
  LogHistogram hit_latency_us;    // hits: client latency
  std::vector<Captured> captured;

  void Merge(WindowResult&& other) {
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    bin_ok.resize(std::max(bin_ok.size(), other.bin_ok.size()), 0);
    for (size_t i = 0; i < other.bin_ok.size(); ++i) bin_ok[i] += other.bin_ok[i];
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    queue_us.Merge(other.queue_us);
    encode_us.Merge(other.encode_us);
    miss_overhead_us.Merge(other.miss_overhead_us);
    hit_latency_us.Merge(other.hit_latency_us);
    captured.insert(captured.end(), std::make_move_iterator(other.captured.begin()),
                    std::make_move_iterator(other.captured.end()));
  }
};

// kClients closed-loop clients. Each owns one connection for the whole
// run, a tenant (round-robin) and a client id; Run drives all of them for
// one window and returns what they saw.
class LoadClients {
 public:
  LoadClients(ServeStack& stack, QuerySource& source, uint64_t seed)
      : stack_(stack), source_(source), per_client_(kClients) {
    for (int c = 0; c < kClients; ++c) {
      threads_.emplace_back([this, c, seed] { ClientLoop(c, seed); });
    }
  }
  ~LoadClients() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  LoadClients(const LoadClients&) = delete;
  LoadClients& operator=(const LoadClients&) = delete;

  // A window of `seconds`, without pauses. Every `capture_every`-th reply
  // of each client is kept for the output check (0 keeps none).
  WindowResult Run(double seconds, size_t capture_every) {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& r : per_client_) r = WindowResult();
    capture_every_ = capture_every;
    bins_ = WindowBins(seconds);
    start_ = Clock::now();
    end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    StealSampler sampler(start_, bins_);
    finished_ = 0;
    ++generation_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return finished_ == kClients; });
    WindowResult result;
    for (auto& pc : per_client_) result.Merge(std::move(pc));
    result.bin_ok.resize(static_cast<size_t>(bins_), 0);
    result.bin_steal = sampler.Finish();
    return result;
  }

 private:
  void ClientLoop(int c, uint64_t seed) {
    serving::EncodeClient client;
    const bool connected = client.Connect(stack_.server->port()).ok();
    serving::WireRequestOptions opts;
    opts.tenant_id = TenantId(c % kTenants);
    opts.client_id = "client-" + std::to_string(c);
    opts.timeout_us = kDeadlineUs;
    uint64_t rng = seed * 31 + static_cast<uint64_t>(c) + 1;
    uint64_t seen = 0, n = 0;
    for (;;) {
      Clock::time_point start, end;
      size_t capture_every = 0;
      int bins = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        start = start_;
        end = end_;
        capture_every = capture_every_;
        bins = bins_;
      }
      WindowResult out;
      out.bin_ok.assign(static_cast<size_t>(bins), 0);
      // Hot replies come back in tens of microseconds: one client span in
      // 64 keeps the traced run's span list small, and one latency in 8
      // its latency sample.
      const uint64_t span_every = capture_every > 100 ? 64 : 1;
      const uint64_t latency_every = capture_every > 100 ? 8 : 1;
      for (; Clock::now() < end; ++n) {
        const std::string sql = source_.Next(c % kTenants, &rng);
        preqr::StatusOr<serving::WireEncodeResult> r =
            preqr::Status::Unavailable("not connected");
        const auto q0 = Clock::now();
        {
          std::optional<Span> span;
          if (n % span_every == 0) {
            span.emplace("client.request", 0,
                         (static_cast<uint64_t>(c + 1) << 40) | n);
          }
          if (connected) r = client.Encode(sql, opts);
        }
        const auto q1 = Clock::now();
        const double latency_us =
            1e6 * std::chrono::duration<double>(q1 - q0).count();
        ++out.sent;
        // A late reply misses the latency limit: it counts as failed.
        if (!r.ok() || r.value().embedding.empty() ||
            latency_us > static_cast<double>(kDeadlineUs)) {
          ++out.failed;
          continue;
        }
        const auto& v = r.value();
        ++out.ok;
        const auto bin = static_cast<size_t>(
            std::chrono::duration<double>(q1 - start).count() / kBinSeconds);
        if (bin < out.bin_ok.size()) {
          ++out.bin_ok[bin];
          if (n % latency_every == 0) {
            out.latency_us.emplace_back(static_cast<uint32_t>(bin),
                                        static_cast<float>(latency_us));
          }
        }
        if (v.cache_hit) {
          out.hit_latency_us.Add(latency_us);
        } else {
          out.queue_us.Add(v.queue_us);
          out.encode_us.Add(v.encode_us);
          out.miss_overhead_us.Add(latency_us - v.queue_us - v.encode_us);
        }
        if (capture_every > 0 && n % capture_every == 0) {
          out.captured.push_back({c % kTenants, sql, v.embedding});
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        per_client_[static_cast<size_t>(c)] = std::move(out);
        ++finished_;
      }
      cv_.notify_all();
    }
  }

  ServeStack& stack_;
  QuerySource& source_;
  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  uint64_t generation_ = 0;
  int finished_ = 0;
  bool stop_ = false;
  Clock::time_point start_, end_;
  int bins_ = 0;
  size_t capture_every_ = 0;
  std::vector<WindowResult> per_client_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

// The bitwise output check: a reply must equal, bit for bit, a direct
// TryEncodeVector on an identically seeded encoder.
bool ReplyMatches(const std::vector<float>& reply, const nn::Tensor& reference) {
  const auto& ref = reference.vec();
  return reply.size() == ref.size() &&
         std::memcmp(reply.data(), ref.data(), ref.size() * sizeof(float)) == 0;
}

size_t CountMismatches(const std::vector<Captured>& captured,
                       ServeStack& reference) {
  // Hot replies repeat a few queries: each (tenant, query) is encoded once.
  std::map<std::pair<int, std::string>, std::optional<nn::Tensor>> encoded;
  size_t bad = 0;
  for (const auto& c : captured) {
    auto [it, fresh] = encoded.try_emplace({c.tenant, c.sql});
    if (fresh) {
      auto* encoder = reference.tenants[static_cast<size_t>(c.tenant)]->encoder();
      auto ref = encoder->TryEncodeVector(c.sql, /*train=*/false);
      if (ref.ok()) it->second = std::move(ref.value());
    }
    if (!it->second || !ReplyMatches(c.embedding, *it->second)) ++bad;
  }
  return bad;
}

struct WindowStats {
  std::vector<double> qps;  // per bin
  double goodput_qps = 0, p50 = 0, p90 = 0, p99 = 0, steal_mean = 0;
};

// Over the least-stolen bins: successful replies per second, and the p90
// of their replies' latencies; the p50 and p99 over every bin. Hot
// replies split into a fast mode (about 13 us) and a slow one (about
// 20 us) whose mix moves from run to run, which throws the p50 between
// the modes; the p90 stays in the slow one.
WindowStats Summarize(const WindowResult& w) {
  WindowStats out;
  for (size_t i = 0; i < w.bin_ok.size(); ++i) {
    out.qps.push_back(static_cast<double>(w.bin_ok[i]) / kBinSeconds);
    out.steal_mean += w.bin_steal[i] / static_cast<double>(w.bin_ok.size());
  }
  const auto quiet = LeastStolenParts(w.bin_steal, kLeastStolenShare);
  std::vector<char> chosen(w.bin_ok.size(), 0);
  uint64_t quiet_ok = 0;
  for (size_t i : quiet) {
    chosen[i] = 1;
    quiet_ok += w.bin_ok[i];
  }
  std::vector<double> all, in_quiet;
  for (const auto& [bin, us] : w.latency_us) {
    all.push_back(us / 1e3);
    if (chosen[bin]) in_quiet.push_back(us / 1e3);
  }
  out.goodput_qps = static_cast<double>(quiet_ok) /
                    (kBinSeconds * static_cast<double>(std::max<size_t>(1, quiet.size())));
  out.p90 = Percentile(in_quiet, 0.9);
  out.p50 = Percentile(all, 0.5);
  out.p99 = Percentile(all, 0.99);
  return out;
}

// Model FLOPs of one solo encode, computed (not measured) from the
// configuration and the token count: multiply-adds count 2, element-wise
// work is ignored.
double EncodeFlops(const preqr::core::PreqrConfig& c, double tokens,
                   double schema_nodes) {
  const double d = c.d_model, f = c.ffn_hidden, T = tokens, N = schema_nodes;
  const double embed = 2 * T * (d + c.state_dim + c.pos_dim + 1) * d;
  const double layer = 16 * T * d * d + 4 * T * T * d + 8 * T * d * f +
                       4 * N * d * d + 4 * T * N * d;
  return embed + c.num_layers * layer;
}

// In-process pass over fresh cold-stream queries that times each public
// call an encode is made of, plus the encoder's own total.
struct StagePass {
  std::vector<double> parse_us, match_us, tokenize_us, prefix_ms, last_ms,
      total_ms;
  double flops = 0;
};

StagePass RunStagePass(preqr::core::PreqrModel* model,
                       const preqr::automaton::Automaton& fa,
                       const std::vector<std::string>& queries) {
  StagePass out;
  preqr::tasks::PreqrEncoder encoder(model);
  nn::Tensor schema;
  {
    nn::NoGradGuard no_grad;
    schema = model->EncodeSchemaNodes(/*with_grad=*/false);
  }
  const double nodes = schema.defined() ? schema.dim(0) : 0;
  model->set_train(false);
  for (const auto& sql : queries) {
    Span query("stage.query");
    auto t0 = Clock::now();
    {
      Span s("sql.parse", query.id());
      auto parsed = preqr::sql::Parse(sql);
      PREQR_CHECK(parsed.ok());
    }
    out.parse_us.push_back(UsSince(t0));
    t0 = Clock::now();
    std::optional<preqr::text::SqlTokenizer::Tokenized> tok;
    {
      Span s("text.tokenize", query.id());
      auto t = model->tokenizer().Tokenize(sql);
      PREQR_CHECK(t.ok());
      tok = std::move(t.value());
    }
    out.tokenize_us.push_back(UsSince(t0));
    // The model walks the same automaton inside its prefix forward; this
    // times that walk on its own.
    t0 = Clock::now();
    {
      Span s("automaton.match", query.id());
      auto match = fa.Match(tok->symbols);
      PREQR_CHECK(match.states.size() == tok->symbols.size());
    }
    out.match_us.push_back(UsSince(t0));
    const auto batch = preqr::text::SqlTokenizer::Collate(
        std::vector<const preqr::text::SqlTokenizer::Tokenized*>{&*tok},
        model->config().max_seq_len);
    nn::Tensor prefix;
    t0 = Clock::now();
    {
      Span s("core.prefix", query.id());
      prefix = model->EncodePrefixBatch(batch, schema);
    }
    out.prefix_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    {
      Span s("core.last_layer", query.id());
      nn::NoGradGuard no_grad;
      auto last = model->LastLayerBatch(prefix, schema, batch.lengths);
      (void)last;
    }
    out.last_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    {
      Span s("tasks.encode_total", query.id());
      auto v = encoder.TryEncodeVectorBatch({sql}, /*train=*/false);
      PREQR_CHECK(v.size() == 1 && v[0].ok());
    }
    out.total_ms.push_back(MsSince(t0));
    out.flops += EncodeFlops(model->config(), batch.lengths[0], nodes);
  }
  return out;
}

}  // namespace

void ReportEncodeLayers(preqr::core::PreqrModel* model,
                        const preqr::automaton::Automaton& fa,
                        const preqr::db::Database& input_db,
                        const Options& options, Report* report) {
  const auto stage_queries = SqlGen(input_db, options.seed * 104729 + 5)
                                 .Distinct(options.tiny ? 8 : 120, 1, 4);
  const StagePass pass = RunStagePass(model, fa, stage_queries);
  const double prefix = Median(pass.prefix_ms), last = Median(pass.last_ms);
  report->Set("sql.parse_us_p50", Median(pass.parse_us), "us");
  report->Set("automaton.match_us_p50", Median(pass.match_us), "us");
  report->Set("text.tokenize_us_p50", Median(pass.tokenize_us), "us");
  report->Set("core.prefix_ms_p50", prefix, "ms");
  report->Set("core.last_layer_ms_p50", last, "ms");
  double sum_core = 0, sum_total = 0, sum_tok = 0;
  for (size_t i = 0; i < pass.total_ms.size(); ++i) {
    sum_core += pass.prefix_ms[i] + pass.last_ms[i];
    sum_tok += pass.tokenize_us[i] / 1e3;
    sum_total += pass.total_ms[i];
  }
  report->Set("core.model_share", sum_total > 0 ? sum_core / sum_total : 0, "ratio");
  // Parse runs inside tokenize and the automaton walk inside the prefix,
  // so the stages that add up are tokenize + prefix + last layer.
  report->Set("trace.coverage", sum_total > 0 ? (sum_tok + sum_core) / sum_total : 0,
              "ratio");
  report->Set("nn.gflops_encode",
              sum_core > 0 ? pass.flops / (sum_core / 1e3) / 1e9 : 0, "GFLOP/s");

  // Pool speedup: the same solo encodes at one pool thread and at the
  // default, in alternating blocks of fresh queries.
  std::vector<double> at_default, at_one;
  SqlGen pool_gen(input_db, options.seed * 15485863 + 7);
  const int blocks = options.tiny ? 2 : 6;
  for (int b = 0; b < 2 * blocks; ++b) {
    const bool one = (b % 2) == 1;
    preqr::ThreadPool::SetGlobalThreads(one ? 1 : 0);
    preqr::tasks::PreqrEncoder encoder(model);
    for (const auto& sql : pool_gen.Distinct(options.tiny ? 4 : 20, 1, 4)) {
      const auto t0 = Clock::now();
      auto v = encoder.TryEncodeVectorBatch({sql}, /*train=*/false);
      PREQR_CHECK(v[0].ok());
      (one ? at_one : at_default).push_back(MsSince(t0));
    }
  }
  preqr::ThreadPool::SetGlobalThreads(0);
  report->Set("common.pool_speedup_encode", Median(at_one) / Median(at_default),
              "ratio");
}

double RunServe(const Options& options, bool hot, Report* report) {
  const char* phase = hot ? "serve_hot" : "serve_cold";
  // Inputs, from the seed: the template corpus each tenant mines its
  // automaton from, and the hot sets or the cold stream. Literals come from
  // a copy of the served database.
  const auto input_db =
      preqr::workload::MakeImdbDatabase(kServeDbSeed, kServeDbScale);
  const auto corpus =
      SqlGen(input_db, options.seed * 7919 + 3).Distinct(options.tiny ? 40 : kCorpus, 1, 4);
  QuerySource source(input_db, options.seed, hot);
  report->stamp["db_scale_serve"] = std::to_string(kServeDbScale);

  // Set-up, four times: two more stacks that are dropped, an identically
  // seeded reference for the output check, and the stack that serves.
  SetupTimes setup;
  std::unique_ptr<ServeStack> live_stack, reference_stack;
  for (int i = 0; i < 2; ++i) {
    std::unique_ptr<ServeStack> extra;
    setup.Time([&] { extra = BuildServeStack(corpus, options.trace); });
  }
  setup.Time([&] { reference_stack = BuildServeStack(corpus, options.trace); });
  reference_stack->server->Stop();
  setup.Time([&] { live_stack = BuildServeStack(corpus, options.trace); });
  report->Series("setup_s", setup.samples());
  ServeStack& live = *live_stack;
  ServeStack& reference = *reference_stack;

  // Warm-up: every hot query once per tenant, then a short concurrent run
  // so connections, threads and buffer pools are warm.
  PhaseCount warm{std::string(phase) + ".warmup"};
  std::optional<LoadClients> load;
  load.emplace(live, source, options.seed);
  LoadClients& clients = *load;
  if (hot) {
    for (int t = 0; t < kTenants; ++t) {
      serving::EncodeClient client;
      PREQR_CHECK(client.Connect(live.server->port()).ok());
      serving::WireRequestOptions opts;
      opts.tenant_id = TenantId(t);
      for (const auto& sql : source.hot_set(t)) {
        ++warm.sent;
        client.Encode(sql, opts).ok() ? ++warm.ok : ++warm.failed;
      }
    }
  }
  {
    const WindowResult w = clients.Run(options.tiny ? 0.2 : 1.0, 0);
    warm.sent += w.sent;
    warm.ok += w.ok;
    warm.failed += w.failed;
  }
  report->Phase(warm);

  // The measured window. A traced run measures its first half untraced
  // and its second half traced; the difference is the tracing overhead.
  const size_t capture_every = hot ? 997 : 53;
  const ServerCounters before = Snapshot(*live.service);
  WindowResult window, plain;
  if (options.trace) {
    Tracer::Get().Enable(false);
    plain = clients.Run(options.seconds / 2, capture_every);
    Tracer::Get().Enable(true);
    window = clients.Run(options.seconds / 2, capture_every);
  } else {
    window = clients.Run(options.seconds, capture_every);
  }
  const ServerCounters after = Snapshot(*live.service);
  load.reset();
  live.server->Stop();

  const WindowStats stats = Summarize(window);
  const double untraced_p90_ms = plain.bin_ok.empty() ? 0 : Summarize(plain).p90;
  window.captured.insert(window.captured.end(), plain.captured.begin(),
                         plain.captured.end());
  const uint64_t ok = window.ok + plain.ok;
  report->Phase({phase, window.sent + plain.sent, ok, window.failed + plain.failed});

  // Output checks, outside the window.
  const size_t mismatches = CountMismatches(window.captured, reference);
  report->Check(!window.captured.empty(), std::string(phase) + ": no reply captured");
  report->Check(mismatches == 0,
                std::string(phase) + ": " + std::to_string(mismatches) + " of " +
                    std::to_string(window.captured.size()) +
                    " replies differ from a direct TryEncodeVector");
  const double requests = static_cast<double>(after.requests - before.requests);
  const double hit_ratio =
      requests > 0 ? static_cast<double>(after.hits - before.hits) / requests : 0;
  if (hot) {
    report->Check(hit_ratio >= 0.99, "serve_hot: post-warm-up hit ratio " +
                                         std::to_string(hit_ratio) + " < 0.99");
  } else {
    report->Check(hit_ratio <= 0.01, "serve_cold: hit ratio " +
                                         std::to_string(hit_ratio) + " > 0.01");
  }
  report->Check(ok > 0, std::string(phase) + ": no successful reply");

  report->Series("goodput_qps", stats.qps);
  report->Series("steal", window.bin_steal);
  report->Set("goodput_qps", stats.goodput_qps, "1/s");
  report->Set("latency_ms_p90", stats.p90, "ms");
  report->Set("latency_ms_p50", stats.p50, "ms");
  report->Set("latency_ms_p99", stats.p99, "ms");
  report->Set("machine.steal_pct", 100 * stats.steal_mean, "%");

  if (options.trace) {
    // Server-side counters over the whole window; the replies' own timings
    // over the traced half.
    report->Set("serving.hit_ratio", hit_ratio, "ratio");
    report->Set("serving.queue_us_p50", window.queue_us.Percentile(0.5), "us");
    report->Set("serving.queue_us_p99", window.queue_us.Percentile(0.99), "us");
    report->Set("serving.batch_encode_us_p50", window.encode_us.Percentile(0.5),
                "us");
    const uint64_t batches = after.batches - before.batches;
    report->Set("serving.batch_size_mean",
                batches ? static_cast<double>(after.batched - before.batched) /
                              static_cast<double>(batches)
                        : 0,
                "queries");
    const uint64_t slots = after.slots - before.slots;
    report->Set("tasks.padded_waste_pct",
                slots ? 100.0 * (1.0 - static_cast<double>(after.valid_tokens -
                                                           before.valid_tokens) /
                                           static_cast<double>(slots))
                      : 0,
                "%");
    report->Set("serving.shed_total", static_cast<double>(after.shed - before.shed),
                "count");
    report->Set("serving.deadline_total",
                static_cast<double>(after.deadline - before.deadline), "count");
    std::vector<double> batch_ms;
    for (double us : Tracer::Get().DurationsUs("tasks.encode_batch")) {
      batch_ms.push_back(us / 1e3);
    }
    report->Set("tasks.encode_batch_ms_p50", Percentile(batch_ms, 0.5), "ms");

    // In-process cache hits on tenant 0's hot set, through the same
    // service the wire reached.
    const auto hot_probe =
        hot ? source.hot_set(0)
            : SqlGen(input_db, options.seed * 104729 + 5).Distinct(kHotPerTenant, 1, 4);
    std::vector<double> inproc_us;
    for (int rep = 0; rep < (options.tiny ? 3 : 60); ++rep) {
      for (const auto& sql : hot_probe) {
        serving::EncodeRequest req;
        req.sql = sql;
        req.tenant_id = TenantId(0);
        const auto t0 = Clock::now();
        bool ok = false;
        {
          Span span("serving.encode_inproc");
          ok = live.service->Encode(req).ok();
        }
        if (rep > 0 && ok) inproc_us.push_back(UsSince(t0));
      }
    }
    const double inproc_p50 = Percentile(inproc_us, 0.5);
    report->Set("serving.inproc_hit_us_p50", inproc_p50, "us");
    // Client latency minus the server's own time: the in-process hit time
    // for hits, the reply's queue + encode time for misses.
    report->Set("wire.overhead_us_p50",
                hot ? window.hit_latency_us.Percentile(0.5) - inproc_p50
                    : window.miss_overhead_us.Percentile(0.5),
                "us");
    report->Set("trace.overhead_pct",
                untraced_p90_ms > 0
                    ? 100.0 * (stats.p90 - untraced_p90_ms) / untraced_p90_ms
                    : 0,
                "%");

    // The stage pass, on the reference tenant so the served caches stay
    // as they were.
    ReportEncodeLayers(reference.tenants[0]->model(),
                       reference.tenants[0]->automaton(), input_db, options,
                       report);
    Tracer::Get().Enable(false);
  }
  return setup.Seconds();
}


bool SelfTestReplyCheck(const Options& options, std::string* detail) {
  const auto input_db =
      preqr::workload::MakeImdbDatabase(kServeDbSeed, kServeDbScale);
  const auto corpus = SqlGen(input_db, options.seed).Distinct(40, 1, 4);
  auto live = BuildServeStack(corpus, /*traced=*/false);
  auto reference = BuildServeStack(corpus, /*traced=*/false);
  reference->server->Stop();
  serving::EncodeClient client;
  if (!client.Connect(live->server->port()).ok()) {
    *detail = "cannot connect";
    return false;
  }
  std::vector<Captured> captured;
  for (const auto& sql : SqlGen(input_db, options.seed + 1).Distinct(6, 1, 4)) {
    serving::WireRequestOptions opts;
    opts.tenant_id = TenantId(static_cast<int>(captured.size()) % kTenants);
    auto r = client.Encode(sql, opts);
    if (!r.ok()) {
      *detail = "encode failed: " + r.status().ToString();
      return false;
    }
    captured.push_back({static_cast<int>(captured.size()) % kTenants, sql,
                        r.value().embedding});
  }
  live->server->Stop();
  const size_t clean = CountMismatches(captured, *reference);
  // Flip the lowest mantissa bit of one float of one reply.
  auto& v = captured[captured.size() / 2].embedding;
  uint32_t bits;
  std::memcpy(&bits, &v[v.size() / 3], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&v[v.size() / 3], &bits, sizeof(bits));
  const size_t flipped = CountMismatches(captured, *reference);
  *detail = std::to_string(captured.size()) + " replies, " +
            std::to_string(clean) + " mismatches as served, " +
            std::to_string(flipped) + " after flipping one bit";
  return clean == 0 && flipped == 1;
}

}  // namespace perfbench
