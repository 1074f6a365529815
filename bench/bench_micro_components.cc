// Micro-benchmarks (google-benchmark) for the hot components: SQL lexing /
// parsing, automaton matching, tokenization, executor counting, PreQR
// encoding, and the parallel tensor kernels (MatMul, attention, layer norm).
// These back the paper's claim that FA construction and matching incur
// negligible cost (Section 3.3.1). Kernel benches honour PREQR_NUM_THREADS;
// run with =1 and =4 to measure the thread-pool speedup.
#include <benchmark/benchmark.h>

#include "automaton/template_extractor.h"
#include "common/thread_pool.h"
#include "core/preqr_model.h"
#include "db/executor.h"
#include "db/stats.h"
#include "nn/buffer_pool.h"
#include "nn/kernels.h"
#include "nn/kernels_dispatch.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "schema/schema_graph.h"
#include "serving/encoder_service.h"
#include "sql/parser.h"
#include "tasks/preqr_encoder.h"
#include "text/tokenizer.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr {
namespace {

const char* kQuery =
    "SELECT COUNT(*) FROM title t, movie_companies mc, movie_info mi "
    "WHERE t.id = mc.movie_id AND t.id = mi.movie_id "
    "AND t.production_year > 2010 AND mc.company_type_id = 1";

struct Shared {
  db::Database imdb = workload::MakeImdbDatabase(42, 0.1);
  std::vector<db::TableStats> stats;
  std::unique_ptr<text::SqlTokenizer> tokenizer;
  automaton::Automaton fa;
  schema::SchemaGraph graph;
  std::unique_ptr<core::PreqrModel> model;
  sql::SelectStatement stmt;

  Shared() {
    db::StatsCollector collector;
    stats = collector.AnalyzeAll(imdb);
    tokenizer = std::make_unique<text::SqlTokenizer>(imdb.catalog(), stats, 8);
    workload::ImdbQueryGenerator gen(imdb, 1);
    automaton::TemplateExtractor extractor(0.2);
    fa = extractor.BuildAutomaton(
        [&] {
          std::vector<std::string> corpus;
          for (const auto& q : gen.Synthetic(60, 2)) corpus.push_back(q.sql);
          return corpus;
        }());
    graph = schema::SchemaGraph::Build(imdb.catalog());
    core::PreqrConfig config;
    config.d_model = 32;
    model = std::make_unique<core::PreqrModel>(config, tokenizer.get(), &fa,
                                               &graph);
    stmt = sql::Parse(kQuery).value();
  }
};

Shared& S() {
  static Shared* shared = new Shared();
  return *shared;
}

void BM_LexAndParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(kQuery));
  }
}
BENCHMARK(BM_LexAndParse);

void BM_AutomatonMatch(benchmark::State& state) {
  const auto symbols = automaton::StructuralSymbols(kQuery);
  for (auto _ : state) {
    benchmark::DoNotOptimize(S().fa.Match(symbols));
  }
}
BENCHMARK(BM_AutomatonMatch);

void BM_Tokenize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(S().tokenizer->Tokenize(kQuery));
  }
}
BENCHMARK(BM_Tokenize);

void BM_ExecutorCount(benchmark::State& state) {
  db::Executor exec(S().imdb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(S().stmt));
  }
}
BENCHMARK(BM_ExecutorCount);

void BM_PreqrEncode(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(S().model->Encode(kQuery));
  }
}
BENCHMARK(BM_PreqrEncode);

// --- Grad-mode / storage layer ------------------------------------------
// The same encoder forward with the tape on vs. off. The no-grad path skips
// every parents/grad_fn allocation and draws activations from the
// thread-local BufferPool; `impls` and `pool_reuse` counters quantify the
// allocation savings per encode (the impls gap is all tape bookkeeping the
// inference path no longer pays for).

void EncodeForwardOnce(tasks::PreqrEncoder& encoder) {
  benchmark::DoNotOptimize(encoder.TryEncodeVector(kQuery, /*train=*/false));
}

void BM_EncodeNoGrad(benchmark::State& state) {
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 1;  // prefix re-encoded every iteration
  options.cache_shards = 1;
  tasks::PreqrEncoder encoder(S().model.get(), options);
  encoder.InvalidateCache();
  const uint64_t impls0 = nn::TensorImplsCreated();
  const nn::BufferPoolStats pool0 = nn::BufferPool::TotalStats();
  for (auto _ : state) {
    encoder.InvalidateCache();
    EncodeForwardOnce(encoder);
  }
  const nn::BufferPoolStats pool1 = nn::BufferPool::TotalStats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["impls_per_encode"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) / iters;
  state.counters["pool_reuse_per_encode"] =
      static_cast<double>(pool1.reuses - pool0.reuses) / iters;
  state.counters["heap_allocs_per_encode"] =
      static_cast<double>(pool1.allocs - pool0.allocs) / iters;
}
BENCHMARK(BM_EncodeNoGrad);

void BM_EncodeTapeOn(benchmark::State& state) {
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  tasks::PreqrEncoder encoder(S().model.get(), options);
  encoder.InvalidateCache();
  const uint64_t impls0 = nn::TensorImplsCreated();
  for (auto _ : state) {
    encoder.InvalidateCache();
    // train=true keeps the tape through the read-out; backward not run, so
    // the delta vs. BM_EncodeNoGrad is pure tape + allocation overhead.
    benchmark::DoNotOptimize(encoder.TryEncodeVector(kQuery, /*train=*/true));
  }
  state.counters["impls_per_encode"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_EncodeTapeOn);

// --- Batched vs per-query encode ----------------------------------------
// The padded [B, T, d] path runs each op once per batch instead of once per
// query, so tensor-impl creations (== op dispatches) and pool/heap
// allocations per query must drop vs. the per-query loop at B=8, with
// throughput no worse on a small machine. Caches are invalidated every
// iteration so both sides pay the full prefix + read-out compute.

std::vector<std::string> BatchBenchQueries() {
  std::vector<std::string> queries;
  for (int y = 0; y < 8; ++y) {
    queries.push_back(
        "SELECT COUNT(*) FROM title t WHERE t.production_year > " +
        std::to_string(1990 + y));
  }
  return queries;
}

void BM_EncodeLoop(benchmark::State& state) {
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  tasks::PreqrEncoder encoder(S().model.get(), options);
  const auto queries = BatchBenchQueries();
  const uint64_t impls0 = nn::TensorImplsCreated();
  const nn::BufferPoolStats pool0 = nn::BufferPool::TotalStats();
  for (auto _ : state) {
    encoder.InvalidateCache();
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(encoder.TryEncodeVector(q, /*train=*/false));
    }
  }
  const nn::BufferPoolStats pool1 = nn::BufferPool::TotalStats();
  const double n_queries =
      static_cast<double>(state.iterations()) *
      static_cast<double>(queries.size());
  state.counters["impls_per_query"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) / n_queries;
  state.counters["pool_reuse_per_query"] =
      static_cast<double>(pool1.reuses - pool0.reuses) / n_queries;
  state.counters["heap_allocs_per_query"] =
      static_cast<double>(pool1.allocs - pool0.allocs) / n_queries;
  state.SetItemsProcessed(static_cast<int64_t>(n_queries));
}
BENCHMARK(BM_EncodeLoop);

void BM_EncodeBatch(benchmark::State& state) {
  tasks::PreqrEncoder::Options options;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  tasks::PreqrEncoder encoder(S().model.get(), options);
  const auto queries = BatchBenchQueries();
  const uint64_t impls0 = nn::TensorImplsCreated();
  const nn::BufferPoolStats pool0 = nn::BufferPool::TotalStats();
  for (auto _ : state) {
    encoder.InvalidateCache();
    benchmark::DoNotOptimize(
        encoder.TryEncodeVectorBatch(queries, /*train=*/false));
  }
  const nn::BufferPoolStats pool1 = nn::BufferPool::TotalStats();
  const double n_queries =
      static_cast<double>(state.iterations()) *
      static_cast<double>(queries.size());
  state.counters["impls_per_query"] =
      static_cast<double>(nn::TensorImplsCreated() - impls0) / n_queries;
  state.counters["pool_reuse_per_query"] =
      static_cast<double>(pool1.reuses - pool0.reuses) / n_queries;
  state.counters["heap_allocs_per_query"] =
      static_cast<double>(pool1.allocs - pool0.allocs) / n_queries;
  state.SetItemsProcessed(static_cast<int64_t>(n_queries));
}
BENCHMARK(BM_EncodeBatch);

// --- Serving layer ------------------------------------------------------
// Cache hit vs cold encode through the EncoderService: the hit path is a
// sharded-LRU lookup plus one tensor copy, the cold path pays the full
// frozen-prefix + last-layer forward. The gap is the serving layer's value
// on a frequent-query workload.

void BM_ServingCacheHit(benchmark::State& state) {
  tasks::PreqrEncoder encoder(S().model.get());
  serving::EncoderService service(&encoder);
  (void)service.Encode(kQuery);  // warm the embedding cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Encode(kQuery));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingCacheHit);

// The full request path on a hit — deadline check, admission bookkeeping,
// response metadata — vs the bare-SQL overload above: the cost of the
// request/response contract itself.
void BM_ServingRequestHit(benchmark::State& state) {
  tasks::PreqrEncoder encoder(S().model.get());
  serving::EncoderService service(&encoder);
  (void)service.Encode(kQuery);  // warm the embedding cache
  serving::EncodeRequest request;
  request.sql = kQuery;
  request.client_id = "bench";
  for (auto _ : state) {
    request.deadline = serving::DeadlineAfter(std::chrono::seconds(1));
    benchmark::DoNotOptimize(service.Encode(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingRequestHit);

void BM_ServingColdEncode(benchmark::State& state) {
  // Both cache layers are sized below the rotation length, so every request
  // misses and pays the full encode.
  tasks::PreqrEncoder::Options encoder_options;
  encoder_options.cache_capacity = 2;
  encoder_options.cache_shards = 1;
  tasks::PreqrEncoder encoder(S().model.get(), encoder_options);
  serving::EncoderServiceOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  serving::EncoderService service(&encoder, options);
  std::vector<std::string> queries;
  for (int y = 0; y < 16; ++y) {
    queries.push_back(
        "SELECT COUNT(*) FROM title t WHERE t.production_year > " +
        std::to_string(1990 + y));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.Encode(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
// The encode runs on one of the service's dispatch workers, so the calling
// thread's CPU time would undercount it: rate items by wall time.
BENCHMARK(BM_ServingColdEncode)->UseRealTime();

// --- Parallel tensor kernels -------------------------------------------
// Shapes are sized so the per-row work comfortably exceeds the pool grain;
// with PREQR_NUM_THREADS=1 these run the exact legacy serial path.

// The raw kernel with no Tensor wrapper, tape check, or shape assertion:
// the floor the op-level BM_MatMulForward is measured against.
void BM_MatMulKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  const size_t elems = static_cast<size_t>(n) * static_cast<size_t>(n);
  std::vector<float> a(elems), b(elems), out(elems, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);  // kernel accumulates into out
    nn::kernels::MatMulForward(a.data(), b.data(), out.data(), n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulKernel)->Arg(96)->Arg(192);

// --- Kernel dispatch backends (scalar vs AVX2) ---------------------------
// The same square GEMM through each kernel table directly, so the ISSUE's
// AVX2-over-scalar speedup is measured at the kernel floor with no
// dispatch-table indirection in the loop body.

void MatMulImplBench(benchmark::State& state,
                     const nn::kernels::KernelTable& table) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(10);
  const size_t elems = static_cast<size_t>(n) * static_cast<size_t>(n);
  std::vector<float> a(elems), b(elems), out(elems, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    table.MatMulForward(a.data(), b.data(), out.data(), n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

void BM_MatMulKernelScalar(benchmark::State& state) {
  MatMulImplBench(state, nn::kernels::ScalarTable());
}
BENCHMARK(BM_MatMulKernelScalar)->Arg(96)->Arg(192);

void BM_MatMulKernelAvx2(benchmark::State& state) {
  if (!nn::kernels::Avx2Supported()) {
    state.SkipWithError("AVX2+FMA unavailable on this host");
    return;
  }
  MatMulImplBench(state, *nn::kernels::Avx2Table());
}
BENCHMARK(BM_MatMulKernelAvx2)->Arg(96)->Arg(192);

// End-to-end no-grad encode under a forced kernel impl: the
// serving-visible form of the same speedup.
void EncodeNoGradImplBench(benchmark::State& state, const char* impl) {
  const char* entry_impl = nn::kernels::ActiveImplName();
  if (!nn::kernels::SetActiveImpl(impl)) {
    state.SkipWithError("kernel impl unavailable on this host");
    return;
  }
  {
    tasks::PreqrEncoder::Options options;
    options.cache_capacity = 1;
    options.cache_shards = 1;
    tasks::PreqrEncoder encoder(S().model.get(), options);
    for (auto _ : state) {
      encoder.InvalidateCache();
      EncodeForwardOnce(encoder);
    }
  }
  nn::kernels::SetActiveImpl(entry_impl);
}

void BM_EncodeNoGradScalar(benchmark::State& state) {
  EncodeNoGradImplBench(state, "scalar");
}
BENCHMARK(BM_EncodeNoGradScalar);

void BM_EncodeNoGradAvx2(benchmark::State& state) {
  EncodeNoGradImplBench(state, "avx2");
}
BENCHMARK(BM_EncodeNoGradAvx2);

void BM_MatMulForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0f);
  nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulForward)->Arg(96)->Arg(192);

void BM_MatMulBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  for (auto _ : state) {
    state.PauseTiming();
    nn::Tensor a = nn::Tensor::Randn({n, n}, rng, 1.0f, true);
    nn::Tensor b = nn::Tensor::Randn({n, n}, rng, 1.0f, true);
    nn::Tensor loss = nn::Sum(nn::MatMul(a, b));
    state.ResumeTiming();
    loss.Backward();
  }
  state.SetItemsProcessed(state.iterations() * 4LL * n * n * n);
}
BENCHMARK(BM_MatMulBackward)->Arg(96)->Arg(192);

void BM_AttentionSoftmaxRows(benchmark::State& state) {
  Rng rng(13);
  nn::Tensor x = nn::Tensor::Randn({512, 512}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::SoftmaxLastDim(x));
  }
}
BENCHMARK(BM_AttentionSoftmaxRows);

void BM_MultiHeadAttention(benchmark::State& state) {
  Rng rng(14);
  nn::MultiHeadAttention attn(64, 4, rng);
  nn::Tensor q = nn::Tensor::Randn({128, 64}, rng, 1.0f);
  nn::Tensor kv = nn::Tensor::Randn({128, 64}, rng, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(q, kv));
  }
}
BENCHMARK(BM_MultiHeadAttention);

void BM_LayerNormRows(benchmark::State& state) {
  Rng rng(15);
  nn::Tensor x = nn::Tensor::Randn({512, 256}, rng, 1.0f);
  nn::Tensor gamma = nn::Tensor::Full({256}, 1.0f);
  nn::Tensor beta = nn::Tensor::Full({256}, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::LayerNormOp(x, gamma, beta));
  }
}
BENCHMARK(BM_LayerNormRows);

void BM_EmbeddingScatterBackward(benchmark::State& state) {
  Rng rng(16);
  std::vector<int> ids;
  ids.reserve(2048);
  for (int i = 0; i < 2048; ++i) ids.push_back(rng.NextInt(0, 512));
  for (auto _ : state) {
    state.PauseTiming();
    nn::Tensor w = nn::Tensor::Randn({512, 64}, rng, 1.0f, true);
    nn::Tensor loss = nn::Sum(nn::Gather(w, ids));
    state.ResumeTiming();
    loss.Backward();
  }
}
BENCHMARK(BM_EmbeddingScatterBackward);

}  // namespace
}  // namespace preqr

BENCHMARK_MAIN();
