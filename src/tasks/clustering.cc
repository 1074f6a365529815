#include "tasks/clustering.h"

#include "baselines/sim.h"
#include "sql/parser.h"

namespace preqr::tasks {

std::vector<sql::SelectStatement> ParseAll(
    const std::vector<std::string>& queries) {
  std::vector<sql::SelectStatement> out;
  out.reserve(queries.size());
  for (const auto& q : queries) {
    auto parsed = sql::Parse(q);
    out.push_back(parsed.ok() ? std::move(parsed.value())
                              : sql::SelectStatement());
  }
  return out;
}

std::vector<std::vector<double>> AstDistanceMatrix(
    const std::vector<sql::SelectStatement>& stmts, AstMetric metric) {
  const size_t n = stmts.size();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double dist = 0;
      switch (metric) {
        case AstMetric::kAouiche:
          dist = baselines::AouicheDistance(stmts[i], stmts[j]);
          break;
        case AstMetric::kAligon:
          dist = baselines::AligonDistance(stmts[i], stmts[j]);
          break;
        case AstMetric::kMakiyama:
          dist = baselines::MakiyamaDistance(stmts[i], stmts[j]);
          break;
      }
      d[i][j] = dist;
      d[j][i] = dist;
    }
  }
  return d;
}

std::vector<std::vector<double>> EmbeddingDistanceMatrix(
    const std::vector<std::string>& queries,
    baselines::QueryEncoder& encoder) {
  const size_t n = queries.size();
  // One batched call through the base interface: every encoder shares the
  // call shape, and PreQR batches the missing-prefix computation.
  std::vector<std::vector<float>> embeddings;
  embeddings.reserve(n);
  for (auto& e : encoder.EncodeVectorBatch(queries, /*train=*/false)) {
    embeddings.emplace_back(e.vec());
  }
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double dist =
          baselines::CosineDistance(embeddings[i], embeddings[j]);
      d[i][j] = dist;
      d[j][i] = dist;
    }
  }
  return d;
}

std::vector<std::vector<double>> ToSimilarity(
    const std::vector<std::vector<double>>& distance) {
  std::vector<std::vector<double>> s(distance.size());
  for (size_t i = 0; i < distance.size(); ++i) {
    s[i].reserve(distance[i].size());
    for (double d : distance[i]) s[i].push_back(1.0 - d);
  }
  return s;
}

}  // namespace preqr::tasks
