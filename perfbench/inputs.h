// Seeded SQL inputs for the workloads. The benchmark writes its own
// queries from the seed; the program only ever sees the SQL text.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"

namespace perfbench {

// Star-join COUNT(*) queries over the IMDB schema: `title` in the centre,
// satellite tables joined on movie_id, an optional dimension table behind a
// satellite, and numeric or string filters whose literals are drawn from
// rows of the database. The join graph is always a connected tree.
class SqlGen {
 public:
  SqlGen(const preqr::db::Database& db, uint64_t seed);

  // One query joining `tables` tables (1 to 8).
  std::string Next(int tables);

  // n pairwise-distinct queries. Join sizes cycle through min_tables ..
  // max_tables, so every seed gets the same mix of join sizes.
  std::vector<std::string> Distinct(size_t n, int min_tables, int max_tables);

 private:
  uint64_t NextU64();
  size_t Below(size_t n) { return static_cast<size_t>(NextU64() % n); }
  std::string Literal(const std::string& table, const std::string& column);

  const preqr::db::Database& db_;
  uint64_t state_;
};

// FNV-1a over the queries, for the self-test's reproducibility check.
uint64_t DigestQueries(const std::vector<std::string>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
