#include "inputs.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace perfbench {
namespace {

// A table joined behind a satellite (or behind title): `on` is the
// satellite column that references the dimension's id.
struct Dim {
  const char* table;
  const char* alias;
  const char* on;
  const char* filter;  // string column filtered by equality
};

// A table joined to title on `movie_id`, with its numeric filter columns
// and the dimensions reachable from it.
struct Satellite {
  const char* table;
  const char* alias;
  std::vector<const char*> filters;
  std::vector<Dim> dims;
};

const std::vector<Satellite>& Satellites() {
  static const std::vector<Satellite> kSatellites = {
      {"movie_companies", "mc", {"company_type_id", "company_id"},
       {{"company_name", "cn", "company_id", "country_code"},
        {"company_type", "ct", "company_type_id", "kind"}}},
      {"movie_info", "mi", {"info_type_id"},
       {{"info_type", "it1", "info_type_id", "info"}}},
      {"movie_info_idx", "mi_idx", {"info_type_id"},
       {{"info_type", "it2", "info_type_id", "info"}}},
      {"movie_keyword", "mk", {"keyword_id"},
       {{"keyword", "k", "keyword_id", "keyword"}}},
      {"cast_info", "ci", {"role_id", "person_role_id"},
       {{"role_type", "rt", "role_id", "role"},
        {"name", "n", "person_id", "gender"}}},
      {"movie_budget", "mb", {"budget", "gross"}, {}},
      {"complete_cast", "cc", {"subject_id", "status_id"}, {}},
      {"movie_link", "ml", {"link_type_id"},
       {{"link_type", "lt", "link_type_id", "link"}}},
      {"aka_title", "at", {}, {}},
  };
  return kSatellites;
}

const std::vector<const char*>& TitleFilters() {
  static const std::vector<const char*> kFilters = {
      "production_year", "kind_id", "season_nr", "episode_nr"};
  return kFilters;
}

const Dim kKindType = {"kind_type", "kt", "kind_id", "kind"};

}  // namespace

SqlGen::SqlGen(const preqr::db::Database& db, uint64_t seed)
    : db_(db), state_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {}

uint64_t SqlGen::NextU64() {
  // splitmix64: every seed gives its own full-period stream.
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string SqlGen::Literal(const std::string& table,
                            const std::string& column) {
  const preqr::db::Table* t = db_.FindTable(table);
  PREQR_CHECK(t != nullptr && t->num_rows() > 0);
  const preqr::db::Column* c = t->FindColumn(column);
  PREQR_CHECK(c != nullptr);
  const size_t row = Below(t->num_rows());
  if (c->type == preqr::sql::ColumnType::kString) {
    std::string quoted = "'";
    for (char ch : c->strings[row]) {
      if (ch == '\'') quoted += '\'';
      quoted += ch;
    }
    return quoted + "'";
  }
  return std::to_string(static_cast<long long>(c->AsDouble(row)));
}

std::string SqlGen::Next(int want) {
  const auto& sats = Satellites();

  std::vector<std::string> from = {"title t"};
  std::vector<std::string> joins;
  // (table, alias, column) candidates for numeric filters; strings go
  // through the dimension filters.
  struct FilterCol {
    std::string table, alias, column;
  };
  std::vector<FilterCol> filters;
  for (const char* col : TitleFilters()) filters.push_back({"title", "t", col});
  std::vector<FilterCol> string_filters;

  std::vector<size_t> order(sats.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[Below(i)]);

  int tables = 1;
  bool kind_joined = false;
  for (size_t oi = 0; oi < order.size() && tables < want; ++oi) {
    const Satellite& s = sats[order[oi]];
    from.push_back(std::string(s.table) + " " + s.alias);
    joins.push_back(std::string("t.id = ") + s.alias + ".movie_id");
    for (const char* col : s.filters) filters.push_back({s.table, s.alias, col});
    ++tables;
    // Sometimes hang a dimension behind this satellite (or kind_type
    // behind title) so joins are not all one star.
    if (tables < want && Below(3) == 0) {
      const bool use_kind = !kind_joined && (s.dims.empty() || Below(4) == 0);
      if (use_kind) {
        kind_joined = true;
        from.push_back(std::string(kKindType.table) + " " + kKindType.alias);
        joins.push_back(std::string("t.kind_id = ") + kKindType.alias + ".id");
        string_filters.push_back({kKindType.table, kKindType.alias, kKindType.filter});
        ++tables;
      } else if (!s.dims.empty()) {
        const Dim& d = s.dims[Below(s.dims.size())];
        from.push_back(std::string(d.table) + " " + d.alias);
        joins.push_back(std::string(s.alias) + "." + d.on + " = " + d.alias + ".id");
        string_filters.push_back({d.table, d.alias, d.filter});
        ++tables;
      }
    }
  }

  static const char* kOps[] = {"=", "<", ">", "<=", ">="};
  std::vector<std::string> preds = joins;
  const size_t num_filters = 1 + Below(3);
  for (size_t f = 0; f < num_filters; ++f) {
    const bool use_string = !string_filters.empty() && Below(3) == 0;
    const FilterCol& col = use_string
                               ? string_filters[Below(string_filters.size())]
                               : filters[Below(filters.size())];
    const char* op = use_string ? "=" : kOps[Below(5)];
    preds.push_back(col.alias + "." + col.column + " " + op + " " +
                    Literal(col.table, col.column));
  }

  std::string sql = "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < from.size(); ++i) sql += (i ? ", " : "") + from[i];
  sql += " WHERE ";
  for (size_t i = 0; i < preds.size(); ++i) sql += (i ? " AND " : "") + preds[i];
  return sql;
}

std::vector<std::string> SqlGen::Distinct(size_t n, int min_tables,
                                          int max_tables) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  out.reserve(n);
  const int span = max_tables - min_tables + 1;
  while (out.size() < n) {
    std::string sql = Next(min_tables + static_cast<int>(out.size() % span));
    if (seen.insert(sql).second) out.push_back(std::move(sql));
  }
  return out;
}

uint64_t DigestQueries(const std::vector<std::string>& queries) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& q : queries) {
    for (unsigned char c : q) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
