#include <gtest/gtest.h>

#include "db/database.h"
#include "db/executor.h"
#include "db/plan.h"
#include "db/stats.h"
#include "sql/parser.h"

namespace preqr::db {
namespace {

// A small two-table database with a known FK relationship:
//   title(id PK, production_year, kind_id)           -- 10 rows
//   movie_companies(id PK, movie_id FK->title.id, company_id) -- 20 rows
Database MakeDb() {
  Database db;
  {
    sql::TableDef def;
    def.name = "title";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"production_year", sql::ColumnType::kInt, false},
                   {"kind_id", sql::ColumnType::kInt, false},
                   {"name", sql::ColumnType::kString, false}};
    Table& t = db.AddTable(def);
    for (int i = 0; i < 10; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).ints.push_back(2000 + i);        // years 2000..2009
      t.column(2).ints.push_back(i % 3);           // kinds 0,1,2
      t.column(3).strings.push_back(i % 2 == 0 ? "even_movie" : "odd_movie");
    }
    t.Seal();
  }
  {
    sql::TableDef def;
    def.name = "movie_companies";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"movie_id", sql::ColumnType::kInt, false},
                   {"company_id", sql::ColumnType::kInt, false}};
    Table& t = db.AddTable(def);
    for (int i = 0; i < 20; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).ints.push_back(i / 2);  // two companies per movie
      t.column(2).ints.push_back(i % 5);
    }
    t.Seal();
  }
  EXPECT_TRUE(
      db.catalog()
          .AddForeignKey({"movie_companies", "movie_id", "title", "id"})
          .ok());
  return db;
}

double Card(const Database& db, const std::string& sql) {
  auto stmt = sql::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  Executor exec(db);
  auto res = exec.Execute(stmt.value());
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.value().cardinality;
}

TEST(ExecutorTest, SingleTableScanAll) {
  Database db = MakeDb();
  EXPECT_DOUBLE_EQ(Card(db, "SELECT COUNT(*) FROM title"), 10);
}

TEST(ExecutorTest, SingleTableRangeFilter) {
  Database db = MakeDb();
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title t WHERE t.production_year > 2005"),
      4);  // 2006..2009
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE production_year <= 2001"), 2);
}

TEST(ExecutorTest, EqualityAndInFilters) {
  Database db = MakeDb();
  EXPECT_DOUBLE_EQ(Card(db, "SELECT COUNT(*) FROM title WHERE kind_id = 0"), 4);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE kind_id IN (0, 2)"), 7);
}

TEST(ExecutorTest, BetweenFilter) {
  Database db = MakeDb();
  EXPECT_DOUBLE_EQ(
      Card(db,
           "SELECT COUNT(*) FROM title WHERE production_year BETWEEN 2002 AND "
           "2004"),
      3);
}

TEST(ExecutorTest, StringEqualityAndLike) {
  Database db = MakeDb();
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE name = 'even_movie'"), 5);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE name LIKE '%odd%'"), 5);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE name LIKE 'even%'"), 5);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE name LIKE 'nope%'"), 0);
}

TEST(ExecutorTest, TwoWayFkJoin) {
  Database db = MakeDb();
  // Every mc row matches exactly one title: 20 join rows.
  EXPECT_DOUBLE_EQ(
      Card(db,
           "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = "
           "mc.movie_id"),
      20);
}

TEST(ExecutorTest, JoinWithFilters) {
  Database db = MakeDb();
  // Titles with year > 2005: ids 6..9, each with 2 companies -> 8.
  EXPECT_DOUBLE_EQ(
      Card(db,
           "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = "
           "mc.movie_id AND t.production_year > 2005"),
      8);
  // Additional filter on mc side: company_id = 0 appears for mc.id in
  // {0,5,10,15} -> movie_ids {0,2,5,7}; intersect year>2005 -> {7} -> 1 row.
  EXPECT_DOUBLE_EQ(
      Card(db,
           "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = "
           "mc.movie_id AND t.production_year > 2005 AND mc.company_id = 0"),
      1);
}

TEST(ExecutorTest, JoinMatchesBruteForce) {
  Database db = MakeDb();
  const Table* title = db.FindTable("title");
  const Table* mc = db.FindTable("movie_companies");
  // Brute force count for year >= 2003 AND company_id IN (1,2).
  double expected = 0;
  for (size_t i = 0; i < title->num_rows(); ++i) {
    if (title->column(1).ints[i] < 2003) continue;
    for (size_t j = 0; j < mc->num_rows(); ++j) {
      if (mc->column(1).ints[j] != title->column(0).ints[i]) continue;
      const int64_t cid = mc->column(2).ints[j];
      if (cid == 1 || cid == 2) expected += 1;
    }
  }
  EXPECT_DOUBLE_EQ(
      Card(db,
           "SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = "
           "mc.movie_id AND t.production_year >= 2003 AND mc.company_id IN "
           "(1,2)"),
      expected);
}

TEST(ExecutorTest, InSubquery) {
  Database db = MakeDb();
  // Subquery: movie ids with company_id = 0 -> {0,2,5,7}; titles among them
  // with year <= 2005 -> {0,2,5} -> 3.
  EXPECT_DOUBLE_EQ(
      Card(db,
           "SELECT COUNT(*) FROM title WHERE id IN (SELECT movie_id FROM "
           "movie_companies WHERE company_id = 0) AND production_year <= "
           "2005"),
      3);
}

TEST(ExecutorTest, UnionDeduplicatesRootRows) {
  Database db = MakeDb();
  auto stmt = sql::Parse(
      "SELECT id FROM title WHERE kind_id = 0 UNION "
      "SELECT id FROM title WHERE production_year < 2002");
  ASSERT_TRUE(stmt.ok());
  Executor exec(db);
  auto res = exec.Execute(stmt.value(), /*collect_root_rows=*/true);
  ASSERT_TRUE(res.ok());
  // kind 0: {0,3,6,9}; year<2002: {0,1}; union -> 5 distinct.
  EXPECT_DOUBLE_EQ(res.value().cardinality, 5);
  EXPECT_EQ(res.value().root_row_ids.size(), 5u);
}

TEST(ExecutorTest, RootRowIdsMatchFilter) {
  Database db = MakeDb();
  auto stmt = sql::Parse("SELECT id FROM title WHERE kind_id = 1");
  ASSERT_TRUE(stmt.ok());
  Executor exec(db);
  auto res = exec.Execute(stmt.value(), true);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().root_row_ids, (std::vector<int>{1, 4, 7}));
}

TEST(ExecutorTest, CostGrowsWithWork) {
  Database db = MakeDb();
  Executor exec(db);
  auto single = exec.Execute(sql::Parse("SELECT COUNT(*) FROM title").value());
  auto join = exec.Execute(
      sql::Parse("SELECT COUNT(*) FROM title t, movie_companies mc WHERE "
                 "t.id = mc.movie_id")
          .value());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(join.ok());
  EXPECT_GT(join.value().cost, single.value().cost);
}

TEST(ExecutorTest, ErrorsOnUnknownTable) {
  Database db = MakeDb();
  Executor exec(db);
  auto res = exec.Execute(sql::Parse("SELECT COUNT(*) FROM nope").value());
  EXPECT_FALSE(res.ok());
}

TEST(ExecutorTest, ErrorsOnDisconnectedJoin) {
  Database db = MakeDb();
  Executor exec(db);
  // Two tables, no join predicate: not a tree.
  auto res = exec.Execute(
      sql::Parse("SELECT COUNT(*) FROM title t, movie_companies mc").value());
  EXPECT_FALSE(res.ok());
}

TEST(ExecutorTest, LikeMatcher) {
  EXPECT_TRUE(LikeMatch("hello", "h%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "_ello"));
  EXPECT_FALSE(LikeMatch("hello", "h_o"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abc", ""));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_TRUE(LikeMatch("a%c-literal", "a%l"));
}

TEST(ExecutorTest, LikeMatcherEdgeCases) {
  // Empty pattern matches only empty text.
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_FALSE(LikeMatch("a", ""));
  // Runs of % collapse; % alone matches anything, including empty text.
  EXPECT_TRUE(LikeMatch("", "%%"));
  EXPECT_TRUE(LikeMatch("anything", "%%%"));
  // _ consumes exactly one byte: empty text never matches it, and a
  // two-byte UTF-8 character needs two underscores (byte semantics).
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_FALSE(LikeMatch("", "_%"));
  EXPECT_FALSE(LikeMatch("\xc3\xa9", "_"));  // U+00E9, 2 bytes
  EXPECT_TRUE(LikeMatch("\xc3\xa9", "__"));
  EXPECT_TRUE(LikeMatch("\xc3\xa9", "%"));
  // Backtracking across repeated prefixes.
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));
  EXPECT_FALSE(LikeMatch("aaa", "%ab"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  // Pattern longer than text.
  EXPECT_FALSE(LikeMatch("ab", "abc"));
  EXPECT_FALSE(LikeMatch("ab", "ab_"));
}

TEST(ExecutorTest, PredicateBoundaryNumerics) {
  Database db = MakeDb();
  // BETWEEN is inclusive on both ends; reversed bounds select nothing.
  EXPECT_DOUBLE_EQ(Card(db,
                        "SELECT COUNT(*) FROM title WHERE production_year "
                        "BETWEEN 2000 AND 2000"),
                   1);
  EXPECT_DOUBLE_EQ(Card(db,
                        "SELECT COUNT(*) FROM title WHERE production_year "
                        "BETWEEN 2005 AND 2001"),
                   0);
  // Strict vs inclusive comparisons at the column extremes.
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE production_year >= 2009"),
      1);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE production_year > 2009"), 0);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE production_year < 2000"), 0);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE production_year <= 2000"),
      1);
  // Single-element and all-miss IN lists; equality misses.
  EXPECT_DOUBLE_EQ(Card(db, "SELECT COUNT(*) FROM title WHERE kind_id IN (2)"),
                   3);
  EXPECT_DOUBLE_EQ(
      Card(db, "SELECT COUNT(*) FROM title WHERE kind_id IN (7, 9)"), 0);
  EXPECT_DOUBLE_EQ(Card(db, "SELECT COUNT(*) FROM title WHERE kind_id = 42"),
                   0);
}

TEST(ExecutorTest, PredicatePassesDirect) {
  Database db = MakeDb();
  auto stmt =
      sql::Parse("SELECT COUNT(*) FROM title WHERE production_year >= 2005");
  ASSERT_TRUE(stmt.ok());
  const sql::Predicate& pred = stmt.value().predicates[0];
  const Table& title = *db.FindTable("title");
  // production_year is column 1 and holds 2000 + row.
  EXPECT_FALSE(PredicatePasses(title, 1, pred, 4));  // 2004
  EXPECT_TRUE(PredicatePasses(title, 1, pred, 5));   // 2005, inclusive
  EXPECT_TRUE(PredicatePasses(title, 1, pred, 9));   // 2009
}

// --- Stats --------------------------------------------------------------

TEST(StatsTest, NumericColumnBasics) {
  Database db = MakeDb();
  StatsCollector collector(4, 4);
  TableStats stats = collector.Analyze(*db.FindTable("title"));
  const ColumnStats& year = stats.columns[1];
  EXPECT_DOUBLE_EQ(year.min, 2000);
  EXPECT_DOUBLE_EQ(year.max, 2009);
  EXPECT_EQ(year.num_distinct, 10);
  EXPECT_EQ(stats.row_count, 10u);
}

TEST(StatsTest, RangeSelectivityReasonable) {
  Database db = MakeDb();
  StatsCollector collector(4, 4);
  TableStats stats = collector.Analyze(*db.FindTable("title"));
  const ColumnStats& year = stats.columns[1];
  // True selectivity of year > 2005 is 0.4.
  const double sel =
      year.EstimateNumericSelectivity(sql::CompareOp::kGt, 2005);
  EXPECT_GT(sel, 0.15);
  EXPECT_LT(sel, 0.65);
}

TEST(StatsTest, EqualitySelectivityUsesDistinct) {
  Database db = MakeDb();
  StatsCollector collector(4, 2);
  TableStats stats = collector.Analyze(*db.FindTable("movie_companies"));
  const ColumnStats& cid = stats.columns[2];  // 5 distinct, uniform
  const double sel = cid.EstimateEqualitySelectivity(3);
  EXPECT_NEAR(sel, 0.2, 0.1);
}

TEST(StatsTest, StringMcv) {
  Database db = MakeDb();
  StatsCollector collector(4, 4);
  TableStats stats = collector.Analyze(*db.FindTable("title"));
  const ColumnStats& name = stats.columns[3];
  EXPECT_EQ(name.num_distinct, 2);
  EXPECT_NEAR(name.EstimateStringEquality("even_movie"), 0.5, 1e-9);
}

TEST(StatsTest, LikeSelectivityHeuristic) {
  const double broad = ColumnStats::EstimateLikeSelectivity("%a%");
  const double narrow = ColumnStats::EstimateLikeSelectivity("%abcdef%");
  EXPECT_GT(broad, narrow);
  EXPECT_LE(broad, 0.5);
  EXPECT_GE(narrow, 1e-4);
}

TEST(StatsTest, EmptyColumn) {
  Column c;
  c.type = sql::ColumnType::kInt;
  StatsCollector collector;
  sql::TableDef def;
  def.name = "empty";
  def.columns = {{"x", sql::ColumnType::kInt, false}};
  Table t(def);
  t.Seal();
  TableStats stats = collector.Analyze(t);
  EXPECT_EQ(stats.row_count, 0u);
}

// --- BitmapSampler --------------------------------------------------------

TEST(BitmapSamplerTest, AllOnesWithoutPredicates) {
  Database db = MakeDb();
  BitmapSampler sampler(db, 16);
  auto stmt = sql::Parse("SELECT COUNT(*) FROM title t").value();
  auto bm = sampler.Bitmap("title", stmt);
  ASSERT_EQ(bm.size(), 16u);
  for (float b : bm) EXPECT_EQ(b, 1.0f);
}

TEST(BitmapSamplerTest, SelectiveFilterReducesOnes) {
  Database db = MakeDb();
  BitmapSampler sampler(db, 64);
  auto all = sampler.Bitmap(
      "title", sql::Parse("SELECT COUNT(*) FROM title t").value());
  auto filtered = sampler.Bitmap(
      "title",
      sql::Parse("SELECT COUNT(*) FROM title t WHERE t.kind_id = 0").value());
  float sum_all = 0, sum_f = 0;
  for (float b : all) sum_all += b;
  for (float b : filtered) sum_f += b;
  EXPECT_LT(sum_f, sum_all);
  EXPECT_GT(sum_f, 0);  // kind 0 is 40% of rows; 64 samples won't all miss
}

TEST(BitmapSamplerTest, IgnoresOtherTablesPredicates) {
  Database db = MakeDb();
  BitmapSampler sampler(db, 32);
  auto stmt = sql::Parse(
                  "SELECT COUNT(*) FROM title t, movie_companies mc WHERE "
                  "t.id = mc.movie_id AND mc.company_id = 0")
                  .value();
  auto bm = sampler.Bitmap("title", stmt);
  for (float b : bm) EXPECT_EQ(b, 1.0f);  // filter is on mc, not title
}

TEST(BitmapSamplerTest, DeterministicAcrossInstances) {
  Database db = MakeDb();
  BitmapSampler s1(db, 32, 99), s2(db, 32, 99);
  auto stmt =
      sql::Parse("SELECT COUNT(*) FROM title WHERE kind_id = 1").value();
  EXPECT_EQ(s1.Bitmap("title", stmt), s2.Bitmap("title", stmt));
}

}  // namespace
}  // namespace preqr::db
