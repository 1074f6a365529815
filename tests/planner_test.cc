// Covers the join-order planner stack end to end: the DP enumerator against
// the brute-force oracle (bitwise-equal costs by construction — both sides
// accumulate join terms in the same left-to-right association), explicit
// left-deep execution against the default plan's order-invariant counts,
// the unified CardinalityEstimator contracts, and the join-graph validation
// statuses (self-loops, cycles, disconnection, non-integer join columns)
// that used to be silently mis-executed or abort the process. The bad-join
// list at the bottom is a regression corpus in the fuzz-corpus style: every
// entry stays pinned to kInvalidArgument.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/executor.h"
#include "db/plan.h"
#include "pg/pg_estimator.h"
#include "planner/cardinality.h"
#include "planner/join_planner.h"
#include "sql/parser.h"
#include "workload/imdb.h"
#include "workload/query_gen.h"

namespace preqr::planner {
namespace {

// Four tables with a tree-shaped FK layout and deliberately correlated
// columns, so different join orders produce different intermediate sizes:
//   company_name -- movie_companies -- title -- cast_info
// plus a kind_type dimension whose only non-key column is a string, for
// the non-integer join case in the bad-join corpus.
db::Database MakeDb() {
  db::Database db;
  {
    sql::TableDef def;
    def.name = "title";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"production_year", sql::ColumnType::kInt, false},
                   {"kind_id", sql::ColumnType::kInt, false},
                   {"title", sql::ColumnType::kString, false}};
    db::Table& t = db.AddTable(def);
    for (int i = 0; i < 12; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).ints.push_back(2000 + i % 6);
      t.column(2).ints.push_back(i % 3);
      t.column(3).strings.push_back(i % 2 == 0 ? "movie" : "episode");
    }
    t.Seal();
  }
  {
    sql::TableDef def;
    def.name = "kind_type";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"kind", sql::ColumnType::kString, false}};
    db::Table& t = db.AddTable(def);
    for (int i = 0; i < 3; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).strings.push_back(i == 0 ? "movie" : "episode");
    }
    t.Seal();
  }
  {
    sql::TableDef def;
    def.name = "movie_companies";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"movie_id", sql::ColumnType::kInt, false},
                   {"company_id", sql::ColumnType::kInt, false}};
    db::Table& t = db.AddTable(def);
    for (int i = 0; i < 24; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).ints.push_back(i / 2);  // two companies per movie
      t.column(2).ints.push_back(i % 5);
    }
    t.Seal();
  }
  {
    sql::TableDef def;
    def.name = "company_name";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"country_id", sql::ColumnType::kInt, false}};
    db::Table& t = db.AddTable(def);
    for (int i = 0; i < 5; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).ints.push_back(i % 2);
    }
    t.Seal();
  }
  {
    sql::TableDef def;
    def.name = "cast_info";
    def.columns = {{"id", sql::ColumnType::kInt, true},
                   {"movie_id", sql::ColumnType::kInt, false},
                   {"person_id", sql::ColumnType::kInt, false}};
    db::Table& t = db.AddTable(def);
    for (int i = 0; i < 18; ++i) {
      t.column(0).ints.push_back(i);
      t.column(1).ints.push_back(i % 12);
      t.column(2).ints.push_back(i % 7);
    }
    t.Seal();
  }
  return db;
}

sql::SelectStatement Parse(const std::string& sql) {
  auto stmt = sql::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  return stmt.value();
}

// Chain query over all four tables; the filters skew intermediate sizes.
const char kChainSql[] =
    "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, "
    "cast_info ci WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND "
    "t.id = ci.movie_id AND t.kind_id = 0 AND cn.country_id = 1";

TEST(JoinPlannerTest, DpMatchesExhaustiveOnHandQuery) {
  db::Database db = MakeDb();
  sql::SelectStatement stmt = Parse(kChainSql);
  TrueCardinalityEstimator est(db);
  auto dp = PlanJoinOrder(db, stmt, est);
  auto ex = ExhaustivePlanJoinOrder(db, stmt, est);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  // Same association on both sides makes equal orders bitwise-equal, so
  // the minima over the same candidate set are identical doubles.
  EXPECT_DOUBLE_EQ(dp.value().estimated_cost, ex.value().estimated_cost);
  EXPECT_EQ(dp.value().order.size(), 4u);
  db::Executor exec(db);
  EXPECT_TRUE(exec.ExecuteOrder(stmt, dp.value().order).ok());
  EXPECT_TRUE(exec.ExecuteOrder(stmt, ex.value().order).ok());
}

TEST(JoinPlannerTest, DpIsDeterministic) {
  db::Database db = MakeDb();
  sql::SelectStatement stmt = Parse(kChainSql);
  TrueCardinalityEstimator est_a(db);
  TrueCardinalityEstimator est_b(db);
  auto a = PlanJoinOrder(db, stmt, est_a);
  auto b = PlanJoinOrder(db, stmt, est_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().order, b.value().order);
  EXPECT_DOUBLE_EQ(a.value().estimated_cost, b.value().estimated_cost);
}

TEST(JoinPlannerTest, TruePlanIsExecutedOptimal) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  TrueCardinalityEstimator est(db);
  auto dp = PlanJoinOrder(db, stmt, est);
  ASSERT_TRUE(dp.ok());
  auto chosen = exec.ExecuteOrder(stmt, dp.value().order);
  ASSERT_TRUE(chosen.ok());

  // Brute-force every valid left-deep order and execute it: the DP plan
  // fed exact cardinalities must achieve the executed-cost minimum.
  std::vector<int> order = {0, 1, 2, 3};
  double best = -1;
  int valid = 0;
  do {
    auto res = exec.ExecuteOrder(stmt, order);
    if (!res.ok()) continue;
    ++valid;
    if (best < 0 || res.value().cost < best) best = res.value().cost;
  } while (std::next_permutation(order.begin(), order.end()));
  ASSERT_GT(valid, 1);
  EXPECT_LE(chosen.value().cost, best * (1.0 + 1e-9));
}

TEST(JoinPlannerTest, DpMatchesExhaustiveOnGeneratedWorkload) {
  db::Database imdb = workload::MakeImdbDatabase(13, 0.02);
  workload::ImdbQueryGenerator gen(imdb, 7);
  db::Executor exec(imdb);
  TrueCardinalityEstimator est(imdb);
  int covered = 0;
  for (const auto& q : gen.Synthetic(60, 4)) {
    const size_t n = q.stmt.tables.size();
    if (n < 3 || n > 5) continue;
    auto dp = PlanJoinOrder(imdb, q.stmt, est);
    auto ex = ExhaustivePlanJoinOrder(imdb, q.stmt, est);
    ASSERT_TRUE(dp.ok()) << q.sql << ": " << dp.status().ToString();
    ASSERT_TRUE(ex.ok()) << q.sql << ": " << ex.status().ToString();
    EXPECT_DOUBLE_EQ(dp.value().estimated_cost, ex.value().estimated_cost)
        << q.sql;
    // The chosen order executes to the same exact count as the default
    // plan — counts are join-order invariant.
    auto ordered = exec.ExecuteOrder(q.stmt, dp.value().order);
    auto base = exec.Execute(q.stmt);
    ASSERT_TRUE(ordered.ok() && base.ok()) << q.sql;
    EXPECT_DOUBLE_EQ(ordered.value().cardinality, base.value().cardinality)
        << q.sql;
    if (++covered >= 6) break;
  }
  EXPECT_GE(covered, 3);
}

TEST(JoinPlannerTest, RejectsUnionStatements) {
  db::Database db = MakeDb();
  sql::SelectStatement stmt = Parse(
      "SELECT COUNT(*) FROM title UNION SELECT COUNT(*) FROM company_name");
  TrueCardinalityEstimator est(db);
  auto r = PlanJoinOrder(db, stmt, est);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(JoinPlannerTest, RejectsMoreThanSixteenTables) {
  db::Database db = MakeDb();
  std::string sql = "SELECT COUNT(*) FROM title t0";
  for (int i = 1; i < 17; ++i) sql += ", title t" + std::to_string(i);
  sql += " WHERE t0.id = t1.id";
  for (int i = 1; i < 16; ++i) {
    sql += " AND t" + std::to_string(i) + ".id = t" + std::to_string(i + 1) +
           ".id";
  }
  sql::SelectStatement stmt = Parse(sql);
  TrueCardinalityEstimator est(db);
  auto r = PlanJoinOrder(db, stmt, est);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CardinalityEstimatorTest, TrueEstimatorMatchesExecutor) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  TrueCardinalityEstimator est(db);
  auto base = exec.Execute(stmt);
  ASSERT_TRUE(base.ok());
  EXPECT_DOUBLE_EQ(est.EstimateCardinality(stmt), base.value().cardinality);
  // Memoized second call returns the identical value.
  EXPECT_DOUBLE_EQ(est.EstimateCardinality(stmt), base.value().cardinality);
}

TEST(CardinalityEstimatorTest, SubsetDefaultsToInducedStatement) {
  db::Database db = MakeDb();
  pg::PgEstimator pg(db);
  PgCardinalityEstimator est(db, pg);
  sql::SelectStatement stmt = Parse(kChainSql);
  const std::vector<int> subset = {0, 1};
  sql::SelectStatement induced = InduceSubsetStatement(db, stmt, subset);
  EXPECT_EQ(induced.tables.size(), 2u);
  EXPECT_DOUBLE_EQ(est.EstimateSubsetCardinality(stmt, subset),
                   pg.EstimateCardinality(induced));
}

TEST(CardinalityEstimatorTest, InducedSubsetKeepsResolvablePredicates) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  // {title, movie_companies}: keeps the t-mc join and t.kind_id filter,
  // drops the cn/ci tables and everything referencing them.
  auto induced = InduceSubsetStatement(db, stmt, {0, 1});
  auto got = exec.Execute(induced);
  auto want = exec.Execute(
      Parse("SELECT COUNT(*) FROM title t, movie_companies mc WHERE "
            "t.id = mc.movie_id AND t.kind_id = 0"));
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_DOUBLE_EQ(got.value().cardinality, want.value().cardinality);
  // Single-table subset keeps that table's filter only.
  auto cn_only = InduceSubsetStatement(db, stmt, {2});
  auto cn_got = exec.Execute(cn_only);
  ASSERT_TRUE(cn_got.ok());
  EXPECT_DOUBLE_EQ(cn_got.value().cardinality, 2);  // country_id = 1
}

TEST(CardinalityEstimatorTest, CallbackEstimatesFlooredAtOneRow) {
  db::Database db = MakeDb();
  CallbackCardinalityEstimator est(db, "zero",
                                   [](const std::string&) { return 0.0; });
  EXPECT_EQ(est.name(), "zero");
  sql::SelectStatement stmt = Parse("SELECT COUNT(*) FROM title");
  EXPECT_DOUBLE_EQ(est.EstimateCardinality(stmt), 1.0);
}

TEST(ExecuteOrderTest, AllValidOrdersAgreeWithExecute) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  auto base = exec.Execute(stmt);
  ASSERT_TRUE(base.ok());

  std::vector<int> order = {0, 1, 2, 3};
  int valid = 0, invalid = 0;
  do {
    auto res = exec.ExecuteOrder(stmt, order);
    if (!res.ok()) {
      EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
      ++invalid;
      continue;
    }
    ++valid;
    EXPECT_DOUBLE_EQ(res.value().cardinality, base.value().cardinality);
    ASSERT_EQ(res.value().steps.size(), 3u);
    // The last prefix is the whole join, so its intermediate equals the
    // final count; every step reports the joined table's filtered rows.
    EXPECT_DOUBLE_EQ(res.value().steps.back().intermediate_rows,
                     base.value().cardinality);
    for (const auto& step : res.value().steps) {
      EXPECT_GE(step.binding, 0);
      EXPECT_LT(step.binding, 4);
      EXPECT_GE(step.build_rows, 0);
    }
    EXPECT_GT(res.value().cost, 0);
  } while (std::next_permutation(order.begin(), order.end()));
  // cn (index 2) only connects through mc, ci (index 3) only through t:
  // orders starting with a leaf pair are disconnected, so both buckets
  // must be populated.
  EXPECT_GT(valid, 0);
  EXPECT_GT(invalid, 0);
}

TEST(ExecuteOrderTest, RejectsMalformedOrders) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  for (const std::vector<int>& bad :
       {std::vector<int>{0, 1, 2},        // too short
        std::vector<int>{0, 1, 2, 2},     // duplicate
        std::vector<int>{0, 1, 2, 4},     // out of range
        std::vector<int>{2, 3, 0, 1}}) {  // cn then ci: disconnected prefix
    auto res = exec.ExecuteOrder(stmt, bad);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  }
  sql::SelectStatement u = Parse(
      "SELECT COUNT(*) FROM title UNION SELECT COUNT(*) FROM company_name");
  EXPECT_FALSE(exec.ExecuteOrder(u, {0}).ok());
}

TEST(PlanNodeTest, RootedPlanReportsPerNodeStats) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  auto bound = exec.Bind(stmt);
  ASSERT_TRUE(bound.ok());
  std::unique_ptr<db::PlanNode> plan = db::BuildDefaultPlan(bound.value());
  ASSERT_NE(plan, nullptr);
  // Rooted at title: children are movie_companies and cast_info.
  EXPECT_EQ(plan->binding(), 0);
  ASSERT_EQ(plan->inputs().size(), 2u);

  db::ExecResult result;
  result.cost = bound.value().bind_cost;
  plan->ExecuteRoot(bound.value(), /*collect_root_rows=*/false, &result);
  auto base = exec.Execute(stmt);
  ASSERT_TRUE(base.ok());
  EXPECT_DOUBLE_EQ(result.cardinality, base.value().cardinality);
  EXPECT_DOUBLE_EQ(result.cost, base.value().cost);
  // The root's stats carry the final count and the emission work.
  EXPECT_DOUBLE_EQ(plan->stats().out_rows, result.cardinality);
  EXPECT_DOUBLE_EQ(plan->stats().cost, result.cardinality * 0.1);

  for (const auto& input : plan->inputs()) {
    EXPECT_GE(input.probe_col, 0);
    EXPECT_GE(input.build_col, 0);
    EXPECT_GE(input.child->stats().build_entries, 0);
    EXPECT_GT(input.child->stats().cost, 0);
  }
  // A scan is a node with no inputs. Rooted at title, the chain plan's
  // leaves are company_name (under movie_companies) and cast_info.
  std::vector<const db::PlanNode*> stack = {plan.get()};
  int leaves = 0;
  while (!stack.empty()) {
    const db::PlanNode* node = stack.back();
    stack.pop_back();
    if (node->inputs().empty()) ++leaves;
    for (const auto& input : node->inputs()) stack.push_back(input.child.get());
  }
  EXPECT_EQ(leaves, 2);
}

TEST(PlanNodeTest, EveryRootYieldsTheSameCount) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  sql::SelectStatement stmt = Parse(kChainSql);
  auto bound = exec.Bind(stmt);
  ASSERT_TRUE(bound.ok());
  auto base = exec.Execute(stmt);
  ASSERT_TRUE(base.ok());
  for (int root = 0; root < 4; ++root) {
    auto plan = db::BuildRootedPlan(bound.value(), root);
    db::ExecResult result;
    plan->ExecuteRoot(bound.value(), false, &result);
    EXPECT_DOUBLE_EQ(result.cardinality, base.value().cardinality)
        << "root=" << root;
  }
}

// Fuzz-corpus-style regression list: join shapes that used to be silently
// mis-executed (self-joins on one occurrence), only caught deep in
// execution, or aborted the process (string join columns) now fail binding
// with kInvalidArgument, and the statuses stay pinned here. Checked through
// Execute, ExecuteOrder (which must agree with Execute) and the planner's
// graph-resolution path.
TEST(JoinGraphValidationTest, BadJoinGraphCorpusStaysRejected) {
  db::Database db = MakeDb();
  db::Executor exec(db);
  struct Case {
    const char* sql;
    const char* message_fragment;
  };
  const Case kCorpus[] = {
      {"SELECT COUNT(*) FROM title t WHERE t.id = t.kind_id", "self-join"},
      {"SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn "
       "WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND "
       "t.kind_id = cn.country_id",
       "not a tree"},  // cycle: 3 edges over 3 tables
      {"SELECT COUNT(*) FROM title t, movie_companies mc",
       "not a tree"},  // cross join: 0 edges over 2 tables
      {"SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, "
       "cast_info ci WHERE t.id = mc.movie_id AND t.kind_id = mc.company_id "
       "AND cn.id = ci.person_id",
       "disconnected"},  // n-1 edges but two components
      {"SELECT COUNT(*) FROM title t, kind_type kt WHERE t.title = kt.kind",
       "must be integers"},  // string join columns used to abort the process
  };
  for (const Case& c : kCorpus) {
    sql::SelectStatement stmt = Parse(c.sql);
    auto res = exec.Execute(stmt);
    ASSERT_FALSE(res.ok()) << c.sql;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument) << c.sql;
    EXPECT_NE(res.status().message().find(c.message_fragment),
              std::string::npos)
        << c.sql << " -> " << res.status().message();
    std::vector<int> identity(stmt.tables.size());
    for (size_t i = 0; i < identity.size(); ++i) {
      identity[i] = static_cast<int>(i);
    }
    auto ordered = exec.ExecuteOrder(stmt, identity);
    ASSERT_FALSE(ordered.ok()) << c.sql;
    EXPECT_EQ(ordered.status().code(), res.status().code()) << c.sql;
    auto graph = db::ResolveJoinGraph(db, stmt);
    ASSERT_FALSE(graph.ok()) << c.sql;
    EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument) << c.sql;
  }
}

}  // namespace
}  // namespace preqr::planner
