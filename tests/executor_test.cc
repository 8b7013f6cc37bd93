// Executor tests: hand-checked small cases plus a property suite that
// cross-checks the executor bit for bit against the naive oracle
// (tests/oracle/naive_executor.h) on generated data.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "common/random.h"
#include "datagen/traffic_gen.h"
#include "engine/executor.h"
#include "oracle/naive_executor.h"

namespace paleo {
namespace {

Schema TestSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

Table TestTable() {
  Table t(TestSchema());
  struct Row {
    const char* e;
    const char* state;
    int64_t v;
    double w;
  };
  const Row rows[] = {
      {"a", "CA", 10, 1.0}, {"a", "CA", 30, 2.0}, {"b", "CA", 20, 3.0},
      {"b", "NY", 50, 4.0}, {"c", "CA", 25, 5.0}, {"c", "CA", 15, 6.0},
      {"d", "NY", 40, 7.0},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::String(r.e), Value::String(r.state),
                             Value::Int64(r.v), Value::Double(r.w)})
                    .ok());
  }
  return t;
}

TEST(ExecutorTest, MaxGroupByDesc) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.k = 10;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  // max per entity: a=30, b=50, c=25, d=40.
  ASSERT_EQ(result->size(), 4u);
  EXPECT_EQ(result->entry(0), TopKEntry("b", 50));
  EXPECT_EQ(result->entry(1), TopKEntry("d", 40));
  EXPECT_EQ(result->entry(2), TopKEntry("a", 30));
  EXPECT_EQ(result->entry(3), TopKEntry("c", 25));
}

TEST(ExecutorTest, LimitTruncates) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.k = 2;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(result->entry(0).entity, "b");
  EXPECT_EQ(result->entry(1).entity, "d");
}

TEST(ExecutorTest, PredicateFiltersBeforeAggregation) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("CA"));
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.k = 10;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  // CA rows only: a=30, b=20, c=25; d excluded.
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ(result->entry(0), TopKEntry("a", 30));
  EXPECT_EQ(result->entry(1), TopKEntry("c", 25));
  EXPECT_EQ(result->entry(2), TopKEntry("b", 20));
}

TEST(ExecutorTest, SumAvgCountMin) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.k = 10;

  q.agg = AggFn::kSum;
  auto sum = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->entry(0), TopKEntry("b", 70));  // 20 + 50

  q.agg = AggFn::kAvg;
  auto avg = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->entry(0), TopKEntry("d", 40));  // singleton 40 > b's 35

  q.agg = AggFn::kMin;
  auto min = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->entry(0), TopKEntry("d", 40));

  q.agg = AggFn::kCount;
  auto count = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->entry(0).value, 2.0);
}

TEST(ExecutorTest, AscendingOrder) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.order = SortOrder::kAsc;
  q.k = 2;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entry(0), TopKEntry("c", 25));
  EXPECT_EQ(result->entry(1), TopKEntry("a", 30));
}

TEST(ExecutorTest, NoAggregationRanksRowsAndAllowsDuplicates) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kNone;
  q.k = 3;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ(result->entry(0), TopKEntry("b", 50));
  EXPECT_EQ(result->entry(1), TopKEntry("d", 40));
  EXPECT_EQ(result->entry(2), TopKEntry("a", 30));
}

TEST(ExecutorTest, TwoColumnExpressions) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Add(2, 3);
  q.agg = AggFn::kSum;
  q.k = 1;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  // b: (20+3) + (50+4) = 77.
  EXPECT_EQ(result->entry(0), TopKEntry("b", 77));
}

TEST(ExecutorTest, TieBreakByEntityNameAscending) {
  Table t(TestSchema());
  for (const char* e : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(t.AppendRow({Value::String(e), Value::String("CA"),
                             Value::Int64(7), Value::Double(1.0)})
                    .ok());
  }
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.k = 3;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entry(0).entity, "alpha");
  EXPECT_EQ(result->entry(1).entity, "mid");
  EXPECT_EQ(result->entry(2).entity, "zeta");
}

// A NaN score ranks last in both directions (RanksBefore). Twenty
// groups take std::sort and std::partial_sort past their 16-element
// insertion-sort cutoff, where a comparator that leaves NaN unordered
// against every number misplaces the NaN group.
TEST(ExecutorTest, NanGroupRanksLastInBothDirections) {
  constexpr int kGroups = 20;
  Table t(TestSchema());
  for (int g = 0; g < kGroups; ++g) {
    // g00 sums to NaN; the others to the distinct values 1..19, in
    // shuffled row order.
    const double w = g == 0 ? std::numeric_limits<double>::quiet_NaN()
                            : static_cast<double>(g * 7 % kGroups);
    const std::string name = std::string(g < 10 ? "g0" : "g") +
                             std::to_string(g);
    ASSERT_TRUE(t.AppendRow({Value::String(name), Value::String("CA"),
                             Value::Int64(g), Value::Double(w)})
                    .ok());
  }
  Executor ex;
  for (SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
    for (int k : {kGroups, kGroups - 1, 5}) {
      TopKQuery q;
      q.expr = RankExpr::Column(3);
      q.agg = AggFn::kSum;
      q.order = order;
      q.k = k;
      auto result = ex.Execute(t, q, ExecContext{});
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->size(), static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) {
        const TopKEntry& entry = result->entry(static_cast<size_t>(i));
        const std::string where = std::string(order == SortOrder::kDesc
                                                  ? "DESC"
                                                  : "ASC") +
                                  " k=" + std::to_string(k) +
                                  " rank " + std::to_string(i);
        if (i == kGroups - 1) {
          EXPECT_EQ(entry.entity, "g00") << where;
          EXPECT_TRUE(std::isnan(entry.value)) << where;
        } else {
          const double want = order == SortOrder::kDesc ? kGroups - 1 - i
                                                        : i + 1;
          EXPECT_EQ(entry.value, want) << where;
        }
      }
    }
  }
}

// max and min skip NaN rows, but a group whose rows are all NaN has
// max and min NaN (AggState::Finish), never the -inf/+inf seeds that no
// row holds; NaN then ranks last in both directions.
TEST(ExecutorTest, AllNanGroupMaxAndMinAreNan) {
  Table t(TestSchema());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [e, w] : {std::pair<const char*, double>{"A", nan},
                             {"A", nan},
                             {"B", 1.0},
                             {"C", 2.0}}) {
    ASSERT_TRUE(t.AppendRow({Value::String(e), Value::String("CA"),
                             Value::Int64(0), Value::Double(w)})
                    .ok());
  }
  Executor ex;
  for (AggFn agg : {AggFn::kMax, AggFn::kMin}) {
    for (SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
      TopKQuery q;
      q.expr = RankExpr::Column(3);
      q.agg = agg;
      q.order = order;
      q.k = 3;
      auto result = ex.Execute(t, q, ExecContext{});
      ASSERT_TRUE(result.ok());
      const std::string where = std::string(AggFnToString(agg)) +
                                (order == SortOrder::kDesc ? " DESC" : " ASC");
      ASSERT_EQ(result->size(), 3u) << where;
      const bool desc = order == SortOrder::kDesc;
      EXPECT_EQ(result->entry(0), TopKEntry(desc ? "C" : "B", desc ? 2 : 1))
          << where;
      EXPECT_EQ(result->entry(1), TopKEntry(desc ? "B" : "C", desc ? 1 : 2))
          << where;
      EXPECT_EQ(result->entry(2).entity, "A") << where;
      EXPECT_TRUE(std::isnan(result->entry(2).value)) << where;
    }
  }
}

TEST(ExecutorTest, EmptyResultWhenPredicateMatchesNothing) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("ZZ"));
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.k = 5;
  auto result = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(ExecutorTest, ValidationErrors) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(1);  // string column as ranking criterion
  q.agg = AggFn::kMax;
  q.k = 5;
  EXPECT_TRUE(ex.Execute(t, q, ExecContext{}).status().IsTypeError());

  q.expr = RankExpr::Column(99);
  EXPECT_TRUE(ex.Execute(t, q, ExecContext{}).status().IsInvalidArgument());

  q.expr = RankExpr::Column(2);
  q.k = 0;
  EXPECT_TRUE(ex.Execute(t, q, ExecContext{}).status().IsInvalidArgument());
}

TEST(ExecutorTest, StatsCountExecutionsAndRows) {
  Table t = TestTable();
  Executor ex;
  TopKQuery q;
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kMax;
  q.k = 1;
  ASSERT_TRUE(ex.Execute(t, q, ExecContext{}).ok());
  ASSERT_TRUE(ex.Execute(t, q, ExecContext{}).ok());
  EXPECT_EQ(ex.stats().queries_executed, 2);
  EXPECT_EQ(ex.stats().rows_scanned, 14);
  ex.ResetStats();
  EXPECT_EQ(ex.stats().queries_executed, 0);
}

TEST(ExecutorTest, CountMatching) {
  Table t = TestTable();
  Executor ex;
  EXPECT_EQ(ex.CountMatching(t, Predicate::Atom(1, Value::String("CA")), ExecContext{}),
            5u);
  EXPECT_EQ(ex.CountMatching(t, Predicate(), ExecContext{}), 7u);
  EXPECT_EQ(ex.CountMatching(t, Predicate::Atom(1, Value::String("ZZ")), ExecContext{}),
            0u);
}

// ---- Property tests against the naive oracle ----

struct CrossCheckParams {
  uint64_t seed;
  AggFn agg;
};

std::string CrossCheckAggName(AggFn agg) {
  const std::string name = AggFnToString(agg);
  return name.empty() ? "none" : name;
}

// Without a PrintTo, gtest prints the parameter as its raw bytes,
// padding included, so the listed names would differ between builds.
void PrintTo(const CrossCheckParams& params, std::ostream* os) {
  *os << "{" << params.seed << ", " << CrossCheckAggName(params.agg) << "}";
}

class ExecutorCrossCheckTest
    : public ::testing::TestWithParam<CrossCheckParams> {};

TEST_P(ExecutorCrossCheckTest, MatchesNaiveEvaluator) {
  const CrossCheckParams params = GetParam();
  TrafficGenOptions gen_options;
  gen_options.num_customers = 120;
  gen_options.months_per_customer = 5;
  gen_options.seed = params.seed;
  auto table = TrafficGen::Generate(gen_options);
  ASSERT_TRUE(table.ok());

  Executor ex;
  Rng rng(params.seed * 31 + 7);
  const Schema& schema = table->schema();
  for (int trial = 0; trial < 25; ++trial) {
    TopKQuery q;
    q.agg = params.agg;
    q.k = 1 + static_cast<int>(rng.Uniform(20));
    q.order = rng.Bernoulli(0.2) ? SortOrder::kAsc : SortOrder::kDesc;
    // Random predicate of size 0..2 anchored on a random row.
    int pred_size = static_cast<int>(rng.Uniform(3));
    RowId anchor = static_cast<RowId>(
        rng.Uniform(static_cast<uint64_t>(table->num_rows())));
    std::vector<AtomicPredicate> atoms;
    const auto& dims = schema.dimension_indices();
    for (int i = 0; i < pred_size && i < static_cast<int>(dims.size());
         ++i) {
      int col = dims[static_cast<size_t>(
          rng.Uniform(static_cast<uint64_t>(dims.size())))];
      bool duplicate = false;
      for (const auto& a : atoms) duplicate |= (a.column == col);
      if (duplicate) continue;
      atoms.emplace_back(col, table->GetValue(anchor, col));
    }
    q.predicate = Predicate(std::move(atoms));
    // Random ranking expression.
    const auto& measures = schema.measure_indices();
    int a = measures[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(measures.size())))];
    int b = measures[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(measures.size())))];
    switch (rng.Uniform(3)) {
      case 0:
        q.expr = RankExpr::Column(a);
        break;
      case 1:
        q.expr = a == b ? RankExpr::Column(a) : RankExpr::Add(a, b);
        break;
      default:
        q.expr = a == b ? RankExpr::Column(a) : RankExpr::Mul(a, b);
        break;
    }

    auto fast = ex.Execute(*table, q, ExecContext{});
    ASSERT_TRUE(fast.ok());
    TopKList slow = oracle::NaiveExecute(*table, q);
    EXPECT_EQ(oracle::BitwiseDiff(*fast, slow), "")
        << "trial " << trial << "\nquery: " << q.ToSql(schema)
        << "\nfast:\n"
        << fast->ToString() << "\nslow:\n"
        << slow.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, ExecutorCrossCheckTest,
    ::testing::Values(CrossCheckParams{11, AggFn::kMax},
                      CrossCheckParams{12, AggFn::kMin},
                      CrossCheckParams{13, AggFn::kSum},
                      CrossCheckParams{14, AggFn::kAvg},
                      CrossCheckParams{15, AggFn::kCount},
                      CrossCheckParams{16, AggFn::kNone}),
    [](const ::testing::TestParamInfo<CrossCheckParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             CrossCheckAggName(info.param.agg);
    });

}  // namespace
}  // namespace paleo
