// Tests for the secondary dimension indexes and the executor's
// index-assisted path. The central property: with and without the
// index, every query produces the identical result.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/random.h"
#include "datagen/tpch_gen.h"
#include "datagen/traffic_gen.h"
#include "engine/executor.h"
#include "index/dimension_index.h"
#include "oracle/naive_executor.h"

namespace paleo {
namespace {

Table SmallTable() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"year", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  struct Row {
    const char* e;
    const char* state;
    int64_t year;
    int64_t v;
  };
  const Row rows[] = {
      {"a", "CA", 2020, 1}, {"b", "CA", 2021, 2}, {"c", "NY", 2020, 3},
      {"d", "CA", 2020, 4}, {"e", "TX", 2021, 5},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::String(r.e), Value::String(r.state),
                             Value::Int64(r.year), Value::Int64(r.v)})
                    .ok());
  }
  return t;
}

TEST(DimensionIndexTest, LookupPostings) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  EXPECT_EQ(index.Lookup(1, Value::String("CA")),
            (std::vector<RowId>{0, 1, 3}));
  EXPECT_EQ(index.Lookup(2, Value::Int64(2020)),
            (std::vector<RowId>{0, 2, 3}));
  EXPECT_TRUE(index.Lookup(1, Value::String("ZZ")).empty());
  // Type mismatch: string constant against the int column.
  EXPECT_TRUE(index.Lookup(2, Value::String("2020")).empty());
  // Measure and entity columns are not indexed.
  EXPECT_TRUE(index.Lookup(3, Value::Int64(1)).empty());
  EXPECT_TRUE(index.Lookup(0, Value::String("a")).empty());
}

TEST(DimensionIndexTest, CoversChecksColumns) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  EXPECT_TRUE(index.Covers(Predicate::Atom(1, Value::String("CA"))));
  EXPECT_TRUE(index.Covers(Predicate(
      {{1, Value::String("CA")}, {2, Value::Int64(2020)}})));
  // Measure column in the predicate: not covered.
  EXPECT_FALSE(index.Covers(Predicate::Atom(3, Value::Int64(1))));
  EXPECT_TRUE(index.Covers(Predicate()));  // vacuous
}

TEST(DimensionIndexTest, MatchIntersectsPostings) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  Predicate p({{1, Value::String("CA")}, {2, Value::Int64(2020)}});
  EXPECT_EQ(index.Match(p), (std::vector<RowId>{0, 3}));
  Predicate none({{1, Value::String("NY")}, {2, Value::Int64(2021)}});
  EXPECT_TRUE(index.Match(none).empty());
  Predicate unknown_value({{1, Value::String("ZZ")}});
  EXPECT_TRUE(index.Match(unknown_value).empty());
}

TEST(DimensionIndexTest, MatchAgreesWithScan) {
  TrafficGenOptions gen;
  gen.num_customers = 100;
  gen.months_per_customer = 6;
  auto table = TrafficGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  DimensionIndex index = DimensionIndex::Build(*table);
  Executor scan_executor;
  Rng rng(21);
  const Schema& schema = table->schema();
  const auto& dims = schema.dimension_indices();
  for (int trial = 0; trial < 40; ++trial) {
    RowId anchor = static_cast<RowId>(
        rng.Uniform(static_cast<uint64_t>(table->num_rows())));
    int n_atoms = 1 + static_cast<int>(rng.Uniform(3));
    std::vector<AtomicPredicate> atoms;
    std::vector<uint32_t> cols = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(dims.size()),
        std::min<uint32_t>(static_cast<uint32_t>(n_atoms),
                           static_cast<uint32_t>(dims.size())));
    for (uint32_t ci : cols) {
      atoms.emplace_back(dims[ci], table->GetValue(anchor, dims[ci]));
    }
    Predicate p(std::move(atoms));
    ASSERT_TRUE(index.Covers(p));
    std::vector<RowId> via_index = index.Match(p);
    EXPECT_EQ(via_index.size(), scan_executor.CountMatching(*table, p, ExecContext{}));
    for (RowId r : via_index) {
      EXPECT_TRUE(p.Matches(*table, r));
    }
  }
}

TEST(ExecutorIndexTest, IndexAssistedResultsIdenticalToScan) {
  TpchGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  DimensionIndex index = DimensionIndex::Build(*table);

  Executor with_index, without_index;
  with_index.SetDimensionIndex(&index, &*table);

  Rng rng(77);
  const Schema& schema = table->schema();
  const auto& dims = schema.dimension_indices();
  const auto& measures = schema.measure_indices();
  int assisted_before = 0;
  for (int trial = 0; trial < 30; ++trial) {
    TopKQuery q;
    RowId anchor = static_cast<RowId>(
        rng.Uniform(static_cast<uint64_t>(table->num_rows())));
    int col = dims[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(dims.size())))];
    q.predicate = Predicate::Atom(col, table->GetValue(anchor, col));
    q.expr = RankExpr::Column(measures[static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(measures.size())))]);
    q.agg = static_cast<AggFn>(rng.Uniform(5));
    q.k = 1 + static_cast<int>(rng.Uniform(20));
    auto fast = with_index.Execute(*table, q, ExecContext{});
    auto slow = without_index.Execute(*table, q, ExecContext{});
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_TRUE(fast->InstanceEquals(*slow))
        << q.ToSql(schema) << "\nindex:\n"
        << fast->ToString() << "scan:\n"
        << slow->ToString();
  }
  EXPECT_GT(with_index.stats().index_assisted, assisted_before);
  EXPECT_EQ(without_index.stats().index_assisted, 0);
  // The index path scans far fewer rows.
  EXPECT_LT(with_index.stats().rows_scanned,
            without_index.stats().rows_scanned / 2);
}

// Sums whose value depends on the order of their terms: the postings
// must fold per chunk in ascending chunk order, exactly as the scan
// does, not in one row-order pass over the whole table.
TEST(ExecutorIndexTest, IndexAssistedSumsFoldPerChunkLikeTheScan) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table t(*schema, /*chunk_rows=*/64);
  Rng rng(640);
  for (int r = 0; r < 640; ++r) {
    const double w = rng.Bernoulli(0.5) ? 1e8 * rng.UniformDouble(1.0, 2.0)
                                        : 1e-3 * rng.UniformDouble(1.0, 2.0);
    ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(r % 5)),
                             Value::String("CA"), Value::Double(w)})
                    .ok());
  }
  ASSERT_EQ(t.num_chunks(), 10u);
  DimensionIndex index = DimensionIndex::Build(t);
  Executor with_index, without_index;
  with_index.SetDimensionIndex(&index, &t);
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("CA"));
  q.expr = RankExpr::Column(2);
  q.agg = AggFn::kSum;
  q.k = 5;
  auto fast = with_index.Execute(t, q, ExecContext{});
  auto slow = without_index.Execute(t, q, ExecContext{});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(with_index.stats().index_assisted, 1);
  EXPECT_TRUE(*fast == *slow) << "index:\n"
                              << fast->ToString() << "scan:\n"
                              << slow->ToString();
}

TEST(ExecutorIndexTest, IndexOnlyUsedForMatchingTable) {
  Table a = SmallTable();
  Table b = SmallTable();
  DimensionIndex index = DimensionIndex::Build(a);
  Executor ex;
  ex.SetDimensionIndex(&index, &a);
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("CA"));
  q.expr = RankExpr::Column(3);
  q.agg = AggFn::kMax;
  q.k = 10;
  ASSERT_TRUE(ex.Execute(a, q, ExecContext{}).ok());
  EXPECT_EQ(ex.stats().index_assisted, 1);
  // Executing against a different table must fall back to scanning.
  ASSERT_TRUE(ex.Execute(b, q, ExecContext{}).ok());
  EXPECT_EQ(ex.stats().index_assisted, 1);
}

TEST(ExecutorIndexTest, CountMatchingUsesIndex) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  Executor ex;
  ex.SetDimensionIndex(&index, &t);
  EXPECT_EQ(ex.CountMatching(t, Predicate::Atom(1, Value::String("CA")), ExecContext{}),
            3u);
  EXPECT_EQ(ex.CountMatching(t, Predicate(), ExecContext{}), 5u);  // TRUE: scan path
}

// A DOUBLE dimension compares with IEEE ==, as the scan does: -0.0
// equals 0.0, and NaN equals nothing, itself included. Postings keyed
// by raw bits would split the zeros and match NaN.
TEST(ExecutorIndexTest, DoubleKeysFollowIeeeEquality) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table t(*schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(t.AppendRow({Value::String("A"), Value::Double(-0.0),
                           Value::Int64(1)})
                  .ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("B"), Value::Double(0.0), Value::Int64(2)})
          .ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("C"), Value::Double(nan), Value::Int64(3)})
          .ok());
  DimensionIndex index = DimensionIndex::Build(t);
  Executor indexed;
  indexed.SetDimensionIndex(&index, &t);
  Executor scan;

  struct Case {
    double d;
    std::vector<RowId> rows;
  };
  for (const Case& c : {Case{0.0, {0, 1}}, Case{-0.0, {0, 1}},
                        Case{nan, {}}}) {
    const Predicate p = Predicate::Atom(1, Value::Double(c.d));
    SCOPED_TRACE(p.ToSql(t.schema()));
    EXPECT_EQ(index.Lookup(1, Value::Double(c.d)), c.rows);
    TopKQuery q;
    q.predicate = p;
    q.expr = RankExpr::Column(2);
    q.agg = AggFn::kSum;
    q.k = 3;
    const TopKList want = oracle::NaiveExecute(t, q);
    ASSERT_EQ(want.size(), c.rows.size());
    auto got = indexed.Execute(t, q, ExecContext{});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(oracle::BitwiseDiff(*got, want), "");
    auto scanned = scan.Execute(t, q, ExecContext{});
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(oracle::BitwiseDiff(*scanned, want), "");
    EXPECT_EQ(indexed.CountMatching(t, p, ExecContext{}), c.rows.size());
    EXPECT_EQ(oracle::NaiveCountMatching(t, p), c.rows.size());
  }
  // The zero lookups were answered from postings, not by a scan.
  EXPECT_GE(indexed.stats().index_assisted, 2);
}

TEST(DimensionIndexTest, MemoryUsageIsPositive) {
  Table t = SmallTable();
  DimensionIndex index = DimensionIndex::Build(t);
  EXPECT_GT(index.MemoryUsage(), 0u);
}

}  // namespace
}  // namespace paleo
