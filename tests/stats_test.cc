// Tests for column statistics, top-entity lists, and the catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>

#include "datagen/traffic_gen.h"
#include "stats/catalog.h"
#include "stats/column_stats.h"
#include "stats/top_entities.h"

namespace paleo {
namespace {

TEST(ColumnStatsTest, Int64Stats) {
  Column col(DataType::kInt64);
  for (int64_t v : {5, -3, 5, 10, 0}) col.AppendInt64(v);
  ColumnStats s = ColumnStats::Build(col);
  EXPECT_EQ(s.row_count, 5);
  EXPECT_EQ(s.min, -3.0);
  EXPECT_EQ(s.max, 10.0);
  EXPECT_EQ(s.distinct_count, 4);
}

TEST(ColumnStatsTest, DoubleStats) {
  Column col(DataType::kDouble);
  for (double v : {1.5, 1.5, 2.5}) col.AppendDouble(v);
  ColumnStats s = ColumnStats::Build(col);
  EXPECT_EQ(s.min, 1.5);
  EXPECT_EQ(s.max, 2.5);
  EXPECT_EQ(s.distinct_count, 2);
}

TEST(ColumnStatsTest, StringDistinctCountsUsedCodesOnly) {
  Column base(DataType::kString);
  for (const char* s : {"a", "b", "c", "a"}) base.AppendString(s);
  ColumnStats s1 = ColumnStats::Build(base);
  EXPECT_EQ(s1.distinct_count, 3);
  // A gathered subset shares the 3-entry dictionary but uses 1 code.
  Column subset = base.Gather({0, 3});
  ColumnStats s2 = ColumnStats::Build(subset);
  EXPECT_EQ(s2.distinct_count, 1);
}

TEST(ColumnStatsTest, EmptyColumn) {
  Column col(DataType::kInt64);
  ColumnStats s = ColumnStats::Build(col);
  EXPECT_EQ(s.row_count, 0);
  EXPECT_EQ(s.distinct_count, 0);
}

// Outside dimension columns a distinct count is exact below the cap
// and saturates at it, for every key space.
TEST(ColumnStatsTest, DistinctCountSaturatesAtCap) {
  const int64_t cap = ColumnStats::kDistinctCap;
  for (int64_t distinct : {cap - 1, cap, cap + 1}) {
    SCOPED_TRACE(distinct);
    Column ints(DataType::kInt64);
    Column doubles(DataType::kDouble);
    Column strings(DataType::kString);
    // Two passes over the values, so every key repeats.
    for (int pass = 0; pass < 2; ++pass) {
      for (int64_t i = 0; i < distinct; ++i) {
        ints.AppendInt64(i * 7 - 3000);
        doubles.AppendDouble(0.25 * static_cast<double>(i));
        strings.AppendString("s" + std::to_string(i));
      }
    }
    const int64_t want = std::min(distinct, cap);
    ColumnStats si = ColumnStats::Build(ints);
    EXPECT_EQ(si.distinct_count, want);
    EXPECT_EQ(si.row_count, 2 * distinct);
    EXPECT_EQ(si.min, -3000.0);
    EXPECT_EQ(si.max, static_cast<double>((distinct - 1) * 7 - 3000));
    ColumnStats sd = ColumnStats::Build(doubles);
    EXPECT_EQ(sd.distinct_count, want);
    EXPECT_EQ(sd.max, 0.25 * static_cast<double>(distinct - 1));
    EXPECT_EQ(ColumnStats::Build(strings).distinct_count, want);
  }
}

// Extend folds appended rows into the same statistics Build computes,
// and a column that saturates drops its keys.
TEST(ColumnStatsTest, ExtendMatchesBuildAcrossTheCap) {
  Column col(DataType::kDouble);
  for (int i = 0; i < 1020; ++i) col.AppendDouble(static_cast<double>(i));
  ColumnStats s;
  std::unordered_set<uint64_t> keys;
  s.Extend(col, &keys);
  EXPECT_EQ(s.distinct_count, 1020);
  EXPECT_EQ(keys.size(), 1020u);
  // Repeats, then -0.0 next to the 0.0 already held: a new bit pattern.
  col.AppendDouble(5.0);
  col.AppendDouble(-0.0);
  s.Extend(col, &keys);
  EXPECT_EQ(s.distinct_count, 1021);
  EXPECT_EQ(s.distinct_count, ColumnStats::Build(col).distinct_count);
  for (int i = 0; i < 10; ++i) col.AppendDouble(-1.0 - i);
  s.Extend(col, &keys);
  const ColumnStats full = ColumnStats::Build(col);
  EXPECT_EQ(s.distinct_count, ColumnStats::kDistinctCap);
  EXPECT_EQ(full.distinct_count, ColumnStats::kDistinctCap);
  EXPECT_TRUE(keys.empty());
  EXPECT_EQ(s.min, full.min);
  EXPECT_EQ(s.max, full.max);
  EXPECT_EQ(s.row_count, full.row_count);
}

// Min and max span the numbers: a NaN in the first row (or any row)
// neither sets nor stops them, in one pass or folded row by row.
TEST(ColumnStatsTest, MinMaxSkipNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column col(DataType::kDouble);
  col.AppendDouble(nan);
  ColumnStats grown;
  std::unordered_set<uint64_t> keys;
  grown.Extend(col, &keys);
  EXPECT_TRUE(std::isnan(grown.min));  // no number yet
  EXPECT_TRUE(std::isnan(grown.max));
  for (int i = 1; i <= 100; ++i) {
    col.AppendDouble(i);
    if (i == 50) col.AppendDouble(nan);
    if (i % 30 == 0) grown.Extend(col, &keys);
  }
  grown.Extend(col, &keys);
  const ColumnStats full = ColumnStats::Build(col);
  EXPECT_EQ(full.min, 1.0);
  EXPECT_EQ(full.max, 100.0);
  EXPECT_EQ(grown.min, 1.0);
  EXPECT_EQ(grown.max, 100.0);
  EXPECT_EQ(grown.row_count, full.row_count);
  EXPECT_EQ(grown.distinct_count, full.distinct_count);
}

// The catalog's measure statistics over {NaN, 1..100}: min 1, max 100
// and 100 binned rows, built at once or ingested in batches.
TEST(StatsCatalogTest, MeasureWithLeadingNanKeepsItsRange) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"x", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  auto append = [&](int i, double x) {
    ASSERT_TRUE(table
                    .AppendRow({Value::String("e" + std::to_string(i % 7)),
                                Value::Double(x)})
                    .ok());
  };
  append(0, std::numeric_limits<double>::quiet_NaN());
  append(1, 1.0);
  append(100, 100.0);
  StatsCatalog grown = StatsCatalog::Build(table);
  for (int i = 2; i <= 99; ++i) append(i, i);
  auto extended = StatsCatalog::BuildIncremental(grown, table);
  ASSERT_TRUE(extended.ok());
  const StatsCatalog full = StatsCatalog::Build(table);
  const StatsCatalog* built[] = {&full, &*extended};
  for (const StatsCatalog* catalog : built) {
    const ColumnStats& stats = catalog->column_stats(1);
    EXPECT_EQ(stats.min, 1.0);
    EXPECT_EQ(stats.max, 100.0);
    const Histogram& hist = catalog->histogram(1);
    EXPECT_EQ(hist.min(), 1.0);
    EXPECT_EQ(hist.max(), 100.0);
    EXPECT_EQ(hist.total_count(), 100);
    int64_t binned = 0;
    for (int c = 0; c < hist.num_cells(); ++c) binned += hist.cell_count(c);
    EXPECT_EQ(binned, 100);
  }
  for (int c = 0; c < full.histogram(1).num_cells(); ++c) {
    EXPECT_EQ(extended->histogram(1).cell_count(c),
              full.histogram(1).cell_count(c))
        << c;
  }
}

Table RankedTable() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  // Entity maxima: a=90 (rows 10,90), b=50, c=70, d=20.
  struct Row {
    const char* e;
    int64_t v;
  };
  for (const Row& r : std::initializer_list<Row>{
           {"a", 10}, {"a", 90}, {"b", 50}, {"c", 70}, {"d", 20}}) {
    EXPECT_TRUE(t.AppendRow({Value::String(r.e), Value::Int64(r.v)}).ok());
  }
  return t;
}

TEST(TopEntityListTest, RanksByPerEntityMax) {
  Table t = RankedTable();
  TopEntityList top = TopEntityList::Build(t, 1, 10);
  ASSERT_EQ(top.size(), 4u);
  const StringDictionary& dict = *t.entity_column().dict();
  EXPECT_EQ(dict.Get(top.entity_codes()[0]), "a");
  EXPECT_EQ(dict.Get(top.entity_codes()[1]), "c");
  EXPECT_EQ(dict.Get(top.entity_codes()[2]), "b");
  EXPECT_EQ(dict.Get(top.entity_codes()[3]), "d");
  EXPECT_EQ(top.values(), (std::vector<double>{90, 70, 50, 20}));
}

TEST(TopEntityListTest, TruncatesToTopN) {
  Table t = RankedTable();
  TopEntityList top = TopEntityList::Build(t, 1, 2);
  ASSERT_EQ(top.size(), 2u);
  const StringDictionary& dict = *t.entity_column().dict();
  EXPECT_EQ(dict.Get(top.entity_codes()[0]), "a");
  EXPECT_EQ(dict.Get(top.entity_codes()[1]), "c");
  EXPECT_TRUE(top.ContainsEntity(top.entity_codes()[0]));
}

TEST(TopEntityListTest, CountIntersection) {
  Table t = RankedTable();
  TopEntityList top = TopEntityList::Build(t, 1, 2);  // {a, c}
  const StringDictionary& dict = *t.entity_column().dict();
  uint32_t a = dict.Lookup("a"), b = dict.Lookup("b"), c = dict.Lookup("c");
  EXPECT_EQ(top.CountIntersection({a, b, c}), 2);
  EXPECT_EQ(top.CountIntersection({b}), 0);
  EXPECT_EQ(top.CountIntersection({}), 0);
}

TEST(StatsCatalogTest, BuildsPerColumnStructures) {
  TrafficGenOptions options;
  options.num_customers = 50;
  auto table = TrafficGen::Generate(options);
  ASSERT_TRUE(table.ok());
  CatalogOptions catalog_options;
  catalog_options.histogram_cells = 100;
  catalog_options.top_entities = 25;
  StatsCatalog catalog = StatsCatalog::Build(*table, catalog_options);

  const Schema& schema = table->schema();
  EXPECT_EQ(catalog.table_rows(),
            static_cast<int64_t>(table->num_rows()));
  for (int m : schema.measure_indices()) {
    EXPECT_EQ(catalog.histogram(m).total_count(),
              static_cast<int64_t>(table->num_rows()));
    EXPECT_EQ(catalog.histogram(m).num_cells(), 100);
    EXPECT_LE(catalog.top_entities(m).size(), 25u);
    EXPECT_GT(catalog.top_entities(m).size(), 0u);
    EXPECT_GE(catalog.column_stats(m).max, catalog.column_stats(m).min);
  }
  // Non-measure columns get stats but no histograms/top lists.
  for (int d : schema.dimension_indices()) {
    EXPECT_GT(catalog.column_stats(d).distinct_count, 0);
    EXPECT_EQ(catalog.histogram(d).total_count(), 0);
    EXPECT_EQ(catalog.top_entities(d).size(), 0u);
  }
}

TEST(StatsCatalogTest, ValueCountsMatchData) {
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
  };
  for (const Row& r : std::initializer_list<Row>{{"a", "CA", 2020},
                                                 {"b", "CA", 2021},
                                                 {"c", "NY", 2020},
                                                 {"d", "CA", 2020}}) {
    ASSERT_TRUE(t.AppendRow({Value::String(r.e), Value::String(r.state),
                             Value::Int64(r.year), Value::Int64(1)})
                    .ok());
  }
  StatsCatalog catalog = StatsCatalog::Build(t);
  int state = schema->FieldIndex("state");
  int year = schema->FieldIndex("year");
  EXPECT_EQ(catalog.ValueCount(state, Value::String("CA")), 3);
  EXPECT_EQ(catalog.ValueCount(state, Value::String("NY")), 1);
  EXPECT_EQ(catalog.ValueCount(state, Value::String("TX")), 0);
  EXPECT_EQ(catalog.ValueCount(year, Value::Int64(2020)), 3);
  EXPECT_EQ(catalog.ValueCount(year, Value::Int64(1999)), 0);
  // Measure columns have no value counts.
  EXPECT_EQ(catalog.ValueCount(schema->FieldIndex("v"), Value::Int64(1)),
            0);
}

// Dimension columns are counted exactly past the cap, per bit pattern;
// other columns saturate.
TEST(StatsCatalogTest, DimensionCountsAreExactPastTheCap) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"city", DataType::kString, FieldRole::kDimension},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"k", DataType::kInt64, FieldRole::kKey},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table t(*schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {-0.0, 0.0, nan};
  for (int i = 0; i < 3000; ++i) {
    const double d = i < 6 ? specials[i % 3] : static_cast<double>(i % 1500);
    ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(i % 40)),
                             Value::String("c" + std::to_string(i % 1300)),
                             Value::Double(d), Value::Int64(i),
                             Value::Int64(i % 1100)})
                    .ok());
  }
  StatsCatalog catalog = StatsCatalog::Build(t);
  const int city = schema->FieldIndex("city");
  const int d = schema->FieldIndex("d");
  EXPECT_EQ(catalog.column_stats(city).distinct_count, 1300);
  EXPECT_EQ(catalog.value_counts(city).size(), 1300u);
  EXPECT_EQ(catalog.ValueCount(city, Value::String("c7")), 3);
  EXPECT_EQ(catalog.ValueCount(city, Value::String("c1299")), 2);
  // d: -0.0, 0.0 and NaN are three keys, next to 1.0 .. 1499.0 (0.0
  // also comes from i = 1500).
  EXPECT_EQ(catalog.column_stats(d).distinct_count, 1502);
  EXPECT_EQ(catalog.ValueCount(d, Value::Double(-0.0)), 2);
  EXPECT_EQ(catalog.ValueCount(d, Value::Double(0.0)), 3);
  EXPECT_EQ(catalog.ValueCount(d, Value::Double(7.0)), 2);
  // A NaN equals no row, so it reads 0, although its key is counted.
  EXPECT_EQ(catalog.ValueCount(d, Value::Double(nan)), 0);
  EXPECT_EQ(catalog.value_counts(d).count(Value::Double(nan)), 1u);
  EXPECT_EQ(catalog.value_counts(d).at(Value::Double(nan)), 2);
  EXPECT_EQ(catalog.column_stats(schema->FieldIndex("k")).distinct_count,
            ColumnStats::kDistinctCap);
  EXPECT_EQ(catalog.column_stats(schema->FieldIndex("v")).distinct_count,
            ColumnStats::kDistinctCap);
  EXPECT_EQ(catalog.column_stats(schema->FieldIndex("e")).distinct_count, 40);
  EXPECT_TRUE(catalog.value_counts(schema->FieldIndex("v")).empty());
}

TEST(StatsCatalogTest, PredicateSelectivityMultipliesFrequencies) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"plan", DataType::kString, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  // 4 rows: CA appears 2/4, XL appears 1/4.
  const char* states[] = {"CA", "CA", "NY", "TX"};
  const char* plans[] = {"XL", "M", "M", "S"};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(i)),
                             Value::String(states[i]),
                             Value::String(plans[i]), Value::Int64(i)})
                    .ok());
  }
  StatsCatalog catalog = StatsCatalog::Build(t);
  int state = schema->FieldIndex("state");
  int plan = schema->FieldIndex("plan");
  EXPECT_DOUBLE_EQ(catalog.PredicateSelectivity(Predicate()), 1.0);
  EXPECT_DOUBLE_EQ(catalog.PredicateSelectivity(
                       Predicate::Atom(state, Value::String("CA"))),
                   0.5);
  Predicate both({{state, Value::String("CA")},
                  {plan, Value::String("XL")}});
  EXPECT_DOUBLE_EQ(catalog.PredicateSelectivity(both), 0.5 * 0.25);
  // Unknown values drive the estimate to zero.
  EXPECT_DOUBLE_EQ(catalog.PredicateSelectivity(
                       Predicate::Atom(state, Value::String("ZZ"))),
                   0.0);
}

}  // namespace
}  // namespace paleo
