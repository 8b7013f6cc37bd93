// Tests for the range-predicate extension (BETWEEN atoms): predicate
// semantics, the tightest-covering-interval miner, SQL round trips,
// and end-to-end recovery of a hidden range query.

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/sql_parser.h"
#include "paleo/paleo.h"
#include "paleo/predicate_miner.h"

namespace paleo {
namespace {

Schema RangeSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"state", DataType::kString, FieldRole::kDimension},
      {"year", DataType::kInt64, FieldRole::kDimension},
      {"rate", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

Table RangeTable() {
  Table t(RangeSchema());
  struct Row {
    const char* e;
    const char* state;
    int64_t year;
    double rate;
    int64_t v;
  };
  const Row rows[] = {
      {"a", "CA", 1992, 0.1, 10}, {"a", "CA", 1995, 0.3, 20},
      {"b", "CA", 1994, 0.2, 30}, {"b", "NY", 1998, 0.9, 40},
      {"c", "NY", 1995, 0.4, 50}, {"c", "CA", 1993, 0.2, 60},
      {"d", "TX", 1996, 0.5, 70},
  };
  for (const Row& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::String(r.e), Value::String(r.state),
                             Value::Int64(r.year), Value::Double(r.rate),
                             Value::Int64(r.v)})
                    .ok());
  }
  return t;
}

TEST(RangePredicateTest, MatchesInclusiveBounds) {
  Table t = RangeTable();
  Predicate p({AtomicPredicate::Range(2, Value::Int64(1993),
                                      Value::Int64(1995))});
  // Rows with year in [1993, 1995]: indices 1, 2, 4, 5.
  EXPECT_FALSE(p.Matches(t, 0));  // 1992
  EXPECT_TRUE(p.Matches(t, 1));   // 1995 (inclusive upper)
  EXPECT_TRUE(p.Matches(t, 2));   // 1994
  EXPECT_FALSE(p.Matches(t, 3));  // 1998
  EXPECT_TRUE(p.Matches(t, 5));   // 1993 (inclusive lower)

  BoundPredicate bound(p, t);
  for (RowId r = 0; r < 7; ++r) {
    EXPECT_EQ(bound.Matches(r), p.Matches(t, r)) << "row " << r;
  }
}

TEST(RangePredicateTest, DoubleColumnRanges) {
  Table t = RangeTable();
  Predicate p({AtomicPredicate::Range(3, Value::Double(0.2),
                                      Value::Double(0.4))});
  BoundPredicate bound(p, t);
  int matches = 0;
  for (RowId r = 0; r < 7; ++r) {
    EXPECT_EQ(bound.Matches(r), p.Matches(t, r));
    matches += bound.Matches(r);
  }
  EXPECT_EQ(matches, 4);  // rates 0.3, 0.2, 0.4, 0.2
}

TEST(RangePredicateTest, MixedConjunction) {
  Table t = RangeTable();
  Predicate p({AtomicPredicate(1, Value::String("CA")),
               AtomicPredicate::Range(2, Value::Int64(1993),
                                      Value::Int64(1995))});
  BoundPredicate bound(p, t);
  std::vector<RowId> matching;
  for (RowId r = 0; r < 7; ++r) {
    if (bound.Matches(r)) matching.push_back(r);
  }
  EXPECT_EQ(matching, (std::vector<RowId>{1, 2, 5}));
  EXPECT_EQ(p.ToSql(t.schema()),
            "state = 'CA' AND year BETWEEN 1993 AND 1995");
}

TEST(RangePredicateTest, EqualityAndHashDistinguishBounds) {
  AtomicPredicate a =
      AtomicPredicate::Range(2, Value::Int64(1), Value::Int64(5));
  AtomicPredicate b =
      AtomicPredicate::Range(2, Value::Int64(1), Value::Int64(6));
  AtomicPredicate eq(2, Value::Int64(1));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == eq);
  EXPECT_NE(Predicate({a}).Hash(), Predicate({b}).Hash());
  EXPECT_NE(Predicate({a}).Hash(), Predicate({eq}).Hash());
}

TEST(RangePredicateTest, RangeOnStringColumnNeverMatches) {
  Table t = RangeTable();
  Predicate p({AtomicPredicate::Range(1, Value::Int64(0),
                                      Value::Int64(10))});
  BoundPredicate bound(p, t);
  for (RowId r = 0; r < 7; ++r) EXPECT_FALSE(bound.Matches(r));
}

TEST(RangeMinerTest, FindsTightestCoveringInterval) {
  Table t = RangeTable();
  EntityIndex index = EntityIndex::Build(t);
  TopKList list;  // all four entities
  list.Append("a", 1);
  list.Append("b", 2);
  list.Append("c", 3);
  list.Append("d", 4);
  auto rp = RPrime::Build(t, index, list);
  ASSERT_TRUE(rp.ok());

  PaleoOptions options;
  options.mine_range_predicates = true;
  options.include_empty_predicate = false;
  PredicateMiner miner(*rp, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());

  // Years per entity: a{1992,1995} b{1994,1998} c{1995,1993} d{1996}.
  // The tightest interval covering all four is [1994, 1996]
  // (a:1995, b:1994, c:1995, d:1996) with width 2.
  bool found = false;
  for (const MinedPredicate& p : result->predicates) {
    if (p.predicate.size() != 1) continue;
    const AtomicPredicate& atom = p.predicate.atoms()[0];
    if (!atom.is_range() || atom.column != 2) continue;
    found = true;
    EXPECT_EQ(atom.value, Value::Int64(1994));
    EXPECT_EQ(atom.high, Value::Int64(1996));
    EXPECT_EQ(p.covered_entities, 4);
  }
  EXPECT_TRUE(found) << "year range atom not mined";
}

TEST(RangeMinerTest, DisabledByDefault) {
  Table t = RangeTable();
  EntityIndex index = EntityIndex::Build(t);
  TopKList list;
  list.Append("a", 1);
  list.Append("b", 2);
  auto rp = RPrime::Build(t, index, list);
  ASSERT_TRUE(rp.ok());
  PaleoOptions options;  // mine_range_predicates defaults to false
  PredicateMiner miner(*rp, options);
  auto result = miner.Mine();
  ASSERT_TRUE(result.ok());
  for (const MinedPredicate& p : result->predicates) {
    for (const AtomicPredicate& atom : p.predicate.atoms()) {
      EXPECT_FALSE(atom.is_range());
    }
  }
}

TEST(RangeSqlTest, ParseAndRenderRoundTrip) {
  Schema schema = RangeSchema();
  auto q = ParseTopKQuery(
      "SELECT e, max(v) FROM t WHERE state = 'CA' AND year BETWEEN 1993 "
      "AND 1995 GROUP BY e ORDER BY max(v) DESC LIMIT 3",
      schema);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->predicate.size(), 2);
  std::string sql = q->ToSql(schema);
  auto round = ParseTopKQuery(sql, schema);
  ASSERT_TRUE(round.ok()) << sql;
  EXPECT_TRUE(*round == *q);

  // Malformed ranges.
  EXPECT_FALSE(ParseTopKQuery(
                   "SELECT e, max(v) FROM t WHERE year BETWEEN 1995 AND "
                   "1993 GROUP BY e ORDER BY max(v) DESC LIMIT 3",
                   schema)
                   .ok());  // empty range
  EXPECT_FALSE(ParseTopKQuery(
                   "SELECT e, max(v) FROM t WHERE state BETWEEN 'A' AND "
                   "'B' GROUP BY e ORDER BY max(v) DESC LIMIT 3",
                   schema)
                   .ok());  // non-numeric column
}

TEST(RangeE2eTest, RecoversLoadBearingRangeQuery) {
  // The miner's candidate interval is the TIGHTEST one covering the
  // input entities, so a hidden range is recoverable when it is
  // load-bearing (each input entity reaches its list value only inside
  // the range, and the range's endpoints are realized). Build such a
  // scenario deterministically: each entity has exactly one row inside
  // [1994, 1996] (with both endpoints used) carrying its top value,
  // and decoy rows outside the range with even larger values.
  Table t(RangeSchema());
  Rng rng(99);
  const int kEntities = 12;
  for (int e = 0; e < kEntities; ++e) {
    std::string name = "e" + std::to_string(e);
    int64_t in_range_year = 1994 + (e % 3);  // uses 1994, 1995, 1996
    int64_t top = 1000 + e;                  // distinct in-range values
    ASSERT_TRUE(t.AppendRow({Value::String(name), Value::String("CA"),
                             Value::Int64(in_range_year),
                             Value::Double(0.5), Value::Int64(top)})
                    .ok());
    // Decoys outside the range with even larger values: the range is
    // load-bearing for the ranking.
    for (int d = 0; d < 3; ++d) {
      int64_t year = rng.Bernoulli(0.5) ? 1990 + static_cast<int64_t>(
                                                     rng.Uniform(3))
                                        : 1998 + static_cast<int64_t>(
                                                     rng.Uniform(3));
      ASSERT_TRUE(
          t.AppendRow({Value::String(name), Value::String("CA"),
                       Value::Int64(year), Value::Double(0.5),
                       Value::Int64(5000 + rng.UniformInt(0, 100))})
              .ok());
    }
  }

  TopKQuery hidden;
  hidden.predicate = Predicate({AtomicPredicate::Range(
      2, Value::Int64(1994), Value::Int64(1996))});
  hidden.expr = RankExpr::Column(4);
  hidden.agg = AggFn::kMax;
  hidden.k = 10;
  Executor ex;
  auto list = ex.Execute(t, hidden, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 10u);

  PaleoOptions options;
  options.mine_range_predicates = true;
  Paleo paleo(&t, options);
  auto report = paleo.Run({.input = &*list});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  auto regenerated = ex.Execute(t, report->valid[0].query, ExecContext{});
  ASSERT_TRUE(regenerated.ok());
  EXPECT_TRUE(regenerated->InstanceEquals(*list))
      << "hidden:    " << hidden.ToSql(t.schema()) << "\nrecovered: "
      << report->valid[0].query.ToSql(t.schema());
  // The recovered query actually uses a range atom (no equality-only
  // query explains this list: every single-year predicate misses
  // entities).
  bool uses_range = false;
  for (const AtomicPredicate& atom :
       report->valid[0].query.predicate.atoms()) {
    uses_range |= atom.is_range();
  }
  EXPECT_TRUE(uses_range)
      << report->valid[0].query.ToSql(t.schema());
}

}  // namespace
}  // namespace paleo
