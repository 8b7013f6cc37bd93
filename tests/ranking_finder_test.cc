// Tests for ranking criteria identification (Section 5 / Figure 4).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "datagen/traffic_gen.h"
#include "engine/executor.h"
#include "paleo/paleo.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"
#include "stats/catalog.h"

namespace paleo {
namespace {

struct Fixture {
  Table table;
  EntityIndex index;
  StatsCatalog catalog;
  RPrime rprime;
  MiningResult mining;
  PaleoOptions options;

  static Fixture Make(const TopKList& list, PaleoOptions options = {}) {
    auto t = TrafficGen::PaperExample();
    EXPECT_TRUE(t.ok());
    Table table = *std::move(t);
    EntityIndex index = EntityIndex::Build(table);
    StatsCatalog catalog = StatsCatalog::Build(table);
    auto rp = RPrime::Build(table, index, list);
    EXPECT_TRUE(rp.ok());
    RPrime rprime = *std::move(rp);
    PredicateMiner miner(rprime, options);
    auto mining = miner.Mine();
    EXPECT_TRUE(mining.ok());
    return Fixture{std::move(table), std::move(index), std::move(catalog),
                   std::move(rprime), *std::move(mining), options};
  }
};

TopKList PaperList() {
  TopKList l;
  l.Append("Lara Ellis", 784);
  l.Append("Jane O'Neal", 699);
  l.Append("John Smith", 654);
  l.Append("Richard Fox", 596);
  l.Append("Jack Stiles", 586);
  return l;
}

TEST(RankingFinderTest, IdentifiesMaxMinutesExactly) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  RankingSearchInfo info;
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/true, &info);
  ASSERT_TRUE(rankings.ok());

  int minutes = f.table.schema().FieldIndex("minutes");
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      EXPECT_TRUE(c.exact);
      EXPECT_EQ(c.distance, 0.0);
      if (c.agg == AggFn::kMax && c.expr == RankExpr::Column(minutes)) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "max(minutes) not identified";
  // The paper-list values come straight from the minutes column's top
  // entities, so the cheap technique should have carried the day.
  EXPECT_TRUE(info.used_top_entities);
}

// L has more distinct values than a measure's distinct count keeps
// (ColumnStats::kDistinctCap), so the distinct check must not run: the
// saturated count would prune the true criterion.
TEST(RankingFinderTest, DistinctCheckSkipsListsPastTheCap) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"region", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({Value::String("e" + std::to_string(10000 + i)),
                                Value::String(i % 2 == 0 ? "east" : "west"),
                                Value::Double(0.5 * i)})
                    .ok());
  }
  const int x = schema->FieldIndex("x");
  TopKQuery q;
  q.expr = RankExpr::Column(x);
  q.agg = AggFn::kMax;
  q.k = 1100;
  Executor ex;
  auto list = ex.Execute(table, q, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1100u);

  EntityIndex index = EntityIndex::Build(table);
  StatsCatalog catalog = StatsCatalog::Build(table);
  ASSERT_EQ(catalog.column_stats(x).distinct_count,
            ColumnStats::kDistinctCap);
  auto rprime = RPrime::Build(table, index, *list);
  ASSERT_TRUE(rprime.ok());
  PaleoOptions options;
  // No histogram stage: only the stages behind the catalog's checks
  // can find a max criterion.
  options.histogram_keep_fraction = 0.0;
  PredicateMiner miner(*rprime, options);
  auto mining = miner.Mine();
  ASSERT_TRUE(mining.ok());
  RankingFinder finder(*rprime, &catalog, options);
  auto rankings = finder.Find(mining->groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      found |= c.agg == AggFn::kMax && c.expr == RankExpr::Column(x);
    }
  }
  EXPECT_TRUE(found) << "max(x) pruned";
}

TEST(RankingFinderTest, NoCandidatesForUnrelatedValues) {
  // A list whose values match no column aggregation.
  TopKList bogus;
  bogus.Append("Lara Ellis", 123456.0);
  bogus.Append("Jane O'Neal", 123455.0);
  bogus.Append("John Smith", 123454.0);
  bogus.Append("Richard Fox", 123453.0);
  bogus.Append("Jack Stiles", 123452.0);
  Fixture f = Fixture::Make(bogus);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, bogus,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  for (const GroupRanking& gr : *rankings) {
    EXPECT_TRUE(gr.candidates.empty());
  }
}

TEST(RankingFinderTest, SumCriterionIdentified) {
  // Build an input list from a sum(minutes) query.
  auto t = TrafficGen::PaperExample();
  ASSERT_TRUE(t.ok());
  const Schema& schema = t->schema();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                Value::String("CA"));
  q.expr = RankExpr::Column(schema.FieldIndex("minutes"));
  q.agg = AggFn::kSum;
  q.k = 5;
  auto list = ex.Execute(*t, q, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 5u);

  Fixture f = Fixture::Make(*list);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == AggFn::kSum &&
          c.expr == RankExpr::Column(schema.FieldIndex("minutes"))) {
        found = c.exact;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, TwoColumnSumIdentified) {
  auto t = TrafficGen::PaperExample();
  ASSERT_TRUE(t.ok());
  const Schema& schema = t->schema();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                Value::String("CA"));
  q.expr = RankExpr::Add(schema.FieldIndex("minutes"),
                         schema.FieldIndex("sms"));
  q.agg = AggFn::kSum;
  q.k = 5;
  auto list = ex.Execute(*t, q, ExecContext{});
  ASSERT_TRUE(list.ok());

  Fixture f = Fixture::Make(*list);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == AggFn::kSum && c.expr == q.expr) found = c.exact;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, NoAggregationIdentified) {
  auto t = TrafficGen::PaperExample();
  ASSERT_TRUE(t.ok());
  const Schema& schema = t->schema();
  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                Value::String("CA"));
  q.expr = RankExpr::Column(schema.FieldIndex("data_mb"));
  q.agg = AggFn::kNone;
  q.k = 6;
  auto list = ex.Execute(*t, q, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 6u);

  Fixture f = Fixture::Make(*list);
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, *list,
                              /*assume_complete=*/true);
  ASSERT_TRUE(rankings.ok());
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == AggFn::kNone && c.expr == q.expr) found = c.exact;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RankingFinderTest, SampledModeScoresAllCriteria) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/false);
  ASSERT_TRUE(rankings.ok());
  // In sampled mode nothing is filtered: each group carries scored
  // candidates for single columns and pairs.
  for (const GroupRanking& gr : *rankings) {
    EXPECT_GT(gr.candidates.size(), 3u);
    bool some_exact = false;
    for (const RankingCandidate& c : gr.candidates) {
      EXPECT_GE(c.distance, 0.0);
      EXPECT_LE(c.distance, 1.0);
      some_exact |= c.exact;
    }
    // The true criterion (max(minutes)) is present and exact, since
    // this "sample" is actually complete.
    EXPECT_TRUE(some_exact);
  }
}

TEST(RankingFinderTest, ExactCriterionHasSmallestDistance) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/false);
  ASSERT_TRUE(rankings.ok());
  for (const GroupRanking& gr : *rankings) {
    double exact_distance = 1e9, best_distance = 1e9;
    for (const RankingCandidate& c : gr.candidates) {
      best_distance = std::min(best_distance, c.distance);
      if (c.exact) exact_distance = std::min(exact_distance, c.distance);
    }
    EXPECT_EQ(exact_distance, best_distance);
    EXPECT_NEAR(exact_distance, 0.0, 1e-12);
  }
}

TEST(RankingFinderTest, WorksWithoutCatalog) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, nullptr, f.options);
  RankingSearchInfo info;
  auto rankings = finder.Find(f.mining.groups, PaperList(),
                              /*assume_complete=*/true, &info);
  ASSERT_TRUE(rankings.ok());
  EXPECT_FALSE(info.used_top_entities);
  EXPECT_FALSE(info.used_histograms);
  EXPECT_TRUE(info.used_fallback);
  int minutes = f.table.schema().FieldIndex("minutes");
  bool found = false;
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      found |= (c.agg == AggFn::kMax &&
                c.expr == RankExpr::Column(minutes));
    }
  }
  EXPECT_TRUE(found);
}

// Find aligns L's entities with R''s, so a list R' was not built from
// is an error, not an out-of-range read.
TEST(RankingFinderTest, RejectsListWithEntityOutsideRPrime) {
  Fixture f = Fixture::Make(PaperList());
  TopKList other = PaperList();
  other.Append("Nobody", 1.0);
  auto rankings = RankingFinder(f.rprime, &f.catalog, f.options)
                      .Find(f.mining.groups, other, /*assume_complete=*/true);
  ASSERT_FALSE(rankings.ok());
  EXPECT_EQ(rankings.status().code(), StatusCode::kInvalidArgument);
}

TEST(RankingFinderTest, EmptyGroupsYieldEmptyRankings) {
  Fixture f = Fixture::Make(PaperList());
  RankingFinder finder(f.rprime, &f.catalog, f.options);
  auto rankings = finder.Find({}, PaperList(), true);
  ASSERT_TRUE(rankings.ok());
  EXPECT_TRUE(rankings->empty());
}

// A per-entity average takes values its column never holds: here avg(a)
// over a 0/1 column ranks with four distinct values. The distinct-count
// check used to prune `a` for avg as well as max, leaving no candidate.
TEST(RankingFinderTest, AvgNotPrunedByDistinctCount) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"a", DataType::kInt64, FieldRole::kMeasure},
      {"b", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  // Entity i has 4 - i ones among its 4 rows (none for i >= 4); b
  // steps from 0.2 by 0.8 / 24 per row.
  int row = 0;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j, ++row) {
      ASSERT_TRUE(table
                      .AppendRow({Value::String("E" + std::to_string(i)),
                                  Value::String("x"),
                                  Value::Int64(j < 4 - i ? 1 : 0),
                                  Value::Double(0.2 + 0.8 / 24 * row)})
                      .ok());
    }
  }
  TopKQuery hidden;
  hidden.predicate = Predicate({AtomicPredicate(1, Value::String("x"))});
  hidden.expr = RankExpr::Column(2);
  hidden.agg = AggFn::kAvg;
  hidden.k = 4;
  Executor ex;
  auto list = ex.Execute(table, hidden, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->Values(), (std::vector<double>{1.0, 0.75, 0.5, 0.25}));

  Paleo paleo(&table, PaleoOptions{});
  RunRequest request;
  request.input = &*list;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  EXPECT_TRUE(report->valid[0].query.SameRanking(hidden));
}

// An average of equal values can round past the column maximum: avg(x)
// over A's rows below is 0.10000000000000002 while max(x) is 0.1. The
// catalog range checks must allow that, or x is dropped for avg in the
// top-entity and fallback stages; with three decoy columns and one
// histogram column kept, no stage is then left to find avg(x).
TEST(RankingFinderTest, AvgRoundingPastColumnMaxNotPruned) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
      {"y1", DataType::kDouble, FieldRole::kMeasure},
      {"y2", DataType::kDouble, FieldRole::kMeasure},
      {"y3", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  // The decoys hold L's values in other entity orders: their histograms
  // sit closer to L than x's, but no criterion over them reproduces L.
  const std::map<std::string, std::vector<double>> decoys = {
      {"A", {0.02, 0.05, 0.05}},
      {"B", {0.1, 0.02, 0.1}},
      {"C", {0.05, 0.1, 0.02}},
  };
  auto append = [&](const std::string& e, const std::string& d, double x) {
    const std::vector<double>& y = decoys.at(e);
    ASSERT_TRUE(table
                    .AppendRow({Value::String(e), Value::String(d),
                                Value::Double(x), Value::Double(y[0]),
                                Value::Double(y[1]), Value::Double(y[2])})
                    .ok());
  };
  for (double x : {0.1, 0.1, 0.1}) append("A", "q", x);
  for (double x : {0.1, 0.0}) append("B", "q", x);
  append("C", "q", 0.02);
  for (const char* e : {"A", "B", "C"}) append(e, "z", 0.0);

  TopKQuery hidden;
  hidden.predicate = Predicate({AtomicPredicate(1, Value::String("q"))});
  hidden.expr = RankExpr::Column(2);
  hidden.agg = AggFn::kAvg;
  hidden.k = 3;
  Executor ex;
  auto list = ex.Execute(table, hidden, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 3u);
  ASSERT_GT(list->entry(0).value, 0.1);

  PaleoOptions options;
  options.histogram_keep_fraction = 0.25;
  Paleo paleo(&table, options);
  RunRequest request;
  request.input = &*list;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  EXPECT_TRUE(report->valid[0].query.SameRanking(hidden));
}

// Runs the complete-mode walk, with the catalog, over the list that
// `hidden` gives on `table`; true when it keeps hidden's criterion.
bool WalkKeepsCriterion(const Table& table, const TopKQuery& hidden,
                        const PaleoOptions& options,
                        RankingSearchInfo* info) {
  auto list = Executor().Execute(table, hidden, ExecContext{});
  EXPECT_TRUE(list.ok());
  EntityIndex index = EntityIndex::Build(table);
  StatsCatalog catalog = StatsCatalog::Build(table);
  auto rprime = RPrime::Build(table, index, *list);
  EXPECT_TRUE(rprime.ok());
  auto mining = PredicateMiner(*rprime, options).Mine();
  EXPECT_TRUE(mining.ok());
  auto rankings = RankingFinder(*rprime, &catalog, options)
                      .Find(mining->groups, *list, /*assume_complete=*/true,
                            info);
  EXPECT_TRUE(rankings.ok());
  for (const GroupRanking& gr : *rankings) {
    for (const RankingCandidate& c : gr.candidates) {
      if (c.agg == hidden.agg && c.expr == hidden.expr && c.exact) {
        return true;
      }
    }
  }
  return false;
}

// x's first row is NaN, which used to make its range NaN. The range
// now spans the numbers: max(x) is still found through the top-entity
// stage, and the decoy y, whose first row is NaN too and whose numbers
// all lie below L's, is pruned there.
TEST(RankingFinderTest, LeadingNanKeepsTheColumnRange) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
      {"y", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(table
                  .AppendRow({Value::String("E0"), Value::String("p"),
                              Value::Double(nan), Value::Double(nan)})
                  .ok());
  for (int i = 0; i < 40; ++i) {
    const double x = 100.0 + 7.0 * ((i * 13) % 40);
    ASSERT_TRUE(table
                    .AppendRow({Value::String("E" + std::to_string(i % 10)),
                                Value::String(i % 3 == 0 ? "p" : "q"),
                                Value::Double(x), Value::Double(x / 1000)})
                    .ok());
  }
  const StatsCatalog catalog = StatsCatalog::Build(table);
  ASSERT_EQ(catalog.column_stats(2).min, 100.0);
  ASSERT_EQ(catalog.column_stats(3).max, 0.373);
  TopKQuery hidden;
  hidden.expr = RankExpr::Column(2);
  hidden.agg = AggFn::kMax;
  hidden.k = 5;
  PaleoOptions options;
  RankingSearchInfo info;
  EXPECT_TRUE(WalkKeepsCriterion(table, hidden, options, &info));
  EXPECT_TRUE(info.used_top_entities);
  EXPECT_EQ(info.top_entity_candidate_columns, 1);
}

// An average of finite values can overflow to +-inf: avg(x) gives C
// +inf and E -inf although x's range is finite. The range checks must
// not prune x for that; with the histogram stage off, only the stages
// behind them can find avg(x).
TEST(RankingFinderTest, AverageOverflowingToInfinityIsNotPruned) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  const std::pair<const char*, double> rows[] = {
      {"A", 5.0},     {"B", 3.0},      {"C", 1.5e308}, {"C", 1.5e308},
      {"D", 1.0},     {"E", -1.5e308}, {"E", -1.5e308},
  };
  for (const auto& [entity, x] : rows) {
    ASSERT_TRUE(table
                    .AppendRow({Value::String(entity), Value::String("p"),
                                Value::Double(x)})
                    .ok());
  }
  PaleoOptions options;
  options.histogram_keep_fraction = 0.0;
  for (SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
    TopKQuery hidden;
    hidden.expr = RankExpr::Column(2);
    hidden.agg = AggFn::kAvg;
    hidden.order = order;
    hidden.k = 5;
    RankingSearchInfo info;
    EXPECT_TRUE(WalkKeepsCriterion(table, hidden, options, &info))
        << (order == SortOrder::kDesc ? "DESC" : "ASC");
  }
}

}  // namespace
}  // namespace paleo
