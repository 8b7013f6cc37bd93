// Behavioral tests for PaleoOptions knobs: each option must change the
// documented behavior and nothing else (results stay correct).

#include <gtest/gtest.h>

#include "datagen/tpch_gen.h"
#include "datagen/traffic_gen.h"
#include "paleo/paleo.h"
#include "workload/workload.h"

namespace paleo {
namespace {

struct TpchFixture {
  Table table;
  WorkloadQuery query;

  static TpchFixture Make() {
    TpchGenOptions gen;
    gen.scale_factor = 0.002;
    auto table = TpchGen::Generate(gen);
    EXPECT_TRUE(table.ok());
    WorkloadOptions wl;
    wl.families = {QueryFamily::kMaxA};
    wl.predicate_sizes = {2};
    wl.ks = {10};
    wl.queries_per_config = 1;
    auto workload = WorkloadGen::Generate(*table, wl);
    EXPECT_TRUE(workload.ok());
    EXPECT_FALSE(workload->empty());
    return TpchFixture{*std::move(table), (*workload)[0]};
  }
};

TEST(OptionsBehaviorTest, DimensionIndexDoesNotChangeResults) {
  TpchFixture f = TpchFixture::Make();
  PaleoOptions with_index;
  with_index.use_dimension_index = true;
  PaleoOptions without_index;
  without_index.use_dimension_index = false;
  Paleo a(&f.table, with_index);
  Paleo b(&f.table, without_index);
  obs::MetricsRegistry ma;
  obs::MetricsRegistry mb;
  auto ra = a.Run({.input = &f.query.list, .metrics = &ma});
  auto rb = b.Run({.input = &f.query.list, .metrics = &mb});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(ra->found());
  ASSERT_TRUE(rb->found());
  EXPECT_TRUE(ra->valid[0].query == rb->valid[0].query);
  EXPECT_EQ(ra->executed_queries, rb->executed_queries);
  // The indexed run answers executions from postings.
  EXPECT_GT(ma.counter("paleo_executor_index_assisted_total")->value(), 0);
  EXPECT_EQ(mb.counter("paleo_executor_index_assisted_total")->value(), 0);
  EXPECT_LT(ma.counter("paleo_executor_rows_scanned_total")->value(),
            mb.counter("paleo_executor_rows_scanned_total")->value());
}

TEST(OptionsBehaviorTest, MaxCriteriaPerGroupCapsSampledCandidates) {
  TpchFixture f = TpchFixture::Make();
  PaleoOptions capped;
  capped.max_criteria_per_group = 2;
  PaleoOptions uncapped;
  uncapped.max_criteria_per_group = 0;
  Paleo a(&f.table, capped);
  Paleo b(&f.table, uncapped);
  auto sample = Sampler::UniformPerEntity(
      a.index(), f.query.list.DistinctEntities(), 0.3, 5);
  ASSERT_TRUE(sample.ok());
  const RunRequest request{.input = &f.query.list,
                           .sample_rows = &*sample,
                           .sample_fraction = 0.3};
  auto ra = a.Run(request);
  auto rb = b.Run(request);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_LT(ra->candidate_queries, rb->candidate_queries);
  // Cap of 2 criteria per tuple set bounds candidates by 2 * #preds.
  EXPECT_LE(ra->candidate_queries, 2 * ra->candidate_predicates);
}

TEST(OptionsBehaviorTest, ObservedMatchRateTogglesTheModel) {
  // Construct a sampled scenario and check the two estimators yield
  // different false-positive probabilities for partially covered
  // predicates (the observed rate is the default for a reason, see
  // ProbModel).
  TpchFixture f = TpchFixture::Make();
  PaleoOptions options;
  Paleo paleo(&f.table, options);
  auto sample = Sampler::UniformPerEntity(
      paleo.index(), f.query.list.DistinctEntities(), 0.2, 7);
  ASSERT_TRUE(sample.ok());

  auto run = [&](bool observed) {
    PaleoOptions override = paleo.options();
    override.use_observed_match_rate = observed;
    RunRequest request;
    request.input = &f.query.list;
    request.sample_rows = &*sample;
    request.sample_fraction = 0.2;
    request.keep_candidates = true;
    request.options_override = &override;
    auto report = paleo.Run(request);
    EXPECT_TRUE(report.ok());
    return *std::move(report);
  };
  ReverseEngineerReport with = run(true);
  ReverseEngineerReport without = run(false);
  ASSERT_EQ(with.candidates.size(), without.candidates.size());
  // Identical query sets, potentially different scores/order.
  bool any_partially_covered = false;
  for (const CandidateQuery& cq : with.candidates) {
    any_partially_covered |= cq.p_false_positive > 0.0;
  }
  // If the sample left some predicate partially covered, the two
  // estimators must actually disagree somewhere.
  if (any_partially_covered) {
    bool differs = false;
    for (size_t i = 0; i < with.candidates.size() && !differs; ++i) {
      differs |= !(with.candidates[i].query == without.candidates[i].query);
    }
    // Either the order changed or (if not) at least scores did; find a
    // matching query and compare its score.
    if (!differs) {
      for (size_t i = 0; i < with.candidates.size(); ++i) {
        if (with.candidates[i].p_false_positive !=
            without.candidates[i].p_false_positive) {
          differs = true;
          break;
        }
      }
    }
    EXPECT_TRUE(differs);
  }
}

TEST(OptionsBehaviorTest, MaxPredicateSizeBoundsMinedConjunctions) {
  TpchFixture f = TpchFixture::Make();
  for (int cap = 1; cap <= 3; ++cap) {
    PaleoOptions options;
    options.max_predicate_size = cap;
    options.include_empty_predicate = false;
    Paleo paleo(&f.table, options);
    auto report = paleo.Run({.input = &f.query.list, .keep_candidates = true});
    ASSERT_TRUE(report.ok());
    for (const CandidateQuery& cq : report->candidates) {
      EXPECT_LE(cq.query.predicate.size(), cap);
    }
  }
}

TEST(OptionsBehaviorTest, MinCountAggregatesAreOptIn) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  const Schema& schema = table->schema();
  TopKQuery hidden;
  hidden.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                     Value::String("CA"));
  hidden.expr = RankExpr::Column(schema.FieldIndex("sms"));
  hidden.agg = AggFn::kMin;
  hidden.order = SortOrder::kAsc;
  hidden.k = 5;
  Executor ex;
  auto list = ex.Execute(*table, hidden, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 5u);

  PaleoOptions off;  // default: min/count disabled
  Paleo without(&*table, off);
  auto r_without = without.Run({.input = &*list});
  ASSERT_TRUE(r_without.ok());

  PaleoOptions on;
  on.enable_min_count = true;
  Paleo with(&*table, on);
  auto r_with = with.Run({.input = &*list});
  ASSERT_TRUE(r_with.ok());
  EXPECT_TRUE(r_with->found());
  // With the extension on, the min criterion is found; without it the
  // list may or may not be explainable by other criteria, but the
  // extension must strictly widen the search.
  EXPECT_GE(r_with->candidate_queries, r_without->candidate_queries);
}

}  // namespace
}  // namespace paleo
