// End-to-end integration tests: the full PALEO pipeline reverse
// engineering known queries on all three generated relations, with
// complete R' and with samples.

#include <gtest/gtest.h>

#include <limits>

#include "datagen/augment.h"
#include "datagen/ssb_gen.h"
#include "datagen/tpch_gen.h"
#include "datagen/traffic_gen.h"
#include "paleo/paleo.h"
#include "workload/workload.h"

namespace paleo {
namespace {

/// Executes `found` and the hidden `truth` and checks
/// instance-equivalence of their results (the paper's validity
/// criterion — the found query need not be syntactically identical).
void ExpectInstanceEquivalent(const Table& table, const TopKQuery& found,
                              const TopKList& input) {
  Executor ex;
  auto result = ex.Execute(table, found, ExecContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->InstanceEquals(input))
      << "query " << found.ToSql(table.schema())
      << " does not regenerate the input\ngot:\n"
      << result->ToString() << "\nwant:\n"
      << input.ToString();
}

TEST(PaleoE2eTest, PaperIntroductionExample) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());

  TopKList input;  // Table 2 of the paper
  input.Append("Lara Ellis", 784);
  input.Append("Jane O'Neal", 699);
  input.Append("John Smith", 654);
  input.Append("Richard Fox", 596);
  input.Append("Jack Stiles", 586);

  Paleo paleo(&*table, PaleoOptions{});
  auto report = paleo.Run({.input = &input});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  ExpectInstanceEquivalent(*table, report->valid[0].query, input);
  // The discovered query constrains to California and ranks by
  // max(minutes).
  const Schema& schema = table->schema();
  std::string sql = report->valid[0].query.ToSql(schema);
  EXPECT_NE(sql.find("max(minutes)"), std::string::npos) << sql;
  // A handful of executions at most (the paper reports ~1-2).
  EXPECT_LE(report->executed_queries, 5);
  EXPECT_GT(report->candidate_predicates, 0);
  EXPECT_GT(report->tuple_sets, 0);
}

struct E2eCase {
  QueryFamily family;
  int predicate_size;
  int k;
};

class PaleoWorkloadE2eTest : public ::testing::TestWithParam<E2eCase> {};

TEST_P(PaleoWorkloadE2eTest, RecoversGeneratedQueriesOnTpch) {
  const E2eCase param = GetParam();
  TpchGenOptions gen;
  gen.scale_factor = 0.003;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());

  WorkloadOptions wl;
  wl.families = {param.family};
  wl.predicate_sizes = {param.predicate_size};
  wl.ks = {param.k};
  wl.queries_per_config = 2;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty()) << "workload generation failed";

  Paleo paleo(&*table, PaleoOptions{});
  for (const WorkloadQuery& wq : *workload) {
    auto report = paleo.Run({.input = &wq.list});
    ASSERT_TRUE(report.ok()) << wq.name;
    ASSERT_TRUE(report->found())
        << wq.name << ": " << wq.query.ToSql(table->schema());
    ExpectInstanceEquivalent(*table, report->valid[0].query, wq.list);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryShapes, PaleoWorkloadE2eTest,
    ::testing::Values(E2eCase{QueryFamily::kMaxA, 1, 10},
                      E2eCase{QueryFamily::kMaxA, 2, 5},
                      E2eCase{QueryFamily::kAvgA, 1, 10},
                      E2eCase{QueryFamily::kSumA, 1, 10},
                      E2eCase{QueryFamily::kSumAB, 1, 5},
                      E2eCase{QueryFamily::kSumAB, 2, 10},
                      E2eCase{QueryFamily::kMulAB, 1, 5},
                      E2eCase{QueryFamily::kNone, 1, 10}),
    [](const ::testing::TestParamInfo<E2eCase>& info) {
      const char* family = "";
      switch (info.param.family) {
        case QueryFamily::kMaxA:
          family = "maxA";
          break;
        case QueryFamily::kAvgA:
          family = "avgA";
          break;
        case QueryFamily::kSumA:
          family = "sumA";
          break;
        case QueryFamily::kSumAB:
          family = "sumAplusB";
          break;
        case QueryFamily::kMulAB:
          family = "sumAtimesB";
          break;
        case QueryFamily::kNone:
          family = "none";
          break;
      }
      return std::string(family) + "_P" +
             std::to_string(info.param.predicate_size) + "_k" +
             std::to_string(info.param.k);
    });

TEST(PaleoE2eTest, RecoversQueriesOnSsb) {
  SsbGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = SsbGen::Generate(gen);
  ASSERT_TRUE(table.ok());

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA, QueryFamily::kSumAB};
  wl.predicate_sizes = {1, 2};
  wl.ks = {5};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());

  Paleo paleo(&*table, PaleoOptions{});
  for (const WorkloadQuery& wq : *workload) {
    auto report = paleo.Run({.input = &wq.list});
    ASSERT_TRUE(report.ok()) << wq.name;
    ASSERT_TRUE(report->found()) << wq.name;
    ExpectInstanceEquivalent(*table, report->valid[0].query, wq.list);
  }
}

TEST(PaleoE2eTest, ValidationDominatesStepTimes) {
  TpchGenOptions gen;
  gen.scale_factor = 0.003;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA};
  wl.predicate_sizes = {2};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());

  // Scan-based validation (the paper's profile): disable the secondary
  // indexes so every execution reads all of R, and switch off threshold
  // pruning — it legitimately shrinks rows_scanned, but this test
  // measures the unoptimized full-scan profile that the
  // rows_scanned >= executions * |R| bound encodes.
  PaleoOptions options;
  options.use_dimension_index = false;
  options.threshold_pruning = false;
  Paleo paleo(&*table, options);
  obs::MetricsRegistry registry;
  auto report =
      paleo.Run({.input = &(*workload)[0].list, .metrics = &registry});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  // Step 3 scans all of R once per executed candidate, while steps 1-2
  // only ever touch the small slice R' — the architectural reason the
  // paper's Figure 7 shows validation dominating. (The wall-clock
  // ratio only emerges at larger scales, so assert the row counts.)
  EXPECT_GT(report->timings.validation_ms, 0.0);
  EXPECT_GE(registry.counter("paleo_executor_rows_scanned_total")->value(),
            report->executed_queries *
                static_cast<int64_t>(table->num_rows()));
  EXPECT_LT(report->rprime_rows,
            static_cast<int64_t>(table->num_rows()) / 10);
}

TEST(PaleoE2eTest, SampledRunRecoversSingleColumnQuery) {
  TpchGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA};
  wl.predicate_sizes = {1};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());
  const WorkloadQuery& wq = (*workload)[0];

  Paleo paleo(&*table, PaleoOptions{});
  auto sample = Sampler::UniformPerEntity(
      paleo.index(), wq.list.DistinctEntities(), 0.3, 99);
  ASSERT_TRUE(sample.ok());
  auto report = paleo.Run(
      {.input = &wq.list, .sample_rows = &*sample, .sample_fraction = 0.3});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found()) << wq.query.ToSql(table->schema());
  ExpectInstanceEquivalent(*table, report->valid[0].query, wq.list);
}

TEST(PaleoE2eTest, KeepCandidatesReturnsScoredList) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  TopKList input;
  input.Append("Lara Ellis", 784);
  input.Append("Jane O'Neal", 699);
  input.Append("John Smith", 654);
  input.Append("Richard Fox", 596);
  input.Append("Jack Stiles", 586);
  Paleo paleo(&*table, PaleoOptions{});
  auto report = paleo.Run({.input = &input, .keep_candidates = true});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(static_cast<int64_t>(report->candidates.size()),
            report->candidate_queries);
  ASSERT_FALSE(report->candidates.empty());
  EXPECT_GE(report->candidates.front().suitability,
            report->candidates.back().suitability);
}

TEST(PaleoE2eTest, RecoversAscendingOrderQuery) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  const Schema& schema = table->schema();
  TopKQuery hidden;
  hidden.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                     Value::String("CA"));
  hidden.expr = RankExpr::Column(schema.FieldIndex("minutes"));
  hidden.agg = AggFn::kMin;
  hidden.order = SortOrder::kAsc;
  hidden.k = 5;
  Executor ex;
  auto list = ex.Execute(*table, hidden, ExecContext{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 5u);
  // Values ascend; the pipeline must detect the direction.
  ASSERT_LT(list->entry(0).value, list->entry(4).value);

  PaleoOptions options;
  options.enable_min_count = true;
  Paleo paleo(&*table, options);
  auto report = paleo.Run({.input = &*list});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  EXPECT_EQ(report->valid[0].query.order, SortOrder::kAsc);
  ExpectInstanceEquivalent(*table, report->valid[0].query, *list);
}

TEST(PaleoE2eTest, DeterministicAcrossIdenticalRuns) {
  TpchGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  WorkloadOptions wl;
  wl.families = {QueryFamily::kSumAB};
  wl.predicate_sizes = {2};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());

  Paleo a(&*table, PaleoOptions{});
  Paleo b(&*table, PaleoOptions{});
  const TopKList& input = (*workload)[0].list;
  auto ra = a.Run({.input = &input, .keep_candidates = true});
  auto rb = b.Run({.input = &input, .keep_candidates = true});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->executed_queries, rb->executed_queries);
  ASSERT_EQ(ra->candidates.size(), rb->candidates.size());
  for (size_t i = 0; i < ra->candidates.size(); ++i) {
    EXPECT_TRUE(ra->candidates[i].query == rb->candidates[i].query) << i;
  }
  ASSERT_EQ(ra->valid.size(), rb->valid.size());
  for (size_t i = 0; i < ra->valid.size(); ++i) {
    EXPECT_TRUE(ra->valid[i].query == rb->valid[i].query);
  }
}

TEST(PaleoE2eTest, PartialMatchRecoversFromDriftedData) {
  TrafficGenOptions gen;
  gen.num_customers = 120;
  gen.months_per_customer = 8;
  gen.seed = 5;
  auto yesterday = TrafficGen::Generate(gen);
  ASSERT_TRUE(yesterday.ok());
  const Schema& schema = yesterday->schema();
  TopKQuery hidden;
  hidden.predicate = Predicate::Atom(schema.FieldIndex("plan"),
                                     Value::String("XL"));
  hidden.expr = RankExpr::Column(schema.FieldIndex("data_mb"));
  hidden.agg = AggFn::kSum;
  hidden.k = 10;
  Executor ex;
  auto input = ex.Execute(*yesterday, hidden, ExecContext{});
  ASSERT_TRUE(input.ok());
  ASSERT_EQ(input->size(), 10u);

  PerturbOptions drift;
  drift.row_change_probability = 0.03;
  drift.seed = 11;
  auto today = PerturbDimensions(*yesterday, drift);
  ASSERT_TRUE(today.ok());

  PaleoOptions options;
  options.match_mode = MatchMode::kPartial;
  options.partial_min_entity_jaccard = 0.5;
  options.partial_max_value_distance = 0.25;
  Paleo paleo(&*today, options);
  std::vector<RowId> all_rows(today->num_rows());
  for (size_t r = 0; r < today->num_rows(); ++r) {
    all_rows[r] = static_cast<RowId>(r);
  }
  // Sample semantics with relaxed coverage: R' is untrusted.
  auto report = paleo.Run({.input = &*input,
                           .sample_rows = &all_rows,
                           .sample_fraction = 1.0,
                           .coverage_ratio_override = 0.7});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  // The accepted query's result is genuinely similar to the input.
  auto result = ex.Execute(*today, report->valid[0].query, ExecContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->EntityJaccard(*input), 0.5);
}

TEST(PaleoE2eTest, NoValidQueryForForeignList) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  TopKList input;
  input.Append("Lara Ellis", 1.0);
  input.Append("Jane O'Neal", 0.5);
  input.Append("John Smith", 0.25);
  input.Append("Richard Fox", 0.125);
  input.Append("Jack Stiles", 0.0625);
  Paleo paleo(&*table, PaleoOptions{});
  auto report = paleo.Run({.input = &input});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->found());
}

// A list value of 5 is not reproduced by an entity whose value is
// +inf: max(x) gives [A +inf], which must not count as [A 5].
TEST(PaleoE2eTest, InfiniteValueDoesNotMatchFiniteList) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  ASSERT_TRUE(table
                  .AppendRow({Value::String("A"), Value::String("p"),
                              Value::Double(
                                  std::numeric_limits<double>::infinity())})
                  .ok());
  ASSERT_TRUE(table
                  .AppendRow({Value::String("B"), Value::String("p"),
                              Value::Double(3.0)})
                  .ok());
  TopKList input;
  input.Append("A", 5.0);
  Paleo paleo(&table, PaleoOptions{});
  auto report = paleo.Run({.input = &input});
  ASSERT_TRUE(report.ok());
  for (const auto& v : report->valid) {
    ADD_FAILURE() << "reported as valid: " << v.query.ToSql(table.schema());
  }
  EXPECT_FALSE(report->found());
}

}  // namespace
}  // namespace paleo
