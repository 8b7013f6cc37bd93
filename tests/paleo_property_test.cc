// Property tests of the full pipeline on randomized tiny relations:
// for every hidden query that produced an input list, a complete-R'
// run must recover SOME instance-equivalent query (the paper's
// completeness guarantee), regardless of schema shape, data skew, or
// query family — and the smart and ranked validators must agree on
// discoverability.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "paleo/paleo.h"

namespace paleo {
namespace {

/// A randomized small relation: 3 dimension columns with small domains
/// (lots of accidental candidate predicates), 3 measures with assorted
/// distributions, skewed tuples-per-entity.
Table RandomTable(uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Make({
      {"who", DataType::kString, FieldRole::kEntity},
      {"d1", DataType::kString, FieldRole::kDimension},
      {"d2", DataType::kString, FieldRole::kDimension},
      {"d3", DataType::kInt64, FieldRole::kDimension},
      {"m1", DataType::kInt64, FieldRole::kMeasure},
      {"m2", DataType::kDouble, FieldRole::kMeasure},
      {"m3", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  int num_entities = 8 + static_cast<int>(rng.Uniform(10));
  int d1_domain = 2 + static_cast<int>(rng.Uniform(4));
  int d2_domain = 2 + static_cast<int>(rng.Uniform(6));
  int d3_domain = 2 + static_cast<int>(rng.Uniform(3));
  for (int e = 0; e < num_entities; ++e) {
    int rows = 2 + static_cast<int>(rng.Uniform(8));
    for (int r = 0; r < rows; ++r) {
      EXPECT_TRUE(
          t.AppendRow(
               {Value::String("who" + std::to_string(e)),
                Value::String("a" + std::to_string(rng.Uniform(
                                        static_cast<uint64_t>(d1_domain)))),
                Value::String("b" + std::to_string(rng.Uniform(
                                        static_cast<uint64_t>(d2_domain)))),
                Value::Int64(static_cast<int64_t>(
                    rng.Uniform(static_cast<uint64_t>(d3_domain)))),
                Value::Int64(rng.UniformInt(0, 1000)),
                Value::Double(rng.UniformDouble(-50.0, 50.0)),
                Value::Int64(rng.UniformInt(0, 5))})  // heavy ties
              .ok());
    }
  }
  return t;
}

/// A random hidden query guaranteed non-empty (anchored on a row).
TopKQuery RandomQuery(const Table& table, Rng* rng) {
  const Schema& schema = table.schema();
  const auto& dims = schema.dimension_indices();
  const auto& measures = schema.measure_indices();
  TopKQuery q;
  int pred_size = static_cast<int>(rng->Uniform(3));  // 0..2 atoms
  RowId anchor = static_cast<RowId>(
      rng->Uniform(static_cast<uint64_t>(table.num_rows())));
  std::vector<AtomicPredicate> atoms;
  std::vector<uint32_t> cols = rng->SampleWithoutReplacement(
      static_cast<uint32_t>(dims.size()),
      static_cast<uint32_t>(pred_size));
  for (uint32_t ci : cols) {
    atoms.emplace_back(dims[ci], table.GetValue(anchor, dims[ci]));
  }
  q.predicate = Predicate(std::move(atoms));
  int a = measures[static_cast<size_t>(
      rng->Uniform(static_cast<uint64_t>(measures.size())))];
  int b = measures[static_cast<size_t>(
      rng->Uniform(static_cast<uint64_t>(measures.size())))];
  switch (rng->Uniform(6)) {
    case 0:
      q.expr = RankExpr::Column(a);
      q.agg = AggFn::kMax;
      break;
    case 1:
      q.expr = RankExpr::Column(a);
      q.agg = AggFn::kAvg;
      break;
    case 2:
      q.expr = RankExpr::Column(a);
      q.agg = AggFn::kSum;
      break;
    case 3:
      q.expr = a == b ? RankExpr::Column(a) : RankExpr::Add(a, b);
      q.agg = AggFn::kSum;
      break;
    case 4:
      q.expr = a == b ? RankExpr::Column(a) : RankExpr::Mul(a, b);
      q.agg = AggFn::kSum;
      break;
    default:
      q.expr = RankExpr::Column(a);
      q.agg = AggFn::kNone;
      break;
  }
  q.k = 3 + static_cast<int>(rng->Uniform(8));
  return q;
}

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, CompleteRPrimeAlwaysRecoversAQuery) {
  const uint64_t seed = GetParam();
  Table table = RandomTable(seed);
  Executor oracle;
  Rng rng(seed * 7919 + 13);
  Paleo paleo(&table, PaleoOptions{});

  int attempted = 0;
  for (int trial = 0; trial < 12; ++trial) {
    TopKQuery hidden = RandomQuery(table, &rng);
    auto list = oracle.Execute(table, hidden, ExecContext{});
    ASSERT_TRUE(list.ok());
    if (static_cast<int>(list->size()) != hidden.k) continue;  // too few
    ++attempted;

    auto report = paleo.Run({.input = &*list});
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->found())
        << "not recovered: " << hidden.ToSql(table.schema())
        << "\ninput:\n"
        << list->ToString();
    // The recovered query regenerates the list exactly.
    auto regenerated = oracle.Execute(table, report->valid[0].query, ExecContext{});
    ASSERT_TRUE(regenerated.ok());
    EXPECT_TRUE(regenerated->InstanceEquals(*list))
        << "hidden:    " << hidden.ToSql(table.schema()) << "\nrecovered: "
        << report->valid[0].query.ToSql(table.schema());
  }
  EXPECT_GT(attempted, 3) << "random generator produced too few usable "
                             "queries for seed "
                          << seed;
}

TEST_P(PipelinePropertyTest, SmartAndRankedAgreeOnDiscoverability) {
  const uint64_t seed = GetParam();
  Table table = RandomTable(seed ^ 0xABCDEF);
  Executor oracle;
  Rng rng(seed * 104729 + 1);
  PaleoOptions smart_options;
  smart_options.validation_strategy = ValidationStrategy::kSmart;
  PaleoOptions ranked_options;
  ranked_options.validation_strategy = ValidationStrategy::kRanked;
  Paleo smart(&table, smart_options);
  Paleo ranked(&table, ranked_options);

  for (int trial = 0; trial < 6; ++trial) {
    TopKQuery hidden = RandomQuery(table, &rng);
    auto list = oracle.Execute(table, hidden, ExecContext{});
    ASSERT_TRUE(list.ok());
    if (static_cast<int>(list->size()) != hidden.k) continue;

    auto smart_report = smart.Run({.input = &*list});
    auto ranked_report = ranked.Run({.input = &*list});
    ASSERT_TRUE(smart_report.ok());
    ASSERT_TRUE(ranked_report.ok());
    EXPECT_EQ(smart_report->found(), ranked_report->found());
    if (smart_report->found() && ranked_report->found()) {
      // Both recovered queries regenerate the input (they may differ).
      for (const ReverseEngineerReport* report :
           {&*smart_report, &*ranked_report}) {
        auto regenerated = oracle.Execute(table, report->valid[0].query, ExecContext{});
        ASSERT_TRUE(regenerated.ok());
        EXPECT_TRUE(regenerated->InstanceEquals(*list));
      }
      // (No execution-count assertion: smart may skip a valid query
      // into a later pass and occasionally execute more than ranked.)
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRelations, PipelinePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

}  // namespace
}  // namespace paleo
