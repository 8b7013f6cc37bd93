// Microbenchmarks for the predicate miner plus the tuple-set grouping
// ablation: evaluating ranking criteria once per distinct tuple set
// versus once per predicate (DESIGN.md Section 4.1 decision).

#include <benchmark/benchmark.h>

#include "bench_env.h"
#include "harness.h"
#include "index/dimension_index.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"

namespace paleo {
namespace {

struct MinerFixture {
  Table table;
  EntityIndex index;
  StatsCatalog catalog;
  TopKList list;
  RPrime rprime;

  static const MinerFixture& Get() {
    static MinerFixture* fixture = [] {
      bench::Env env;
      env.scale_factor = std::min(env.scale_factor, 0.01);
      Table table = bench::BuildTpch(env);
      EntityIndex index = EntityIndex::Build(table);
      StatsCatalog catalog = StatsCatalog::Build(table);
      auto workload = bench::MakeCellWorkload(
          table, QueryFamily::kMaxA, /*predicate_size=*/2, /*k=*/10,
          /*count=*/1, env.seed);
      PALEO_CHECK(!workload.empty());
      TopKList list = workload[0].list;
      auto rprime = RPrime::Build(table, index, list);
      PALEO_CHECK(rprime.ok());
      return new MinerFixture{std::move(table), std::move(index),
                              std::move(catalog), std::move(list),
                              *std::move(rprime)};
    }();
    return *fixture;
  }
};

void BM_MinePredicates(benchmark::State& state) {
  const MinerFixture& f = MinerFixture::Get();
  PaleoOptions options;
  options.max_predicate_size = static_cast<int>(state.range(0));
  PredicateMiner miner(f.rprime, options);
  for (auto _ : state) {
    auto result = miner.Mine();
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MinePredicates)->Arg(1)->Arg(2)->Arg(3);

void BM_RankingPerTupleSet_Grouped(benchmark::State& state) {
  // The shipped design: each distinct tuple set is evaluated once.
  const MinerFixture& f = MinerFixture::Get();
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto mining = miner.Mine();
  PALEO_CHECK(mining.ok());
  RankingFinder finder(f.rprime, &f.catalog, options);
  for (auto _ : state) {
    auto rankings = finder.Find(mining->groups, f.list, true);
    benchmark::DoNotOptimize(rankings.ok());
  }
  state.counters["tuple_sets"] =
      static_cast<double>(mining->groups.size());
  state.counters["predicates"] =
      static_cast<double>(mining->predicates.size());
}
BENCHMARK(BM_RankingPerTupleSet_Grouped);

void BM_RankingPerTupleSet_Ungrouped(benchmark::State& state) {
  // Ablation: pretend every predicate has its own tuple set (no
  // Section 4.1 grouping), multiplying criterion evaluations.
  const MinerFixture& f = MinerFixture::Get();
  PaleoOptions options;
  PredicateMiner miner(f.rprime, options);
  auto mining = miner.Mine();
  PALEO_CHECK(mining.ok());
  // One synthetic group per predicate.
  std::vector<PredicateGroup> ungrouped;
  for (const MinedPredicate& p : mining->predicates) {
    ungrouped.push_back(
        mining->groups[static_cast<size_t>(p.group_id)]);
  }
  RankingFinder finder(f.rprime, &f.catalog, options);
  for (auto _ : state) {
    auto rankings = finder.Find(ungrouped, f.list, true);
    benchmark::DoNotOptimize(rankings.ok());
  }
  state.counters["tuple_sets"] = static_cast<double>(ungrouped.size());
}
BENCHMARK(BM_RankingPerTupleSet_Ungrouped);

void BM_TupleSetIntersection(benchmark::State& state) {
  // Sorted-vector intersection at miner-realistic sizes.
  const int64_t n = state.range(0);
  TupleSet a, b;
  Rng rng(3);
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) a.push_back(static_cast<RowId>(i));
    if (rng.Bernoulli(0.3)) b.push_back(static_cast<RowId>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectSorted(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_TupleSetIntersection)->Arg(1000)->Arg(100000);

void BM_TupleSetIntersectionSkewed(benchmark::State& state) {
  // Galloping path: |a| << |b|.
  const int64_t n = state.range(0);
  TupleSet a, b;
  for (int64_t i = 0; i < n; ++i) b.push_back(static_cast<RowId>(i));
  for (int64_t i = 0; i < n; i += 997) a.push_back(static_cast<RowId>(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectSorted(a, b));
  }
}
BENCHMARK(BM_TupleSetIntersectionSkewed)->Arg(100000);

}  // namespace
}  // namespace paleo
