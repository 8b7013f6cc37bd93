// Microbenchmarks for the vectorized execution layer: one iteration
// replays a validation-shaped workload — a set of candidate queries
// whose conjunctions are built from a small shared pool of predicate
// atoms, exactly the shape apriori mining produces — through two
// executor configurations:
//
//   Vectorized        per-atom selection kernels + word-wise AND
//   VectorizedCached  kernels + per-run AtomSelectionCache (each atom
//                     scanned once per run, then bitmap AND only)
//
// bench/run_benchmarks.sh prints the cache's speedup over Vectorized.
// BENCH_pr5.json keeps the numbers of a former row-at-a-time Scalar
// configuration, deleted since, as history.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_env.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"

namespace paleo {
namespace {

const Table& SharedTpch() {
  static Table table = [] {
    bench::Env env;
    env.scale_factor = std::min(env.scale_factor, 0.01);
    return bench::BuildTpch(env);
  }();
  return table;
}

/// Atom pool drawn from actual table contents (one frequent-ish value
/// per dimension column), so selections are non-trivial.
std::vector<AtomicPredicate> AtomPool(const Table& table) {
  const char* columns[] = {"c_mktsegment", "c_region",     "o_orderpriority",
                           "o_orderstatus", "l_shipmode",  "l_returnflag",
                           "l_linestatus",  "o_quarter"};
  std::vector<AtomicPredicate> pool;
  for (const char* name : columns) {
    const int col = table.schema().FieldIndex(name);
    if (col < 0) continue;
    const Column& c = table.column(col);
    pool.emplace_back(col, Value::String(c.dict()->Get(c.CodeAt(0))));
  }
  return pool;
}

/// The candidate set of a validation run: every single atom, plus
/// distinct-column pairs and triples from the pool — heavy atom reuse,
/// as in apriori level-wise mining.
std::vector<TopKQuery> CandidateSet(const Table& table) {
  const std::vector<AtomicPredicate> pool = AtomPool(table);
  const int measure = table.schema().FieldIndex("o_totalprice");
  std::vector<TopKQuery> candidates;
  auto add = [&](std::vector<AtomicPredicate> atoms) {
    TopKQuery q;
    q.predicate = Predicate(std::move(atoms));
    q.expr = RankExpr::Column(measure);
    q.agg = AggFn::kMax;
    q.k = 10;
    candidates.push_back(std::move(q));
  };
  for (const AtomicPredicate& a : pool) add({a});
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size() && j < i + 3; ++j) {
      add({pool[i], pool[j]});
      if (j + 1 < pool.size()) add({pool[i], pool[j], pool[j + 1]});
    }
  }
  return candidates;
}

void RunCandidates(benchmark::State& state, bool cached) {
  const Table& table = SharedTpch();
  const std::vector<TopKQuery> candidates = CandidateSet(table);
  Executor ex;
  for (auto _ : state) {
    // One validation run: a fresh cache shared across its candidates.
    AtomSelectionCache cache(static_cast<size_t>(32) << 20);
    AtomSelectionCache* cache_ptr = cached ? &cache : nullptr;
    for (const TopKQuery& q : candidates) {
      auto result = ex.Execute(table, q, ExecContext{.cache = cache_ptr});
      benchmark::DoNotOptimize(result.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()) *
                          static_cast<int64_t>(table.num_rows()));
}

void BM_RepeatedCandidates_Vectorized(benchmark::State& state) {
  RunCandidates(state, /*cached=*/false);
}
BENCHMARK(BM_RepeatedCandidates_Vectorized);

void BM_RepeatedCandidates_VectorizedCached(benchmark::State& state) {
  RunCandidates(state, /*cached=*/true);
}
BENCHMARK(BM_RepeatedCandidates_VectorizedCached);

void RunCounts(benchmark::State& state, bool cached) {
  const Table& table = SharedTpch();
  const std::vector<TopKQuery> candidates = CandidateSet(table);
  Executor ex;
  for (auto _ : state) {
    AtomSelectionCache cache(static_cast<size_t>(32) << 20);
    AtomSelectionCache* cache_ptr = cached ? &cache : nullptr;
    size_t total = 0;
    for (const TopKQuery& q : candidates) {
      total += ex.CountMatching(table, q.predicate,
                                ExecContext{.cache = cache_ptr});
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(candidates.size()) *
                          static_cast<int64_t>(table.num_rows()));
}

void BM_CountMatching_Vectorized(benchmark::State& state) {
  RunCounts(state, /*cached=*/false);
}
BENCHMARK(BM_CountMatching_Vectorized);

void BM_CountMatching_VectorizedCached(benchmark::State& state) {
  RunCounts(state, /*cached=*/true);
}
BENCHMARK(BM_CountMatching_VectorizedCached);

}  // namespace
}  // namespace paleo
