// Tests of the vectorized scan with the atom-selection cache: cached
// executions match the naive oracle (tests/oracle/naive_executor.h)
// bit for bit under concurrent shared-cache execution, after budget
// interruption and after the table mutates; the full pipeline finds the
// same query sequentially and in parallel. Plus unit tests of the
// AtomSelectionCache's LRU eviction, epoch invalidation, and stats.
// The randomized sweep over every execution context lives in
// tests/executor_oracle_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "datagen/traffic_gen.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "engine/selection_bitmap.h"
#include "oracle/naive_executor.h"
#include "paleo/paleo.h"

namespace paleo {
namespace {

// ---- Randomized workload generation -------------------------------------

Schema DiffSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s1", DataType::kString, FieldRole::kDimension},
      {"s2", DataType::kString, FieldRole::kDimension},
      {"d1", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

const char* kStates[] = {"CA", "NY", "TX", "WA"};

/// Random table whose sizes straddle the kernels' 2048-row batch
/// boundary and multiple bitmap words.
Table RandomTable(Rng& rng, size_t num_rows) {
  Table t(DiffSchema());
  const int num_entities = static_cast<int>(rng.UniformInt(3, 40));
  for (size_t r = 0; r < num_rows; ++r) {
    std::string e = "e" + std::to_string(rng.UniformInt(0, num_entities - 1));
    std::string s1 = kStates[rng.Uniform(4)];
    std::string s2 = "g" + std::to_string(rng.Uniform(8));
    EXPECT_TRUE(t.AppendRow({Value::String(e), Value::String(s1),
                             Value::String(s2),
                             Value::Int64(rng.UniformInt(0, 10)),
                             Value::Int64(rng.UniformInt(-100, 100)),
                             Value::Double(rng.UniformDouble(0.0, 100.0))})
                    .ok());
  }
  return t;
}

/// Random candidate query: 0-3 predicate atoms (equality over string
/// dims, equality or BETWEEN over the int dim, sometimes a value absent
/// from the table so the atom selects nothing), random ranking
/// expression, aggregate, order, and k.
TopKQuery RandomQuery(Rng& rng) {
  TopKQuery q;
  std::vector<AtomicPredicate> atoms;
  const int num_atoms = static_cast<int>(rng.Uniform(4));
  bool used[3] = {false, false, false};
  for (int i = 0; i < num_atoms; ++i) {
    const int pick = static_cast<int>(rng.Uniform(3));
    if (used[pick]) continue;
    used[pick] = true;
    switch (pick) {
      case 0:
        // Sometimes a state no row carries, exercising kNever.
        atoms.emplace_back(1, rng.Uniform(8) == 0
                                  ? Value::String("ZZ")
                                  : Value::String(kStates[rng.Uniform(4)]));
        break;
      case 1:
        atoms.emplace_back(
            2, Value::String("g" + std::to_string(rng.Uniform(8))));
        break;
      case 2:
        if (rng.Uniform(2) == 0) {
          atoms.emplace_back(3, Value::Int64(rng.UniformInt(0, 10)));
        } else {
          const int64_t lo = rng.UniformInt(0, 8);
          atoms.push_back(AtomicPredicate::Range(
              3, Value::Int64(lo), Value::Int64(rng.UniformInt(lo, 10))));
        }
        break;
    }
  }
  q.predicate = Predicate(std::move(atoms));
  switch (rng.Uniform(4)) {
    case 0: q.expr = RankExpr::Column(4); break;
    case 1: q.expr = RankExpr::Column(5); break;
    case 2: q.expr = RankExpr::Add(4, 5); break;
    default: q.expr = RankExpr::Mul(4, 5); break;
  }
  const AggFn aggs[] = {AggFn::kMax, AggFn::kMin, AggFn::kSum,
                        AggFn::kAvg, AggFn::kCount, AggFn::kNone};
  q.agg = aggs[rng.Uniform(6)];
  q.order = rng.Uniform(2) == 0 ? SortOrder::kDesc : SortOrder::kAsc;
  q.k = static_cast<int>(rng.UniformInt(1, 15));
  return q;
}

// ---- Accounting ---------------------------------------------------------

TEST(VectorizedExecTest, RowsScannedMatchesScalarAccounting) {
  Rng rng(99);
  Table t = RandomTable(rng, 3000);
  TopKQuery q = RandomQuery(rng);
  Executor vec;
  ASSERT_TRUE(vec.Execute(t, q, ExecContext{}).ok());
  // The scan charges exactly the consumption pass: the n rows a
  // row-at-a-time loop visits, per completed full scan.
  EXPECT_EQ(vec.stats().rows_scanned, 3000);
}

// ---- Budget interruption ------------------------------------------------

TEST(VectorizedExecTest, PreTrippedBudgetCancelsBothPaths) {
  Rng rng(7);
  Table t = RandomTable(rng, 4096);
  TopKQuery q = RandomQuery(rng);
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  // Both paths: without and with the selection cache.
  AtomSelectionCache cache(static_cast<size_t>(1) << 20);
  for (AtomSelectionCache* c : {static_cast<AtomSelectionCache*>(nullptr),
                                &cache}) {
    Executor ex;
    auto result = ex.Execute(t, q, ExecContext{.budget = &budget, .cache = c});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCancelled());
  }
}

TEST(VectorizedExecTest, InterruptedScanNeverCachesPartialBitmaps) {
  Rng rng(8);
  Table t = RandomTable(rng, 4096);
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("CA"));
  q.expr = RankExpr::Column(4);
  q.agg = AggFn::kSum;
  q.k = 5;
  AtomSelectionCache cache(static_cast<size_t>(1) << 20);
  Executor vec;
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  auto interrupted = vec.Execute(t, q, ExecContext{.budget = &budget, .cache = &cache});
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(cache.stats().entries, 0u)
      << "a partial bitmap must never be retained";
  // The same cache then serves a complete, correct execution.
  auto warm = vec.Execute(t, q, ExecContext{.cache = &cache});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(oracle::BitwiseDiff(*warm, oracle::NaiveExecute(t, q)), "");
}

// ---- Shared-cache concurrency -------------------------------------------

TEST(VectorizedExecTest, ConcurrentSharedCacheMatchesScalarReference) {
  Rng rng(1234);
  Table t = RandomTable(rng, 4000);
  std::vector<TopKQuery> queries;
  std::vector<TopKList> refs;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(RandomQuery(rng));
    refs.push_back(oracle::NaiveExecute(t, queries.back()));
  }
  Executor vec;
  // Budget small enough to force evictions mid-run, so concurrent
  // readers race against eviction of the bitmaps they hold.
  AtomSelectionCache cache(4 * SelectionBitmap(4000).MemoryUsage());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 50; ++iter) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          auto result = vec.Execute(t, queries[qi], ExecContext{.cache = &cache});
          if (!result.ok() || !oracle::BitwiseDiff(*result, refs[qi]).empty()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const AtomSelectionCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_LE(stats.resident_bytes, cache.byte_budget());
}

// ---- Cache unit tests ---------------------------------------------------

AtomicPredicate AtomFor(int column, int64_t v) {
  return AtomicPredicate(column, Value::Int64(v));
}

SelectionBitmap BitmapOfRows(size_t n) { return SelectionBitmap(n); }

TEST(AtomSelectionCacheTest, LruEvictionHonorsByteBudget) {
  const size_t bitmap_bytes = BitmapOfRows(1024).MemoryUsage();
  AtomSelectionCache cache(2 * bitmap_bytes);
  cache.Insert(1, 0, AtomFor(0, 1), BitmapOfRows(1024));
  cache.Insert(1, 0, AtomFor(0, 2), BitmapOfRows(1024));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0);
  // Touch atom 1 so atom 2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(1, 0, AtomFor(0, 1)), nullptr);
  cache.Insert(1, 0, AtomFor(0, 3), BitmapOfRows(1024));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().resident_bytes, cache.byte_budget());
  EXPECT_NE(cache.Lookup(1, 0, AtomFor(0, 1)), nullptr);
  EXPECT_NE(cache.Lookup(1, 0, AtomFor(0, 3)), nullptr);
  EXPECT_EQ(cache.Lookup(1, 0, AtomFor(0, 2)), nullptr) << "LRU victim";
}

TEST(AtomSelectionCacheTest, EvictedBitmapSurvivesForInFlightReaders) {
  const size_t bitmap_bytes = BitmapOfRows(512).MemoryUsage();
  AtomSelectionCache cache(bitmap_bytes);
  auto held = cache.Insert(1, 0, AtomFor(0, 1), BitmapOfRows(512));
  cache.Insert(1, 0, AtomFor(0, 2), BitmapOfRows(512));  // evicts atom 1
  EXPECT_EQ(cache.Lookup(1, 0, AtomFor(0, 1)), nullptr);
  // The shared_ptr handed out earlier still works.
  EXPECT_EQ(held->num_rows(), 512u);
}

TEST(AtomSelectionCacheTest, DistinctEpochsAreDistinctKeys) {
  AtomSelectionCache cache(static_cast<size_t>(1) << 20);
  cache.Insert(1, 0, AtomFor(0, 1), BitmapOfRows(64));
  EXPECT_NE(cache.Lookup(1, 0, AtomFor(0, 1)), nullptr);
  EXPECT_EQ(cache.Lookup(2, 0, AtomFor(0, 1)), nullptr)
      << "a re-stamped table must never be served the old selection";
}

TEST(AtomSelectionCacheTest, ZeroBudgetDisablesRetention) {
  AtomSelectionCache cache(0);
  auto bm = cache.Insert(1, 0, AtomFor(0, 1), BitmapOfRows(64));
  ASSERT_NE(bm, nullptr);  // the caller still gets its bitmap
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(1, 0, AtomFor(0, 1)), nullptr);
}

TEST(AtomSelectionCacheTest, FirstInsertWinsOnRacingKeys) {
  AtomSelectionCache cache(static_cast<size_t>(1) << 20);
  auto first = cache.Insert(1, 0, AtomFor(0, 1), BitmapOfRows(64));
  auto second = cache.Insert(1, 0, AtomFor(0, 1), BitmapOfRows(64));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AtomSelectionCacheTest, TableMutationInvalidatesThroughEpoch) {
  Rng rng(5);
  Table t = RandomTable(rng, 300);
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("CA"));
  q.expr = RankExpr::Column(4);
  q.agg = AggFn::kMax;
  q.k = 5;
  AtomSelectionCache cache(static_cast<size_t>(1) << 20);
  Executor vec;
  ASSERT_TRUE(vec.Execute(t, q, ExecContext{.cache = &cache}).ok());
  const uint64_t epoch_before = t.epoch();
  ASSERT_TRUE(t.AppendRow({Value::String("zz"), Value::String("CA"),
                           Value::String("g0"), Value::Int64(1),
                           Value::Int64(1000), Value::Double(1.0)})
                  .ok());
  EXPECT_NE(t.epoch(), epoch_before);
  // The mutated table must be rescanned, not served the stale bitmap:
  // the new row ranks first under max(v).
  auto got = vec.Execute(t, q, ExecContext{.cache = &cache});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(oracle::BitwiseDiff(*got, oracle::NaiveExecute(t, q)), "");
  EXPECT_EQ(got->entry(0).entity, "zz");
}

// ---- Full-pipeline equivalence ------------------------------------------

TEST(VectorizedExecTest, PipelineEquivalenceSequentialAndParallel) {
  TrafficGenOptions gen;
  gen.num_customers = 40;
  gen.months_per_customer = 6;
  auto table = TrafficGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  const Schema& schema = table->schema();
  TopKQuery truth;
  truth.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                    Value::String("CA"));
  truth.expr = RankExpr::Column(schema.FieldIndex("minutes"));
  truth.agg = AggFn::kMax;
  truth.k = 5;
  Executor ex;
  auto input = ex.Execute(*table, truth, ExecContext{});
  ASSERT_TRUE(input.ok());

  auto run = [&](ThreadPool* pool, int num_threads) -> uint64_t {
    PaleoOptions options;
    options.num_threads = num_threads;
    Paleo paleo(&*table, options);
    auto report = paleo.Run({.input = &*input, .pool = pool});
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report->found());
    if (!report.ok() || !report->found()) return 0;
    return report->valid[0].query.Hash();
  };

  const uint64_t seq = run(nullptr, 1);
  ThreadPool pool(4);
  EXPECT_EQ(run(&pool, 4), seq);
}

TEST(VectorizedExecTest, PipelineBudgetInterruptionStillWindsDownClean) {
  TrafficGenOptions gen;
  gen.num_customers = 30;
  gen.months_per_customer = 4;
  auto table = TrafficGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  const Schema& schema = table->schema();
  TopKQuery truth;
  truth.predicate = Predicate::Atom(schema.FieldIndex("state"),
                                    Value::String("CA"));
  truth.expr = RankExpr::Column(schema.FieldIndex("minutes"));
  truth.agg = AggFn::kMax;
  truth.k = 5;
  Executor ex;
  auto input = ex.Execute(*table, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  PaleoOptions options;
  Paleo paleo(&*table, options);
  auto report = paleo.Run({.input = &*input, .budget = &budget});
  // Graceful wind-down, not an error: the budget was exhausted before
  // any execution completed.
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->termination, TerminationReason::kCancelled);
}

}  // namespace
}  // namespace paleo
