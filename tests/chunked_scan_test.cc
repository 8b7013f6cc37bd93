// Chunked-storage and morsel-scan tests: chunk-layout invariants under
// AppendRows / SetChunkRows / DeepCopy, zone-map maintenance and
// skipping correctness (including dictionary-encoded columns), morsel
// accounting and budget interruption. Plus the ExecStats reset
// contract. Results of every scan context are checked against the
// naive oracle in tests/executor_oracle_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "engine/exec_context.h"
#include "engine/executor.h"
#include "storage/table.h"

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

// ---- Chunk layout -------------------------------------------------------

TEST(ChunkLayoutTest, TilesRowsWithShortLastChunk) {
  Rng rng(1);
  Table t = RandomTable(rng, 300);
  t.SetChunkRows(128);
  ASSERT_EQ(t.num_chunks(), 3u);
  EXPECT_EQ(t.chunk(0).begin_row, 0u);
  EXPECT_EQ(t.chunk(0).end_row, 128u);
  EXPECT_EQ(t.chunk(1).begin_row, 128u);
  EXPECT_EQ(t.chunk(1).end_row, 256u);
  EXPECT_EQ(t.chunk(2).begin_row, 256u);
  EXPECT_EQ(t.chunk(2).end_row, 300u);  // short last chunk
  for (const Chunk& ch : t.chunks()) {
    EXPECT_EQ(ch.zones.size(), t.num_columns());
    EXPECT_GT(ch.num_rows(), 0u);
  }
}

TEST(ChunkLayoutTest, ClampsToBitmapWordMultiples) {
  Rng rng(2);
  Table t = RandomTable(rng, 70);
  t.SetChunkRows(1);  // clamped up to 64
  EXPECT_EQ(t.chunk_rows(), 64u);
  EXPECT_EQ(t.num_chunks(), 2u);
  t.SetChunkRows(100);  // clamped down to 64
  EXPECT_EQ(t.chunk_rows(), 64u);
}

TEST(ChunkLayoutTest, SingleRowAndEmptyTables) {
  Table empty(DiffSchema());
  EXPECT_EQ(empty.num_chunks(), 0u);
  Rng rng(3);
  Table one = RandomTable(rng, 1);
  ASSERT_EQ(one.num_chunks(), 1u);
  EXPECT_EQ(one.chunk(0).num_rows(), 1u);
}

TEST(ChunkLayoutTest, RechunkingIsIdempotentOnSameValue) {
  Rng rng(4);
  Table t = RandomTable(rng, 200);
  t.SetChunkRows(64);
  const uint64_t epoch = t.epoch();
  t.SetChunkRows(64);  // same layout: no rebuild, no epoch bump
  EXPECT_EQ(t.epoch(), epoch);
  t.SetChunkRows(128);  // chunk indices change meaning: new epoch
  EXPECT_NE(t.epoch(), epoch);
}

TEST(ChunkLayoutTest, DeepCopyPreservesChunksAndZones) {
  Rng rng(5);
  Table t = RandomTable(rng, 150);
  t.SetChunkRows(64);
  Table copy = t.DeepCopy();
  EXPECT_EQ(copy.epoch(), t.epoch());
  ASSERT_EQ(copy.num_chunks(), t.num_chunks());
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    EXPECT_EQ(copy.chunk(c).begin_row, t.chunk(c).begin_row);
    EXPECT_EQ(copy.chunk(c).end_row, t.chunk(c).end_row);
    for (size_t i = 0; i < static_cast<size_t>(t.num_columns()); ++i) {
      EXPECT_TRUE(copy.chunk(c).zones[i] == t.chunk(c).zones[i]);
    }
  }
}

// ---- Zone-map correctness -----------------------------------------------

TEST(ZoneMapTest, TracksIntAndDoubleExtremes) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"i", DataType::kInt64, FieldRole::kDimension},
      {"d", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table t(*schema, /*chunk_rows=*/64);
  for (int r = 0; r < 130; ++r) {
    ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(r % 5)),
                             Value::Int64(r), Value::Double(r * 0.5)})
                    .ok());
  }
  ASSERT_EQ(t.num_chunks(), 3u);
  EXPECT_EQ(t.chunk(0).zones[1].int_min, 0);
  EXPECT_EQ(t.chunk(0).zones[1].int_max, 63);
  EXPECT_EQ(t.chunk(1).zones[1].int_min, 64);
  EXPECT_EQ(t.chunk(1).zones[1].int_max, 127);
  EXPECT_EQ(t.chunk(2).zones[1].int_min, 128);
  EXPECT_EQ(t.chunk(2).zones[1].int_max, 129);
  EXPECT_DOUBLE_EQ(t.chunk(1).zones[2].double_min, 32.0);
  EXPECT_DOUBLE_EQ(t.chunk(1).zones[2].double_max, 63.5);
  EXPECT_FALSE(t.chunk(0).zones[0].empty);  // dict column tracked too
}

TEST(ZoneMapTest, DictionaryZonesSkipOnlyValueFreeChunks) {
  // Dictionary codes are insertion-ordered: rows are appended in state
  // blocks, so each chunk's code range covers exactly the states it
  // holds and an equality atom for a state outside the block is
  // refutable from the zone alone.
  Rng rng(6);
  Table t(DiffSchema(), /*chunk_rows=*/64);
  for (int block = 0; block < 4; ++block) {
    for (int r = 0; r < 64; ++r) {
      ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(r % 7)),
                               Value::String(kStates[block]),
                               Value::String("g1"), Value::Int64(block),
                               Value::Int64(rng.UniformInt(-100, 100)),
                               Value::Double(rng.UniformDouble(0.0, 1.0))})
                      .ok());
    }
  }
  ASSERT_EQ(t.num_chunks(), 4u);

  Executor ex;
  TopKQuery q;
  q.predicate = Predicate::Atom(1, Value::String("TX"));  // block 2 only
  q.expr = RankExpr::Column(4);
  q.agg = AggFn::kSum;
  q.k = 5;
  auto skipping = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(skipping.ok());
  EXPECT_EQ(ex.stats().chunks_skipped, 3);
  EXPECT_EQ(ex.stats().morsels, 1);
  EXPECT_EQ(ex.stats().rows_scanned, 64);

  Executor ref;
  auto full = ref.Execute(t, q, ExecContext{.zone_map_skipping = false});
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(ref.stats().chunks_skipped, 0);
  EXPECT_EQ(ref.stats().rows_scanned, 256);
  EXPECT_TRUE(*skipping == *full);

  // A state no row carries refutes every chunk: empty result, zero
  // rows touched.
  ex.ResetStats();
  q.predicate = Predicate::Atom(1, Value::String("ZZ"));
  auto none = ex.Execute(t, q, ExecContext{});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(ex.stats().chunks_skipped, 4);
  EXPECT_EQ(ex.stats().rows_scanned, 0);
}

TEST(ZoneMapTest, CountMatchingSkipsRefutedChunks) {
  Rng rng(7);
  Table t(DiffSchema(), /*chunk_rows=*/64);
  for (int block = 0; block < 3; ++block) {
    for (int r = 0; r < 64; ++r) {
      ASSERT_TRUE(t.AppendRow({Value::String("e1"),
                               Value::String(kStates[block]),
                               Value::String("g1"), Value::Int64(block),
                               Value::Int64(1), Value::Double(1.0)})
                      .ok());
    }
  }
  Executor ex;
  EXPECT_EQ(ex.CountMatching(t, Predicate::Atom(3, Value::Int64(1)),
                             ExecContext{}),
            64u);
  EXPECT_EQ(ex.stats().chunks_skipped, 2);
  EXPECT_EQ(ex.stats().morsels, 1);
}

// ---- Morsel scans -------------------------------------------------------

TEST(ChunkedScanTest, MorselScanAccountsSkippedAndProcessedChunks) {
  Rng rng(8);
  ThreadPool pool(4);
  Table t = RandomTable(rng, 1000);
  t.SetChunkRows(64);
  const int64_t chunks = static_cast<int64_t>(t.num_chunks());
  Executor ex;
  TopKQuery q = RandomQuery(rng);
  q.predicate = Predicate();  // unselective: nothing skippable
  auto r =
      ex.Execute(t, q, ExecContext{.pool = &pool, .scan_threads = 4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ex.stats().morsels + ex.stats().chunks_skipped, chunks);
  EXPECT_EQ(ex.stats().chunks_skipped, 0);
  EXPECT_EQ(ex.stats().rows_scanned, 1000);
}

TEST(ChunkedScanTest, ParallelScanHonoursPreTrippedBudget) {
  Rng rng(9);
  ThreadPool pool(4);
  Table t = RandomTable(rng, 2000);
  t.SetChunkRows(64);
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  Executor ex;
  TopKQuery q = RandomQuery(rng);
  auto r = ex.Execute(
      t, q, ExecContext{.budget = &budget, .pool = &pool, .scan_threads = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
}

// ---- Stats reset contract -----------------------------------------------

// ResetStats during an in-flight Execute/CountMatching is a contract
// violation (see Executor::Stats): the executor never synchronizes the
// reset against morsel workers. The supported protocol — reset at
// quiescence, between executions — must leave exact totals.
TEST(ChunkedScanTest, ResetStatsAtQuiescenceYieldsExactTotals) {
  Rng rng(10);
  Table t = RandomTable(rng, 500);
  t.SetChunkRows(64);
  ThreadPool pool(4);
  Executor ex;
  TopKQuery q = RandomQuery(rng);
  q.predicate = Predicate();
  ASSERT_TRUE(
      ex.Execute(t, q, ExecContext{.pool = &pool, .scan_threads = 4}).ok());
  EXPECT_GT(ex.stats().rows_scanned, 0);
  // All executions joined: Execute returned, so every morsel worker has
  // committed its counts. The reset is exact.
  ex.ResetStats();
  EXPECT_EQ(ex.stats().queries_executed, 0);
  EXPECT_EQ(ex.stats().rows_scanned, 0);
  EXPECT_EQ(ex.stats().chunks_skipped, 0);
  EXPECT_EQ(ex.stats().morsels, 0);
  ASSERT_TRUE(
      ex.Execute(t, q, ExecContext{.pool = &pool, .scan_threads = 4}).ok());
  EXPECT_EQ(ex.stats().queries_executed, 1);
  EXPECT_EQ(ex.stats().rows_scanned, 500);
}

// The deprecated positional overloads were deleted in PR 9 (their
// equivalence suite went with them); ExecContext is the only call
// shape, enforced at compile time and by the paleo_lint exec-context
// rule tree-wide.

}  // namespace
}  // namespace paleo
