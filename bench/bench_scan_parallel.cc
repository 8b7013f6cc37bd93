// Microbenchmarks for chunked storage and morsel-parallel scans (PR
// "chunked columnar storage + zone maps + morsel scans"): single
// candidate-query full scans over TPC-H at PALEO_SF, sequential vs
// morsel-parallel at increasing scan_threads, plus a zone-map ablation
// over a clustered table where per-chunk min/max actually refutes.
//
//   FullScan_Sequential     one vectorized scan on the calling thread
//   FullScan_Parallel/N     same scan, chunks claimed by N pool workers
//   SelectiveScan_NoSkip    selective scan, zone maps ignored
//   SelectiveScan_ZoneSkip  selective scan, refuted chunks skipped
//
// The Sequential/Parallel pair is the before/after recorded in
// BENCH_pr8.json by bench/run_benchmarks.sh (BENCH_BIN=
// bench_scan_parallel). Parallel speedups need real cores; the
// chunks_skipped counter is reported either way. PALEO_CHUNK_ROWS
// (default 8192) sizes chunks so even small PALEO_SF tables decompose
// into enough morsels to scale.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bench_env.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/exec_context.h"
#include "engine/executor.h"

namespace paleo {
namespace {

size_t ChunkRows() {
  return static_cast<size_t>(bench::EnvInt("PALEO_CHUNK_ROWS", 8192));
}

const Table& SharedTpch() {
  static Table table = [] {
    bench::Env env;
    Table t = bench::BuildTpch(env);
    t.SetChunkRows(ChunkRows());
    return t;
  }();
  return table;
}

/// An unselective aggregation query: every chunk survives zone
/// refutation, so wall-clock measures pure scan throughput.
TopKQuery ScanQuery(const Table& table) {
  TopKQuery q;
  q.expr = RankExpr::Column(table.schema().FieldIndex("o_totalprice"));
  q.agg = AggFn::kSum;
  q.k = 10;
  return q;
}

void BM_FullScan_Sequential(benchmark::State& state) {
  const Table& table = SharedTpch();
  const TopKQuery q = ScanQuery(table);
  Executor ex;
  for (auto _ : state) {
    auto result = ex.Execute(table, q, ExecContext{});
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_rows()));
  state.counters["chunks"] = static_cast<double>(table.num_chunks());
}
BENCHMARK(BM_FullScan_Sequential);

void BM_FullScan_Parallel(benchmark::State& state) {
  const Table& table = SharedTpch();
  const TopKQuery q = ScanQuery(table);
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<size_t>(threads));
  Executor ex;
  for (auto _ : state) {
    auto result = ex.Execute(
        table, q, ExecContext{.pool = &pool, .scan_threads = threads});
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_rows()));
  state.counters["chunks"] = static_cast<double>(table.num_chunks());
}
BENCHMARK(BM_FullScan_Parallel)->Arg(2)->Arg(4)->Arg(8);

/// Clustered table for the zone-map ablation: rows arrive in ascending
/// `day` order (the natural layout of ingested time-series), so a
/// narrow day range refutes almost every chunk from its min/max alone.
const Table& SharedClustered() {
  static Table table = [] {
    bench::Env env;
    const size_t rows = std::max<size_t>(
        65536, static_cast<size_t>(1e6 * env.scale_factor));
    auto schema = Schema::Make({
        {"entity", DataType::kString, FieldRole::kEntity},
        {"day", DataType::kInt64, FieldRole::kDimension},
        {"value", DataType::kDouble, FieldRole::kMeasure},
    });
    PALEO_CHECK(schema.ok()) << "clustered schema";
    Table t(*schema, ChunkRows());
    Rng rng(env.seed);
    const int64_t days = 512;
    for (size_t r = 0; r < rows; ++r) {
      const int64_t day =
          static_cast<int64_t>(r * static_cast<size_t>(days) / rows);
      PALEO_CHECK(
          t.AppendRow({Value::String("e" + std::to_string(rng.Uniform(64))),
                       Value::Int64(day),
                       Value::Double(rng.UniformDouble(0.0, 1000.0))})
              .ok())
          << "clustered append";
    }
    return t;
  }();
  return table;
}

TopKQuery SelectiveQuery(const Table& table) {
  TopKQuery q;
  const int day = table.schema().FieldIndex("day");
  // ~1/64 of the day range: with clustered chunks nearly every chunk's
  // [min, max] misses the window entirely.
  q.predicate = Predicate({AtomicPredicate::Range(day, Value::Int64(256),
                                                  Value::Int64(263))});
  q.expr = RankExpr::Column(table.schema().FieldIndex("value"));
  q.agg = AggFn::kSum;
  q.k = 10;
  return q;
}

void RunSelective(benchmark::State& state, bool zone_skip) {
  const Table& table = SharedClustered();
  const TopKQuery q = SelectiveQuery(table);
  Executor ex;
  for (auto _ : state) {
    auto result = ex.Execute(
        table, q, ExecContext{.zone_map_skipping = zone_skip});
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_rows()));
  state.counters["chunks_skipped"] = static_cast<double>(
      ex.stats().chunks_skipped / std::max<int64_t>(1, state.iterations()));
  state.counters["chunks"] = static_cast<double>(table.num_chunks());
}

void BM_SelectiveScan_NoSkip(benchmark::State& state) {
  RunSelective(state, /*zone_skip=*/false);
}
BENCHMARK(BM_SelectiveScan_NoSkip);

void BM_SelectiveScan_ZoneSkip(benchmark::State& state) {
  RunSelective(state, /*zone_skip=*/true);
}
BENCHMARK(BM_SelectiveScan_ZoneSkip);

}  // namespace
}  // namespace paleo
