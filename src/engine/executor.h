// Query executor: evaluates the template query over a table with a
// filter -> hash group-by -> bounded top-k heap pipeline.
//
// This is the "database" of the reproduction: PALEO's validation step
// issues candidate queries here, exactly as the paper issues them to
// PostgreSQL.
//
// Full-table scans are CHUNK-CANONICAL: the table's fixed-size chunks
// (storage/table.h, storage/zone_map.h) are the scan granules. Per
// chunk, predicate atoms first consult the chunk's zone maps — a
// refuted chunk is skipped without touching row data — then the
// vectorized selection kernels (engine/selection_kernels.h) evaluate
// the surviving chunk into a per-chunk partial result. Partials are
// merged in ascending chunk order (rank-order merge), which defines the
// one canonical aggregation order: each chunk's rows fold in row order
// from a zero state, and chunks fold in ascending order. Sequential,
// cached, morsel-parallel and index-assisted executions all follow it,
// so their results are byte-identical by construction; the naive oracle
// in tests/oracle/naive_executor.h spells the same order out as a plain
// row loop and is the reference every path is checked against. With an
// ExecContext carrying a ThreadPool and scan_threads > 1, chunks are
// dispatched as morsels claimed by pool workers (the caller donates
// itself via WaitHelping, so scans launched from inside pool tasks
// cannot deadlock).
//
// With an AtomSelectionCache attached to the call, per-atom per-chunk
// bitmaps are reused across the candidate queries of a validation run,
// which share almost all of their atoms by construction.

#ifndef PALEO_ENGINE_EXECUTOR_H_
#define PALEO_ENGINE_EXECUTOR_H_

#include <atomic>
#include <cstdint>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/exec_context.h"
#include "engine/query.h"
#include "engine/topk_list.h"
#include "storage/table.h"

namespace paleo {

class AtomSelectionCache;
class DimensionIndex;

/// \brief Stateless query evaluation over columnar tables.
///
/// Determinism: score ties are broken by entity name ascending (and by
/// row id for no-aggregation queries), so repeated executions and
/// executions through different-but-equivalent predicates produce
/// identical lists — whether evaluated sequentially, through the
/// morsel-parallel scan, a dimension index, or cached selections.
/// Scores follow RanksBefore (engine/topk_list.h): a NaN score ranks
/// last in both directions.
///
/// Thread safety: Execute / CountMatching may be called concurrently
/// from any number of threads — the tables they read are immutable,
/// the counters behind stats() are relaxed atomics (totals over
/// completed executions are exact, snapshots taken mid-flight and
/// interrupted executions are not), and a shared AtomSelectionCache is
/// internally synchronized. Configuration
/// (SetDimensionIndex, ResetStats) is not synchronized: call it before
/// sharing the executor, never mid-flight.
class Executor {
 public:
  /// Counters accumulated across Execute / CountMatching calls, as
  /// returned by stats().
  struct Stats {
    int64_t queries_executed = 0;
    int64_t rows_scanned = 0;
    /// Executions answered from dimension-index postings instead of a
    /// full scan.
    int64_t index_assisted = 0;
    /// Chunks skipped by zone-map refutation: no row of the chunk can
    /// match the predicate, so its rows never enter rows_scanned.
    int64_t chunks_skipped = 0;
    /// Chunk-granular scan morsels actually processed (skipped chunks
    /// excluded); equals chunks-per-table on unselective scans.
    int64_t morsels = 0;
    /// Executions aborted mid-scan by threshold refutation
    /// (ExecContext::threshold): the running per-group bounds proved
    /// the result cannot equal the monitor's target list.
    int64_t executions_aborted_early = 0;
    /// Rows NOT scanned thanks to threshold refutation: the unscanned
    /// remainder of chunks never claimed (or abandoned) when an
    /// execution aborted early. Zone-map-skipped chunks do not count —
    /// they are attributed to chunks_skipped.
    int64_t rows_saved = 0;
  };

  Executor() = default;

  /// Attaches secondary dimension indexes built over `indexed_table`.
  /// Subsequent Execute calls against that exact table evaluate fully
  /// covered, non-empty predicates by posting-list intersection instead
  /// of scanning; the postings fold chunk by chunk in the canonical
  /// order, so results are byte-identical either way (asserted by
  /// tests/executor_oracle_test.cc); only wall-clock changes. Pass
  /// nullptrs to detach.
  void SetDimensionIndex(const DimensionIndex* index,
                         const Table* indexed_table) {
    dimension_index_ = index;
    indexed_table_ = indexed_table;
  }

  /// Runs `query` over `table` under `ctx` (engine/exec_context.h):
  /// budget, atom cache, morsel-parallelism, zone skipping and
  /// threshold pruning all travel in the context. Errors on non-numeric
  /// ranking columns or invalid column indices; returns
  /// Status::Cancelled when the context's budget interrupts the scan (a
  /// partially scanned result would be wrong, so interruption cannot
  /// return a list).
  StatusOr<TopKList> Execute(const Table& table, const TopKQuery& query,
                             const ExecContext& ctx);

  /// Number of rows of `table` matching `predicate` (selectivity
  /// numerator; Table 6). Routed through the chunked selection kernels
  /// (and `ctx.cache`, when given) so miner-side support counting
  /// shares the bitmaps of the validation path; zone-map skipping and
  /// morsel parallelism apply as in Execute.
  size_t CountMatching(const Table& table, const Predicate& predicate,
                       const ExecContext& ctx);

  // The pre-ExecContext positional overloads (budget/cache as trailing
  // parameters) were deprecated in PR 8 and deleted in PR 9; the
  // paleo_lint exec-context rule hard-bans the positional call shape
  // tree-wide so they cannot creep back.

  /// A snapshot of the counters.
  Stats stats() const;

  /// Zeroes every counter. Calling this while any execution is in
  /// flight on this executor is a contract violation: the execution
  /// would add its counts to the zeroed counters, splitting one
  /// execution's accounting across the reset (asserted at quiescence
  /// by tests/chunked_scan_test.cc).
  void ResetStats();

 private:
  struct ChunkScan;
  /// The one full-scan path, shared by Execute (`query` set) and
  /// CountMatching (`query` null, a count): binds `predicate`, picks the
  /// morsel worker count, runs the chunk scan under `ctx` and adds its
  /// chunks_skipped / morsels. rows_scanned is the caller's to count.
  ChunkScan ScanChunks(const Table& table, const Predicate& predicate,
                       const TopKQuery* query, const ExecContext& ctx);

  // relaxed: pure tallies (see Stats). Morsel workers and the
  // executions of one shared executor add to them concurrently; nothing
  // is ordered or published through them.
  std::atomic<int64_t> queries_executed_{0};
  std::atomic<int64_t> rows_scanned_{0};
  std::atomic<int64_t> index_assisted_{0};
  std::atomic<int64_t> chunks_skipped_{0};
  std::atomic<int64_t> morsels_{0};
  std::atomic<int64_t> executions_aborted_early_{0};
  std::atomic<int64_t> rows_saved_{0};
  const DimensionIndex* dimension_index_ = nullptr;
  const Table* indexed_table_ = nullptr;
};

}  // namespace paleo

#endif  // PALEO_ENGINE_EXECUTOR_H_
