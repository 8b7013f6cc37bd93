#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "common/fault_points.h"
#include "common/thread_pool.h"
#include "engine/atom_cache.h"
#include "engine/selection_bitmap.h"
#include "engine/selection_kernels.h"
#include "engine/threshold_monitor.h"
#include "index/dimension_index.h"

namespace paleo {

namespace {

/// Validates the query's column references against the table's schema.
Status ValidateQuery(const Table& table, const TopKQuery& query) {
  const Schema& schema = table.schema();
  auto check_numeric = [&](int col) -> Status {
    if (col < 0 || col >= schema.num_fields()) {
      return Status::InvalidArgument("ranking column index " +
                                     std::to_string(col) + " out of range");
    }
    if (!IsNumeric(schema.field(col).type)) {
      return Status::TypeError("ranking column " + schema.field(col).name +
                               " is not numeric");
    }
    return Status::OK();
  };
  PALEO_RETURN_NOT_OK(check_numeric(query.expr.column_a()));
  if (!query.expr.is_single_column()) {
    PALEO_RETURN_NOT_OK(check_numeric(query.expr.column_b()));
  }
  for (const AtomicPredicate& a : query.predicate.atoms()) {
    if (a.column < 0 || a.column >= schema.num_fields()) {
      return Status::InvalidArgument("predicate column index " +
                                     std::to_string(a.column) +
                                     " out of range");
    }
  }
  if (query.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(query.k));
  }
  return Status::OK();
}

/// Candidate result row ordered by (score, tie-break name, row id).
struct HeapEntry {
  double score;
  uint32_t group;  // entity code, or row id for kNone
};

/// The kernels tick the BudgetGate once per kSelectionBatchRows batch;
/// stride 2 polls the clock every other batch, i.e. every ~4096 rows.
constexpr uint32_t kChunkGateStride = 2;
/// The posting loop ticks once per row: the same ~4096-row cadence.
constexpr uint32_t kPostingGateStride = 4096;

/// What a chunk scan produces per chunk.
enum class ScanMode { kRows, kGroups, kCount };

/// One chunk's contribution to a full scan. Outcomes are merged in
/// ascending chunk index order, which IS the canonical result order
/// (see the header comment on chunk-canonical scans).
struct ChunkOutcome {
  /// Zone maps refuted the whole chunk; nothing else is populated.
  bool skipped = false;
  /// The chunk was fully handled (skipped, scanned, or its postings
  /// folded); outcomes of unclaimed / interrupted chunks, and of chunks
  /// without postings, stay false and must be ignored.
  bool completed = false;
  /// Rows visited by the consumption pass (rows_scanned accounting).
  size_t visited = 0;
  size_t match_count = 0;              // kCount
  std::vector<HeapEntry> row_entries;  // kRows: scores at absolute rows
  std::vector<uint32_t> touched;       // kGroups: codes, first-touch order
  std::vector<AggState> partials;      // kGroups: parallel to `touched`
};

/// Moves the dense per-chunk aggregates into the outcome's compact
/// (touched, partials) form and zeroes the touched slots of `groups`
/// (a pooled array, engine/group_pool.h), so it is clean for the next
/// chunk and for its next borrower. Runs even after an interrupt: the
/// partial outcome is discarded by the caller, but the array must not
/// carry state past it.
void CompactGroups(AggState* groups, ChunkOutcome* out) {
  out->partials.reserve(out->touched.size());
  for (uint32_t code : out->touched) {
    out->partials.push_back(groups[code]);
    groups[code] = AggState{};
  }
}

/// \brief Chunk-granular scan engine of the full scan: everything
/// invariant across the chunks of one scan. Const after construction;
/// ProcessChunk is called concurrently by morsel workers (per-worker
/// gate/group array/outcome, internally synchronized cache and pool).
class ChunkScanner {
 public:
  ChunkScanner(const Table& table, const Predicate& predicate,
               const BoundPredicate& bound, ScanMode mode,
               const TopKQuery* query, bool zone_skip,
               AtomSelectionCache* cache, GroupArrayPool* group_pool)
      : table_(table),
        predicate_(predicate),
        bound_(bound),
        mode_(mode),
        query_(query),
        zone_skip_(zone_skip),
        cache_(cache),
        group_pool_(group_pool),
        epoch_(table.epoch()),
        entity_codes_(table.entity_column().codes().data()),
        dict_size_(table.entity_column().dict()->size()) {}

  /// The dense group array one worker folds its chunks into: borrowed
  /// from the executor's pool for a grouped scan, empty otherwise.
  std::vector<AggState> BorrowGroups() const {
    if (mode_ != ScanMode::kGroups) return {};
    return group_pool_->Borrow(dict_size_);
  }
  /// Hands a worker's array back; every chunk left it zeroed.
  void ReturnGroups(std::vector<AggState> groups) const {
    if (mode_ == ScanMode::kGroups) group_pool_->Return(std::move(groups));
  }

  /// Scans chunk `chunk_index` into `out`, folding a grouped scan's
  /// rows through `groups` (BorrowGroups), which it leaves zeroed.
  /// Returns false when the gate interrupted the scan; `out` is then
  /// partial and must be discarded (its `visited` count remains
  /// meaningful for accounting).
  bool ProcessChunk(size_t chunk_index, BudgetGate* gate, AggState* groups,
                    ChunkOutcome* out) const {
    const Chunk& ch = table_.chunk(chunk_index);
    if (zone_skip_ && RefutedByZones(ch)) {
      out->skipped = true;
      out->completed = true;
      return true;
    }
    out->completed = Scan(chunk_index, ch, gate, groups, out);
    return out->completed;
  }

 private:
  bool RefutedByZones(const Chunk& ch) const {
    const std::vector<AtomicPredicate>& atoms = predicate_.atoms();
    const std::vector<BoundAtom>& bound_atoms = bound_.atoms();
    for (size_t i = 0; i < bound_atoms.size(); ++i) {
      const size_t col = static_cast<size_t>(atoms[i].column);
      if (AtomRefutedByZone(bound_atoms[i], ch.zones[col])) return true;
    }
    return false;
  }

  /// Resolves the conjunction's selection over the chunk via the
  /// per-atom kernels, consulting the (epoch, chunk, atom) cache first.
  /// Returns false when the budget interrupted (never caches partials).
  bool BuildChunkSelection(size_t chunk_index, const Chunk& ch,
                           BudgetGate* gate, SelectionBitmap* out) const {
    const size_t n = ch.num_rows();
    const std::vector<AtomicPredicate>& atoms = predicate_.atoms();
    const std::vector<BoundAtom>& bound_atoms = bound_.atoms();
    if (atoms.empty()) {
      *out = SelectionBitmap::AllSet(n);
      return true;
    }
    bool first = true;
    for (size_t i = 0; i < bound_atoms.size(); ++i) {
      std::shared_ptr<const SelectionBitmap> bm;
      if (cache_ != nullptr) {
        bm = cache_->Lookup(epoch_, static_cast<uint32_t>(chunk_index),
                            atoms[i]);
      }
      if (bm == nullptr) {
        SelectionBitmap fresh(n);
        if (!ComputeAtomSelectionRange(bound_atoms[i], ch.begin_row,
                                       ch.end_row, &fresh, gate)) {
          return false;
        }
        bm = cache_ != nullptr
                 ? cache_->Insert(epoch_, static_cast<uint32_t>(chunk_index),
                                  atoms[i], std::move(fresh))
                 : std::make_shared<const SelectionBitmap>(std::move(fresh));
      }
      if (first) {
        *out = *bm;
        first = false;
      } else {
        out->AndWith(*bm);
      }
    }
    return true;
  }

  bool Scan(size_t chunk_index, const Chunk& ch, BudgetGate* gate,
            AggState* groups, ChunkOutcome* out) const {
    SelectionBitmap sel;
    if (!BuildChunkSelection(chunk_index, ch, gate, &sel)) return false;
    switch (mode_) {
      case ScanMode::kCount:
        out->match_count = sel.CountSet();
        out->visited = ch.num_rows();
        return true;
      case ScanMode::kRows: {
        std::vector<RowId> matching;
        matching.reserve(sel.CountSet());
        size_t visited = 0;
        const bool done = CollectSelectedRows(sel, gate, &matching, &visited,
                                              ch.begin_row);
        out->visited += visited;
        if (!done) return false;
        out->row_entries.reserve(matching.size());
        for (RowId r : matching) {
          out->row_entries.push_back(HeapEntry{query_->expr.Eval(table_, r),
                                               r});
        }
        return true;
      }
      case ScanMode::kGroups: {
        size_t visited = 0;
        const bool done =
            FusedGroupAggregate(sel, table_, query_->expr, entity_codes_,
                                gate, groups, &out->touched, &visited,
                                ch.begin_row);
        out->visited += visited;
        CompactGroups(groups, out);
        return done;
      }
    }
    return true;
  }

  const Table& table_;
  const Predicate& predicate_;
  const BoundPredicate& bound_;
  const ScanMode mode_;
  const TopKQuery* query_;  // null for kCount
  const bool zone_skip_;
  AtomSelectionCache* cache_;
  GroupArrayPool* group_pool_;
  const uint64_t epoch_;
  const uint32_t* entity_codes_;
  const size_t dict_size_;
};

/// Runs the scanner over every chunk — on the calling thread, or as
/// morsels claimed from a shared atomic counter by `workers` pool tasks
/// (the caller joins via WaitHelping, donating itself, so scans issued
/// from inside pool tasks cannot deadlock). Per-chunk outcomes land at
/// their chunk's index in `outcomes`; the merge happens in the caller,
/// strictly in ascending chunk order, which makes the result
/// independent of claim interleaving. Returns kCompleted, or the first
/// interrupting termination reason (the scan is then abandoned).
TerminationReason RunChunkScan(const ChunkScanner& scanner, size_t num_chunks,
                               const RunBudget* budget, ThreadPool* pool,
                               int workers, ThresholdState* threshold,
                               std::vector<ChunkOutcome>* outcomes) {
  // relaxed: next_chunk is a pure work-claim ticket and abort/reason
  // are advisory flags; chunk-outcome visibility is provided by the
  // future-fulfillment synchronization below, not by these atomics.
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> abort{false};
  std::atomic<TerminationReason> reason{TerminationReason::kCompleted};
  auto worker = [&]() {
    BudgetGate gate(budget, kChunkGateStride);
    std::vector<AggState> groups = scanner.BorrowGroups();
    while (!abort.load(std::memory_order_relaxed)) {
      // Threshold refutation stops claiming but is not an interrupt:
      // the caller distinguishes the refuted outcome from the merged
      // outcomes (completed chunks remain valid partials).
      if (threshold != nullptr && threshold->refuted()) break;
      const size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_chunks) break;
      if (!scanner.ProcessChunk(i, &gate, groups.data(), &(*outcomes)[i])) {
        // First interrupt wins; racing stores agree on "not completed"
        // and the exact reason is advisory.
        reason.store(gate.reason(), std::memory_order_relaxed);
        abort.store(true, std::memory_order_relaxed);
        break;
      }
      if (threshold != nullptr) {
        const ChunkOutcome& o = (*outcomes)[i];
        if (o.skipped) {
          threshold->NoteChunkSkipped(i);
        } else {
          threshold->NoteChunk(i, o.touched, o.partials);
        }
      }
    }
    scanner.ReturnGroups(std::move(groups));
  };
  if (pool != nullptr && workers > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      futures.push_back(pool->Submit(worker));
    }
    // Future fulfillment synchronizes-with WaitHelping's wait, so the
    // outcomes written by pool workers are visible to the merge below.
    for (std::future<void>& f : futures) pool->WaitHelping(f);
  } else {
    worker();
  }
  return reason.load(std::memory_order_relaxed);
}

/// Folds index postings (ascending row ids, each satisfying the whole
/// conjunction) into one outcome per chunk of `table`, in the full
/// scan's shape: rows of one chunk aggregate from zero in row order and
/// compact exactly as a scanned chunk does, so the caller's
/// ascending-chunk merge gives the full scan's sums. A grouped query
/// folds through an array borrowed from `group_pool` and handed back
/// zeroed. Chunks without postings stay uncompleted. Returns false when
/// the gate interrupted the loop.
bool ScanPostings(const Table& table, const std::vector<RowId>& rows,
                  const TopKQuery& query, GroupArrayPool* group_pool,
                  BudgetGate* gate, std::vector<ChunkOutcome>* outcomes,
                  size_t* visited) {
  const bool grouped = query.agg != AggFn::kNone;
  const uint32_t* entity_codes = table.entity_column().codes().data();
  const size_t chunk_rows = table.chunk_rows();
  outcomes->resize(table.num_chunks());
  std::vector<AggState> groups;
  if (grouped) {
    groups = group_pool->Borrow(table.entity_column().dict()->size());
  }
  ChunkOutcome* out = nullptr;
  auto close_chunk = [&]() {
    if (out != nullptr && grouped) CompactGroups(groups.data(), out);
  };
  bool completed = true;
  for (RowId r : rows) {
    if (gate->Tick() != TerminationReason::kCompleted) {
      completed = false;
      break;
    }
    ++*visited;
    ChunkOutcome* chunk_out = &(*outcomes)[r / chunk_rows];
    if (chunk_out != out) {
      close_chunk();
      out = chunk_out;
      out->completed = true;
    }
    if (grouped) {
      const uint32_t code = entity_codes[r];
      AggState& g = groups[code];
      if (g.count == 0) out->touched.push_back(code);
      g.Add(query.expr.Eval(table, r));
    } else {
      out->row_entries.push_back(HeapEntry{query.expr.Eval(table, r), r});
    }
  }
  // Also on interruption: compacting the open chunk zeroes its slots,
  // so the array goes back to the pool clean.
  close_chunk();
  if (grouped) group_pool->Return(std::move(groups));
  return completed;
}

}  // namespace

/// What one full chunk scan leaves for its caller.
struct Executor::ChunkScan {
  /// Per-chunk outcomes, at their chunk index.
  std::vector<ChunkOutcome> outcomes;
  /// kCompleted, or the reason the budget interrupted the scan.
  TerminationReason reason = TerminationReason::kCompleted;
  /// Rows visited by the consumption passes.
  size_t visited = 0;
  /// Rows left unscanned when threshold refutation stopped the scan
  /// early; 0 when it did not (or every chunk completed anyway).
  size_t rows_saved = 0;
};

Executor::ChunkScan Executor::ScanChunks(const Table& table,
                                         const Predicate& predicate,
                                         const TopKQuery* query,
                                         const ExecContext& ctx) {
  const ScanMode mode = query == nullptr              ? ScanMode::kCount
                        : query->agg == AggFn::kNone ? ScanMode::kRows
                                                     : ScanMode::kGroups;
  BoundPredicate bound(predicate, table);
  const size_t num_chunks = table.num_chunks();
  ChunkScanner scanner(table, predicate, bound, mode, query,
                       ctx.zone_map_skipping, ctx.cache, &group_pool_);
  int workers = 1;
  if (ctx.pool != nullptr && ctx.scan_threads > 1 && num_chunks > 1) {
    workers = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(ctx.scan_threads), num_chunks));
  }
  // Threshold pruning engages only on grouped multi-chunk scans whose
  // shape matches the monitor's targets: single-chunk tables have no
  // "remaining chunks" to bound against, so the check could never fire
  // before the scan finished anyway.
  std::unique_ptr<ThresholdState> tstate;
  if (ctx.threshold != nullptr && mode == ScanMode::kGroups &&
      num_chunks > 1 && ctx.threshold->AppliesTo(*query)) {
    tstate = std::make_unique<ThresholdState>(ctx.threshold, table, *query,
                                              &group_pool_);
  }
  ChunkScan scan;
  scan.outcomes.resize(num_chunks);
  scan.reason = RunChunkScan(scanner, num_chunks, ctx.budget,
                             workers > 1 ? ctx.pool : nullptr, workers,
                             tstate.get(), &scan.outcomes);
  // Refutation is only actionable when some chunk was actually left
  // unscanned: when every chunk completed anyway (the flag tripped on
  // the last chunk, or racing workers drained the table first), the
  // full canonical result stands — refutation is sound, so the caller's
  // comparison rejects it identically, and the sequential and parallel
  // outcomes stay consistent.
  const bool refuted = tstate != nullptr && tstate->refuted();
  int64_t skipped = 0;
  int64_t morsels = 0;
  for (size_t i = 0; i < num_chunks; ++i) {
    const ChunkOutcome& o = scan.outcomes[i];
    scan.visited += o.visited;
    if (o.skipped) {
      ++skipped;
    } else if (o.completed) {
      ++morsels;
    } else if (refuted) {
      scan.rows_saved += table.chunk(i).num_rows() - o.visited;
    }
  }
  // relaxed: pure tallies (see the counter members).
  chunks_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  morsels_.fetch_add(morsels, std::memory_order_relaxed);
  return scan;
}

Executor::Stats Executor::stats() const {
  // relaxed: a sample of independent tallies; counters of in-flight
  // executions may be caught at different instants.
  Stats s;
  s.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.index_assisted = index_assisted_.load(std::memory_order_relaxed);
  s.chunks_skipped = chunks_skipped_.load(std::memory_order_relaxed);
  s.morsels = morsels_.load(std::memory_order_relaxed);
  s.executions_aborted_early =
      executions_aborted_early_.load(std::memory_order_relaxed);
  s.rows_saved = rows_saved_.load(std::memory_order_relaxed);
  return s;
}

void Executor::ResetStats() {
  // relaxed: stores happen at quiescence (see the header), so no
  // concurrent accumulator needs ordering against them.
  for (std::atomic<int64_t>* counter :
       {&queries_executed_, &rows_scanned_, &index_assisted_,
        &chunks_skipped_, &morsels_, &executions_aborted_early_,
        &rows_saved_}) {
    counter->store(0, std::memory_order_relaxed);
  }
}

size_t Executor::CountMatching(const Table& table, const Predicate& predicate,
                               const ExecContext& ctx) {
  if (dimension_index_ != nullptr && indexed_table_ == &table &&
      !predicate.IsTrue() && dimension_index_->Covers(predicate)) {
    return dimension_index_->Match(predicate).size();
  }
  // A count cannot be partially returned, so CountMatching ignores
  // ctx.budget: the gate never trips.
  ExecContext count_ctx = ctx;
  count_ctx.budget = nullptr;
  const ChunkScan scan = ScanChunks(table, predicate, nullptr, count_ctx);
  size_t count = 0;
  for (const ChunkOutcome& o : scan.outcomes) count += o.match_count;
  return count;
}

StatusOr<TopKList> Executor::Execute(const Table& table,
                                     const TopKQuery& query,
                                     const ExecContext& ctx) {
  PALEO_RETURN_NOT_OK(ValidateQuery(table, query));
  // Chaos hook: an injected Cancelled simulates a mid-scan budget
  // interruption (wind-down, not failure); other codes simulate a hard
  // execution error. Delays make scans slow enough to wedge.
  FaultResult scan_fault = PALEO_FAULT_POINT("executor.execute.scan");
  if (scan_fault.error()) return scan_fault.status;
  // relaxed: pure tallies (see the counter members).
  queries_executed_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1 — per-chunk outcomes, from one of two sources:
  //
  //  * Index-assisted: a fully covered conjunction over the indexed
  //    base table resolves to its matching rows via posting
  //    intersection; the posting loop folds them chunk by chunk.
  //    Sequential, never threshold-pruned, no morsels or zone skips.
  //  * Full scan: chunk-canonical (see the header comment), possibly
  //    zone-skipped, morsel-parallel or threshold-refuted.
  std::vector<ChunkOutcome> outcomes;
  size_t visited = 0;
  size_t rows_saved = 0;
  TerminationReason reason = TerminationReason::kCompleted;
  if (dimension_index_ != nullptr && indexed_table_ == &table &&
      !query.predicate.IsTrue() && dimension_index_->Covers(query.predicate)) {
    // relaxed: pure tallies (see the counter members).
    index_assisted_.fetch_add(1, std::memory_order_relaxed);
    BudgetGate gate(ctx.budget, kPostingGateStride);
    if (!ScanPostings(table, dimension_index_->Match(query.predicate), query,
                      &group_pool_, &gate, &outcomes, &visited)) {
      reason = gate.reason();
    }
  } else {
    ChunkScan scan = ScanChunks(table, query.predicate, &query, ctx);
    outcomes = std::move(scan.outcomes);
    visited = scan.visited;
    rows_saved = scan.rows_saved;
    reason = scan.reason;
  }
  // Interrupted and refuted executions still report the rows they
  // visited. relaxed: pure tallies (see the counter members).
  rows_scanned_.fetch_add(static_cast<int64_t>(visited),
                          std::memory_order_relaxed);
  // A budget interrupt outranks refutation: the wind-down contract
  // (Status::Cancelled, identical to the unpruned path) must not depend
  // on whether the bounds happened to trip first.
  if (reason != TerminationReason::kCompleted) {
    return Status::Cancelled(std::string("query execution interrupted (") +
                             TerminationReasonToString(reason) + ")");
  }
  if (rows_saved > 0) {
    // relaxed: pure tallies (see the counter members).
    executions_aborted_early_.fetch_add(1, std::memory_order_relaxed);
    rows_saved_.fetch_add(static_cast<int64_t>(rows_saved),
                          std::memory_order_relaxed);
    return Status::QueryRefuted(
        "threshold bounds prove the candidate cannot reproduce the target "
        "list");
  }

  // Phase 2 — rank-order merge: strictly ascending chunk index. For
  // kNone this concatenates per-chunk entries back into global
  // ascending row order; for groups the first partial touching a code
  // is COPIED (not folded into a zero state) and later partials merge
  // in chunk order — single-chunk tables therefore reproduce the
  // single-pass bit pattern exactly.
  const Column& entities = table.entity_column();
  const StringDictionary& dict = *entities.dict();
  const bool grouped = query.agg != AggFn::kNone;
  std::vector<HeapEntry> results;
  if (!grouped) {
    size_t total = 0;
    for (const ChunkOutcome& o : outcomes) total += o.row_entries.size();
    results.reserve(total);
    for (const ChunkOutcome& o : outcomes) {
      results.insert(results.end(), o.row_entries.begin(),
                     o.row_entries.end());
    }
  } else {
    std::vector<AggState> groups = group_pool_.Borrow(dict.size());
    std::vector<uint32_t> touched;  // codes in canonical order
    for (const ChunkOutcome& o : outcomes) {
      if (o.skipped || !o.completed) continue;
      for (size_t i = 0; i < o.touched.size(); ++i) {
        const uint32_t code = o.touched[i];
        AggState& g = groups[code];
        if (g.count == 0) {
          touched.push_back(code);
          g = o.partials[i];
        } else {
          g.Merge(o.partials[i]);
        }
      }
    }
    results.reserve(touched.size());
    for (uint32_t code : touched) {
      results.push_back(HeapEntry{groups[code].Finish(query.agg), code});
      groups[code] = AggState{};
    }
    group_pool_.Return(std::move(groups));
  }

  // Phase 3 — rank and truncate. A ranks before b when its score does
  // (RanksBefore: NaN last); ties by entity name ascending, then by
  // group id (code, or row id for kNone) for full determinism.
  const bool desc = query.order == SortOrder::kDesc;
  auto name_of = [&](const HeapEntry& e) -> const std::string& {
    return dict.Get(grouped ? e.group : entities.CodeAt(e.group));
  };
  auto better = [&](const HeapEntry& a, const HeapEntry& b) {
    if (RanksBefore(a.score, b.score, desc)) return true;
    if (RanksBefore(b.score, a.score, desc)) return false;
    const std::string& na = name_of(a);
    const std::string& nb = name_of(b);
    if (na != nb) return na < nb;
    return a.group < b.group;
  };
  // Only the best k survive: partial_sort does O(n log k) work where a
  // full sort did O(n log n). The comparator is a strict total order
  // (NaN scores included), so the first k entries are identical to
  // sort-then-truncate.
  if (results.size() > static_cast<size_t>(query.k)) {
    std::partial_sort(results.begin(),
                      results.begin() + static_cast<ptrdiff_t>(query.k),
                      results.end(), better);
    results.resize(static_cast<size_t>(query.k));
  } else {
    std::sort(results.begin(), results.end(), better);
  }
  TopKList out;
  for (const HeapEntry& e : results) out.Append(name_of(e), e.score);
  return out;
}

}  // namespace paleo
