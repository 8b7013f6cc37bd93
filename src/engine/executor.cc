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
#include "storage/table_view.h"

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

/// The BudgetGate stride of the scalar per-row scan loops: one clock
/// read every ~4096 rows.
constexpr uint32_t kScalarGateStride = 4096;
/// The vectorized kernels tick the gate once per kSelectionBatchRows
/// batch; stride 2 polls the clock every other batch, i.e. at the same
/// ~4096-row cadence as the scalar path.
constexpr uint32_t kVectorGateStride = 2;

/// What a chunk scan produces per chunk.
enum class ScanMode { kRows, kGroups, kCount };

/// One chunk's contribution to a full scan. Outcomes are merged in
/// ascending chunk index order, which IS the canonical result order
/// (see the header comment on chunk-canonical scans).
struct ChunkOutcome {
  /// Zone maps refuted the whole chunk; nothing else is populated.
  bool skipped = false;
  /// The scanner fully handled this chunk (skip or scan); outcomes of
  /// unclaimed / interrupted chunks stay false and must be ignored.
  bool completed = false;
  /// Rows visited by the consumption pass (rows_scanned accounting).
  size_t visited = 0;
  size_t match_count = 0;              // kCount
  std::vector<HeapEntry> row_entries;  // kRows: scores at absolute rows
  std::vector<uint32_t> touched;       // kGroups: codes, first-touch order
  std::vector<AggState> partials;      // kGroups: parallel to `touched`
};

/// Per-worker reusable scan state: the dense group array is allocated
/// once per worker and wiped back to zero after every chunk (only the
/// touched slots are reset), so a scan's allocation cost is bounded by
/// its worker count, not its chunk count.
struct ChunkScratch {
  std::vector<AggState> groups;
};

/// \brief Chunk-granular scan engine shared by Execute and
/// CountMatching: everything invariant across the chunks of one full
/// scan. Const after construction; ProcessChunk is called concurrently
/// by morsel workers (per-worker gate/scratch/outcome, internally
/// synchronized cache).
class ChunkScanner {
 public:
  ChunkScanner(const Table& table, const TableView& view,
               const Predicate& predicate, const BoundPredicate& bound,
               ScanMode mode, const TopKQuery* query, bool vectorized,
               bool zone_skip, AtomSelectionCache* cache)
      : table_(table),
        view_(view),
        predicate_(predicate),
        bound_(bound),
        mode_(mode),
        query_(query),
        vectorized_(vectorized),
        zone_skip_(zone_skip),
        cache_(cache),
        epoch_(view.epoch()),
        entity_codes_(table.entity_column().codes().data()),
        dict_size_(table.entity_column().dict()->size()) {}

  /// Scans chunk `chunk_index` into `out`. Returns false when the gate
  /// interrupted the scan; `out` is then partial and must be discarded
  /// (its `visited` count remains meaningful for accounting).
  bool ProcessChunk(size_t chunk_index, BudgetGate* gate,
                    ChunkScratch* scratch, ChunkOutcome* out) const {
    const Chunk& ch = view_.chunk(chunk_index);
    if (zone_skip_ && RefutedByZones(ch)) {
      out->skipped = true;
      out->completed = true;
      return true;
    }
    const bool ok = vectorized_ ? ScanVectorized(chunk_index, ch, gate,
                                                 scratch, out)
                                : ScanScalar(ch, gate, scratch, out);
    out->completed = ok;
    return ok;
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

  void EnsureScratch(ChunkScratch* scratch) const {
    if (scratch->groups.size() < dict_size_) {
      scratch->groups.resize(dict_size_);
    }
  }

  /// Moves the dense per-chunk aggregates into the outcome's compact
  /// (touched, partials) form and zeroes the touched scratch slots, so
  /// the scratch is clean for the worker's next chunk. Runs even after
  /// an interrupt (the partial outcome is discarded by the caller, but
  /// the scratch must not leak state across chunks).
  void CompactGroups(ChunkScratch* scratch, ChunkOutcome* out) const {
    out->partials.reserve(out->touched.size());
    for (uint32_t code : out->touched) {
      out->partials.push_back(scratch->groups[code]);
      scratch->groups[code] = AggState{};
    }
  }

  bool ScanVectorized(size_t chunk_index, const Chunk& ch, BudgetGate* gate,
                      ChunkScratch* scratch, ChunkOutcome* out) const {
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
        EnsureScratch(scratch);
        size_t visited = 0;
        const bool done = FusedGroupAggregate(
            sel, table_, query_->expr, entity_codes_, gate, &scratch->groups,
            &out->touched, &visited, ch.begin_row);
        out->visited += visited;
        CompactGroups(scratch, out);
        return done;
      }
    }
    return true;
  }

  bool ScanScalar(const Chunk& ch, BudgetGate* gate, ChunkScratch* scratch,
                  ChunkOutcome* out) const {
    if (mode_ == ScanMode::kGroups) EnsureScratch(scratch);
    size_t visited = 0;
    bool completed = true;
    for (RowId r = ch.begin_row; r < ch.end_row; ++r) {
      if (gate->Tick() != TerminationReason::kCompleted) {
        completed = false;
        break;
      }
      ++visited;
      if (!bound_.Matches(r)) continue;
      switch (mode_) {
        case ScanMode::kCount:
          ++out->match_count;
          break;
        case ScanMode::kRows:
          out->row_entries.push_back(HeapEntry{query_->expr.Eval(table_, r),
                                               r});
          break;
        case ScanMode::kGroups: {
          const uint32_t code = entity_codes_[r];
          AggState& g = scratch->groups[code];
          if (g.count == 0) out->touched.push_back(code);
          g.Add(query_->expr.Eval(table_, r));
          break;
        }
      }
    }
    out->visited += visited;
    if (mode_ == ScanMode::kGroups) CompactGroups(scratch, out);
    return completed;
  }

  const Table& table_;
  const TableView& view_;
  const Predicate& predicate_;
  const BoundPredicate& bound_;
  const ScanMode mode_;
  const TopKQuery* query_;  // null for kCount
  const bool vectorized_;
  const bool zone_skip_;
  AtomSelectionCache* cache_;
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
                               const RunBudget* budget, uint32_t gate_stride,
                               ThreadPool* pool, int workers,
                               ThresholdState* threshold,
                               std::vector<ChunkOutcome>* outcomes) {
  // relaxed: next_chunk is a pure work-claim ticket and abort/reason
  // are advisory flags; chunk-outcome visibility is provided by the
  // future-fulfillment synchronization below, not by these atomics.
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> abort{false};
  std::atomic<TerminationReason> reason{TerminationReason::kCompleted};
  auto worker = [&]() {
    BudgetGate gate(budget, gate_stride);
    ChunkScratch scratch;
    while (!abort.load(std::memory_order_relaxed)) {
      // Threshold refutation stops claiming but is not an interrupt:
      // the caller distinguishes the refuted outcome from the merged
      // outcomes (completed chunks remain valid partials).
      if (threshold != nullptr && threshold->refuted()) break;
      const size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_chunks) break;
      if (!scanner.ProcessChunk(i, &gate, &scratch, &(*outcomes)[i])) {
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

}  // namespace

Executor::Stats Executor::stats() const {
  // relaxed: a sample of independent tallies; counters of in-flight
  // executions may be caught at different instants.
  Stats s;
  s.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.index_assisted = index_assisted_.load(std::memory_order_relaxed);
  s.scalar_fallbacks = scalar_fallbacks_.load(std::memory_order_relaxed);
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
        &scalar_fallbacks_, &chunks_skipped_, &morsels_,
        &executions_aborted_early_, &rows_saved_}) {
    counter->store(0, std::memory_order_relaxed);
  }
}

StatusOr<TopKList> Executor::Execute(const Table& table,
                                     const TopKQuery& query,
                                     const ExecContext& ctx) {
  return ExecuteImpl(table, nullptr, query, ctx);
}

StatusOr<TopKList> Executor::ExecuteOnRows(const Table& table,
                                           const std::vector<RowId>& rows,
                                           const TopKQuery& query,
                                           const ExecContext& ctx) {
  return ExecuteImpl(table, &rows, query, ctx);
}

size_t Executor::CountMatching(const Table& table, const Predicate& predicate,
                               const ExecContext& ctx) {
  if (dimension_index_ != nullptr && indexed_table_ == &table &&
      !predicate.IsTrue() && dimension_index_->Covers(predicate)) {
    return dimension_index_->Match(predicate).size();
  }
  BoundPredicate bound(predicate, table);
  const bool use_vectorized = ctx.vectorized;
  TableView view(table);
  const size_t num_chunks = view.num_chunks();
  ChunkScanner scanner(table, view, predicate, bound, ScanMode::kCount,
                       nullptr, use_vectorized, ctx.zone_map_skipping,
                       ctx.cache);
  int workers = 1;
  if (ctx.pool != nullptr && ctx.scan_threads > 1 && num_chunks > 1) {
    workers = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(ctx.scan_threads), num_chunks));
  }
  std::vector<ChunkOutcome> outcomes(num_chunks);
  // A count cannot be partially returned, so CountMatching ignores
  // ctx.budget (as the positional API always did): the gate never trips.
  RunChunkScan(scanner, num_chunks, nullptr,
               use_vectorized ? kVectorGateStride : kScalarGateStride,
               workers > 1 ? ctx.pool : nullptr, workers, nullptr, &outcomes);
  size_t count = 0;
  int64_t skipped = 0;
  int64_t morsels = 0;
  for (const ChunkOutcome& o : outcomes) {
    count += o.match_count;
    if (o.skipped) {
      ++skipped;
    } else if (o.completed) {
      ++morsels;
    }
  }
  // relaxed: pure tallies (see the counter members).
  chunks_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  morsels_.fetch_add(morsels, std::memory_order_relaxed);
  return count;
}

StatusOr<TopKList> Executor::ExecuteImpl(const Table& table,
                                         const std::vector<RowId>* rows,
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

  BoundPredicate bound(query.predicate, table);
  const Column& entities = table.entity_column();
  const StringDictionary& dict = *entities.dict();
  const bool desc = query.order == SortOrder::kDesc;

  // Index-assisted path: a fully covered conjunction over the indexed
  // base table resolves to its matching rows via posting intersection,
  // skipping the scan and the per-row predicate checks.
  std::vector<RowId> index_rows;
  bool from_index = false;
  if (rows == nullptr && dimension_index_ != nullptr &&
      indexed_table_ == &table && !query.predicate.IsTrue() &&
      dimension_index_->Covers(query.predicate)) {
    index_rows = dimension_index_->Match(query.predicate);
    rows = &index_rows;
    from_index = true;
    // relaxed: pure tallies (see the counter members).
    index_assisted_.fetch_add(1, std::memory_order_relaxed);
  }

  // Full scans take the vectorized chunk path: per-atom per-chunk
  // selection bitmaps (cache-shared across candidates), word-wise AND,
  // and bitmap-driven consumption. Row-restricted executions (R' tuple
  // sets, index postings) stay scalar — their row lists are already the
  // selection.
  //
  // Degradation ladder: when the attached cache is under memory
  // pressure (its budget shrank to zero after allocation failures) or
  // an allocation failure is injected here, the execution falls back
  // to the scalar row-at-a-time path — byte-identical results, fewer
  // bitmap allocations — instead of failing the run.
  bool use_vectorized = ctx.vectorized && rows == nullptr;
  if (use_vectorized &&
      ((ctx.cache != nullptr && ctx.cache->under_pressure()) ||
       PALEO_FAULT_POINT("executor.selection.alloc").alloc_failure())) {
    use_vectorized = false;
    // relaxed: pure tallies (see the counter members).
    scalar_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  auto account_rows = [&](size_t visited) {
    // relaxed: pure tallies (see the counter members).
    rows_scanned_.fetch_add(static_cast<int64_t>(visited),
                            std::memory_order_relaxed);
  };
  auto interrupted = [](TerminationReason reason) -> Status {
    return Status::Cancelled(std::string("query execution interrupted (") +
                             TerminationReasonToString(reason) + ")");
  };

  // Orders a before b when a ranks better (RanksBefore: NaN last);
  // ties by entity name ascending, then by group id for full
  // determinism.
  auto better = [&](double sa, const std::string& na, uint32_t ga, double sb,
                    const std::string& nb, uint32_t gb) {
    if (RanksBefore(sa, sb, desc)) return true;
    if (RanksBefore(sb, sa, desc)) return false;
    if (na != nb) return na < nb;
    return ga < gb;
  };

  // Phase 1 — scan. Produces either ranked row entries (kNone) or the
  // merged dense group aggregates, through one of two scan shapes:
  //
  //  * Row-restricted (tuple sets, index postings): a scalar pass over
  //    the row list in its own order, polled every few thousand rows.
  //  * Full scan: chunk-canonical. Each chunk yields a partial outcome
  //    (possibly skipped via zone maps); partials merge in ascending
  //    chunk order, so scalar / vectorized / morsel-parallel runs are
  //    byte-identical by construction.
  std::vector<HeapEntry> results;        // kNone entries
  std::vector<AggState> groups;          // merged dense group states
  std::vector<uint32_t> touched;         // codes in canonical order

  if (rows != nullptr) {
    BudgetGate gate(ctx.budget, kScalarGateStride);
    size_t visited = 0;
    bool completed = true;
    const bool grouped = query.agg != AggFn::kNone;
    if (grouped) {
      groups.resize(dict.size());
      // At most one slot per distinct entity is ever touched; reserving
      // at the dictionary size caps reallocation churn at one upfront
      // allocation (dictionaries are small relative to row counts).
      touched.reserve(dict.size());
    }
    for (RowId r : *rows) {
      if (gate.Tick() != TerminationReason::kCompleted) {
        completed = false;
        break;
      }
      ++visited;
      // Postings already satisfy the whole conjunction when the rows
      // came from the index.
      if (!from_index && !bound.Matches(r)) continue;
      if (grouped) {
        const uint32_t code = entities.CodeAt(r);
        AggState& g = groups[code];
        if (g.count == 0) touched.push_back(code);
        g.Add(query.expr.Eval(table, r));
      } else {
        results.push_back(HeapEntry{query.expr.Eval(table, r), r});
      }
    }
    account_rows(visited);
    if (!completed) return interrupted(gate.reason());
  } else {
    TableView view(table);
    const size_t num_chunks = view.num_chunks();
    const ScanMode mode =
        query.agg == AggFn::kNone ? ScanMode::kRows : ScanMode::kGroups;
    ChunkScanner scanner(table, view, query.predicate, bound, mode, &query,
                         use_vectorized, ctx.zone_map_skipping, ctx.cache);
    int workers = 1;
    if (ctx.pool != nullptr && ctx.scan_threads > 1 && num_chunks > 1) {
      workers = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(ctx.scan_threads), num_chunks));
    }
    // Threshold pruning engages only on grouped multi-chunk full scans
    // whose shape matches the monitor's targets: single-chunk tables
    // have no "remaining chunks" to bound against, so the check could
    // never fire before the scan finished anyway.
    std::unique_ptr<ThresholdState> tstate;
    if (ctx.threshold != nullptr && mode == ScanMode::kGroups &&
        num_chunks > 1 && ctx.threshold->AppliesTo(query)) {
      tstate = std::make_unique<ThresholdState>(ctx.threshold, table, view,
                                                query);
    }
    std::vector<ChunkOutcome> outcomes(num_chunks);
    const TerminationReason scan_reason = RunChunkScan(
        scanner, num_chunks, ctx.budget,
        use_vectorized ? kVectorGateStride : kScalarGateStride,
        workers > 1 ? ctx.pool : nullptr, workers, tstate.get(), &outcomes);

    // Accounting first (interrupted executions still report the rows
    // they visited, as the row-restricted path does).
    size_t visited = 0;
    int64_t skipped = 0;
    int64_t morsels = 0;
    for (const ChunkOutcome& o : outcomes) {
      visited += o.visited;
      if (o.skipped) {
        ++skipped;
      } else if (o.completed) {
        ++morsels;
      }
    }
    account_rows(visited);
    // relaxed: pure tallies (see the counter members).
    chunks_skipped_.fetch_add(skipped, std::memory_order_relaxed);
    morsels_.fetch_add(morsels, std::memory_order_relaxed);
    if (scan_reason != TerminationReason::kCompleted) {
      // A budget interrupt outranks refutation: the wind-down contract
      // (Status::Cancelled, identical to the unpruned path) must not
      // depend on whether the bounds happened to trip first.
      return interrupted(scan_reason);
    }
    if (tstate != nullptr && tstate->refuted()) {
      // Refutation is only actionable when some chunk was actually left
      // unscanned: when every chunk completed anyway (the flag tripped
      // on the last chunk, or racing workers drained the table first),
      // fall through and return the full canonical result — refutation
      // is sound, so the caller's comparison rejects it identically,
      // and the sequential/parallel outcomes stay consistent.
      size_t saved = 0;
      for (size_t i = 0; i < num_chunks; ++i) {
        const ChunkOutcome& o = outcomes[i];
        if (o.completed) continue;
        saved += view.chunk(i).num_rows() - o.visited;
      }
      if (saved > 0) {
        // relaxed: pure tallies (see the counter members).
        executions_aborted_early_.fetch_add(1, std::memory_order_relaxed);
        rows_saved_.fetch_add(static_cast<int64_t>(saved),
                              std::memory_order_relaxed);
        return Status::QueryRefuted(
            "threshold bounds prove the candidate cannot reproduce the "
            "target list");
      }
    }

    // Rank-order merge: strictly ascending chunk index. For kRows this
    // concatenates per-chunk entries back into global ascending row
    // order; for kGroups the first partial touching a code is COPIED
    // (not folded into a zero state) and later partials merge in chunk
    // order — single-chunk tables therefore reproduce the historical
    // single-pass bit pattern exactly.
    if (mode == ScanMode::kRows) {
      size_t total = 0;
      for (const ChunkOutcome& o : outcomes) total += o.row_entries.size();
      results.reserve(total);
      for (const ChunkOutcome& o : outcomes) {
        results.insert(results.end(), o.row_entries.begin(),
                       o.row_entries.end());
      }
    } else {
      groups.resize(dict.size());
      touched.reserve(dict.size());
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
    }
  }

  // Phase 2 — rank and truncate (shared by every scan shape).
  if (query.agg == AggFn::kNone) {
    auto name_of = [&](uint32_t row) -> const std::string& {
      return dict.Get(entities.CodeAt(row));
    };
    auto row_cmp = [&](const HeapEntry& a, const HeapEntry& b) {
      return better(a.score, name_of(a.group), a.group, b.score,
                    name_of(b.group), b.group);
    };
    // Only the best k survive: partial_sort does O(n log k) work where
    // a full sort did O(n log n). The comparator is a strict total
    // order (NaN scores included), so the first k entries are identical
    // to sort-then-truncate.
    if (results.size() > static_cast<size_t>(query.k)) {
      std::partial_sort(results.begin(),
                        results.begin() + static_cast<ptrdiff_t>(query.k),
                        results.end(), row_cmp);
      results.resize(static_cast<size_t>(query.k));
    } else {
      std::sort(results.begin(), results.end(), row_cmp);
    }
    TopKList out;
    for (const HeapEntry& e : results) {
      out.Append(name_of(e.group), e.score);
    }
    return out;
  }

  results.reserve(touched.size());
  for (uint32_t code : touched) {
    results.push_back(HeapEntry{groups[code].Finish(query.agg), code});
  }
  auto cmp = [&](const HeapEntry& a, const HeapEntry& b) {
    return better(a.score, dict.Get(a.group), a.group, b.score,
                  dict.Get(b.group), b.group);
  };
  if (results.size() > static_cast<size_t>(query.k)) {
    std::partial_sort(results.begin(),
                      results.begin() + static_cast<ptrdiff_t>(query.k),
                      results.end(), cmp);
    results.resize(static_cast<size_t>(query.k));
  } else {
    std::sort(results.begin(), results.end(), cmp);
  }
  TopKList out;
  for (const HeapEntry& e : results) {
    out.Append(dict.Get(e.group), e.score);
  }
  return out;
}

}  // namespace paleo
