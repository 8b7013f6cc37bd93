// Vectorized execution kernels (DuckDB-style selection vectors).
//
// Each kernel works on one typed column array in word-aligned batches
// of kSelectionBatchRows rows, producing (or consuming) a
// SelectionBitmap. A conjunction is evaluated atom-by-atom into per-atom
// bitmaps — cacheable across candidate queries that share the atom
// (engine/atom_cache.h) — and resolved by word-wise AND, replacing the
// per-row multi-atom branch chain of BoundPredicate::Matches on the
// executor's full-scan path.
//
// Oracle-equivalence contract: kernels visit rows in ascending order,
// so floating-point accumulation (AggState::Add) within a chunk happens
// in exactly row order — the canonical order that the naive row-loop
// oracle (tests/oracle/naive_executor.h) reproduces bit for bit
// (asserted by tests/executor_oracle_test.cc).
//
// Budget handling: the BudgetGate is polled once per batch, and an
// interrupted kernel returns false with its output partial — callers
// must discard partial state (the executor never returns or caches a
// partially scanned result).
//
// Thread-safety: kernels are pure functions of their inputs; concurrent
// calls over immutable tables are safe.

#ifndef PALEO_ENGINE_SELECTION_KERNELS_H_
#define PALEO_ENGINE_SELECTION_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/run_budget.h"
#include "engine/aggregate.h"
#include "engine/predicate.h"
#include "engine/rank_expr.h"
#include "engine/selection_bitmap.h"
#include "storage/column.h"

namespace paleo {

/// Rows evaluated per kernel batch. A multiple of 64 so batches never
/// straddle bitmap words; 2048 keeps a batch's column slice plus its
/// bitmap slice comfortably inside L1.
constexpr size_t kSelectionBatchRows = 2048;

/// Evaluates `atom` over rows [0, n) of its bound column into `out`
/// (which must cover exactly n rows), polling `gate` once per batch.
/// Returns false when the budget interrupted the scan; `out` is then
/// partial and must be discarded. `*rows_visited` (optional) receives
/// the number of rows evaluated (n on completion).
bool ComputeAtomSelection(const BoundAtom& atom, size_t n,
                          SelectionBitmap* out, BudgetGate* gate,
                          size_t* rows_visited = nullptr);

/// Chunk-range variant: evaluates `atom` over ABSOLUTE rows
/// [begin, end) of its bound column into `out`, whose bit i corresponds
/// to row begin + i (out must cover exactly end - begin rows).
/// Precondition: begin is a multiple of 64 (chunk boundaries are
/// word-aligned; see storage/table.h). Same gate/discard contract
/// as ComputeAtomSelection.
bool ComputeAtomSelectionRange(const BoundAtom& atom, RowId begin, RowId end,
                               SelectionBitmap* out, BudgetGate* gate,
                               size_t* rows_visited = nullptr);

/// Appends the selected rows of `sel` to `out` in ascending order,
/// polling `gate` once per batch. Returns false on interruption (same
/// discard contract as above). `row_offset` translates bitmap-local
/// positions to absolute row ids (bit i -> row_offset + i) for
/// per-chunk bitmaps.
bool CollectSelectedRows(const SelectionBitmap& sel, BudgetGate* gate,
                         std::vector<RowId>* out,
                         size_t* rows_visited = nullptr,
                         RowId row_offset = 0);

/// Fused filter + group-by aggregation: for each selected row of `sel`
/// in ascending order, evaluates `expr` over `table` at absolute row
/// row_offset + i (bit i of a per-chunk bitmap) and folds the value
/// into groups[entity_codes[row]], appending first-touched codes to
/// `touched` (`entity_codes` points at the FULL column array, indexed
/// by absolute row; `groups` must be pre-sized to the entity dictionary
/// and zero-count). Polls `gate` once per batch; returns false on
/// interruption with `groups`/`touched` partial.
bool FusedGroupAggregate(const SelectionBitmap& sel, const Table& table,
                         const RankExpr& expr, const uint32_t* entity_codes,
                         BudgetGate* gate, std::vector<AggState>* groups,
                         std::vector<uint32_t>* touched,
                         size_t* rows_visited = nullptr,
                         RowId row_offset = 0);

}  // namespace paleo

#endif  // PALEO_ENGINE_SELECTION_KERNELS_H_
