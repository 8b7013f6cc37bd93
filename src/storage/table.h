// Columnar table: the representation of both the base relation R and
// the in-memory slice R'.

#ifndef PALEO_STORAGE_TABLE_H_
#define PALEO_STORAGE_TABLE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/zone_map.h"
#include "types/schema.h"
#include "types/value.h"

namespace paleo {

/// \brief Append-oriented columnar table.
///
/// Rows are appended through AppendRow (checked, Value-based) or by
/// writing the typed columns directly via mutable_column (generators'
/// hot path, followed by a CheckConsistent() call).
///
/// Rows are logically partitioned into fixed-size chunks of
/// `chunk_rows()` rows (the last chunk may be shorter); each chunk
/// carries per-column min/max zone maps (storage/zone_map.h). Column
/// arrays stay contiguous — chunks are scan granules, not physical
/// segments — so direct-array readers are unaffected. AppendRows
/// maintains zone maps incrementally (sealing a full chunk and opening
/// the next one as it crosses a boundary); CheckConsistent rebuilds
/// them after direct column writes; copies preserve them.
///
/// A copy shares the original's column arrays by prefix and its
/// dictionaries until either registers a new string (storage/column.h),
/// so copying costs O(columns + chunks), not O(rows). Appending to the
/// copy or to the original never changes what the other reads: each
/// reads only its own rows and its own strings.
///
/// Thread contract: appends to one table are single-threaded; all read
/// accessors are const with no hidden mutable state, so one table (and
/// the dictionaries it shares with Gather()ed slices) may be read
/// concurrently by any number of threads, also while copies of it
/// append on other threads.
class Table {
 public:
  /// Default chunk size: 64Ki rows. Large enough that per-chunk
  /// bookkeeping vanishes, small enough that SF-1 TPC-H (~6M rows)
  /// yields ~92 morsels for the parallel scan.
  static constexpr size_t kDefaultChunkRows = 64 * 1024;

  explicit Table(Schema schema, size_t chunk_rows = kDefaultChunkRows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  int num_columns() const { return schema_.num_fields(); }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  Column* mutable_column(int i) { return &columns_[static_cast<size_t>(i)]; }

  /// Appends one row; all columns must receive a type-compatible value.
  Status AppendRow(const std::vector<Value>& row);

  /// Appends a batch of rows. Every cell of every row is validated
  /// before any column is mutated, so a failed batch leaves the table
  /// unchanged — and the epoch is re-stamped exactly ONCE per batch,
  /// not once per row, so epoch-keyed caches (the executor's
  /// AtomSelectionCache) lose at most one generation per ingested
  /// batch.
  Status AppendRows(std::span<const std::vector<Value>> rows);

  /// Deep copy: private column arrays (of the original's capacity) and
  /// private dictionaries, sharing no storage with this table. Codes
  /// are preserved, and since the contents are identical the copy
  /// keeps this table's epoch — epoch-keyed derivations stay valid
  /// until the copy is first mutated (which re-stamps it). A plain copy
  /// already isolates appends; this one also frees the copy from the
  /// original's buffers.
  Table DeepCopy() const;

  /// Called after direct column writes; verifies equal column lengths
  /// and updates num_rows().
  Status CheckConsistent();

  /// Boxed cell read.
  Value GetValue(RowId row, int col) const {
    return columns_[static_cast<size_t>(col)].GetValue(row);
  }

  /// The entity column (dictionary-coded string column).
  const Column& entity_column() const {
    return columns_[static_cast<size_t>(schema_.entity_index())];
  }

  /// Dictionary code of the entity of `row`.
  uint32_t EntityCodeAt(RowId row) const {
    return entity_column().CodeAt(row);
  }

  /// Number of distinct entities present (== entity dictionary size as
  /// generators never register unused names).
  uint32_t NumEntities() const { return entity_column().dict()->size(); }

  /// Identity-and-version stamp for caches keyed on table contents
  /// (the executor's AtomSelectionCache). Every Table instance gets a
  /// process-unique epoch at construction, and every mutation entry
  /// point (AppendRow, CheckConsistent after direct column writes)
  /// re-stamps it — so no two distinct (table, contents) pairs ever
  /// share an epoch, and cached derivations of stale contents can
  /// never be served. Reading the epoch is thread-safe under the same
  /// contract as every other accessor (table no longer being mutated).
  uint64_t epoch() const { return epoch_; }

  /// New table with the given rows, in order; shares dictionaries.
  Table Gather(const std::vector<RowId>& rows) const;

  /// Chunk layout. `chunk_rows()` is the nominal rows-per-chunk; the
  /// chunk list tiles [0, num_rows) in order (empty for an empty
  /// table). Zone maps inside each chunk are maintained by every
  /// mutation entry point, so they are always in sync with the column
  /// contents whenever the epoch is (same contract).
  size_t chunk_rows() const { return chunk_rows_; }
  size_t num_chunks() const { return chunks_.size(); }
  const Chunk& chunk(size_t i) const { return chunks_[i]; }
  const std::vector<Chunk>& chunks() const { return chunks_; }

  /// Re-partitions the table into chunks of `chunk_rows` rows (values
  /// are clamped to a multiple of 64 >= 64 so chunk boundaries align
  /// with SelectionBitmap words) and rebuilds all zone maps. The epoch
  /// is re-stamped: chunk-keyed caches (the executor's atom cache keys
  /// on (epoch, chunk, atom)) must not survive a re-chunking, as chunk
  /// indices now name different row ranges. A no-op — no rebuild, no
  /// epoch bump — when the clamped value equals the current layout.
  void SetChunkRows(size_t chunk_rows);

  /// Approximate heap footprint in bytes, including dictionaries.
  size_t MemoryUsage() const;

  /// Renders the first `max_rows` rows as an aligned text table (for
  /// examples and debugging).
  std::string ToString(size_t max_rows = 10) const;

 private:
  /// Draws the next process-unique epoch value.
  static uint64_t NextEpoch();

  /// Clamps a requested chunk size to a positive multiple of 64 (the
  /// SelectionBitmap word width), so per-chunk bitmaps never share a
  /// word across a chunk boundary.
  static size_t ClampChunkRows(size_t chunk_rows);

  /// Discards and recomputes the chunk list + zone maps from the
  /// current column contents (used after bulk/direct column writes).
  void RebuildChunks();

  /// Folds row `row` (already appended to every column) into the open
  /// chunk, sealing/opening chunks at boundaries.
  void FoldRowIntoChunks(RowId row);

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t epoch_ = 0;
  size_t chunk_rows_ = kDefaultChunkRows;
  std::vector<Chunk> chunks_;
};

}  // namespace paleo

#endif  // PALEO_STORAGE_TABLE_H_
