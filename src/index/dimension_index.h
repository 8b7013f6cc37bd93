// Secondary indexes on dimension columns.
//
// Candidate-query validation executes many conjunctive-equality
// queries against R. With a posting list per (dimension column, value),
// the executor can intersect postings instead of scanning R — the
// standard inverted-index evaluation strategy. The paper validates
// against PostgreSQL with only an entity index (full scans); this
// index is an optional substrate improvement that changes none of the
// measured quantities (executions, candidates) — only wall-clock.
// bench_micro_executor quantifies the difference.
//
// Each posting list is a PrefixArray (storage/prefix_array.h), so an
// index built incrementally off a previous one shares every posting
// with it by prefix: BuildIncremental copies only the per-key
// (buffer, length) maps and appends the delta rows past the previous
// lengths.
//
// Thread contract: immutable after Build(); Lookup/Covers/Match are
// const, allocate only caller-local state, and may run concurrently
// from any number of threads over one shared instance, also while an
// index built off it appends to the postings they share.

#ifndef PALEO_INDEX_DIMENSION_INDEX_H_
#define PALEO_INDEX_DIMENSION_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/predicate.h"
#include "storage/prefix_array.h"
#include "storage/table.h"

namespace paleo {

/// \brief Posting lists for every (dimension column, value) pair of a
/// table.
class DimensionIndex {
 public:
  /// One pass per dimension column.
  static DimensionIndex Build(const Table& table);

  /// Builds the index for `table` off `prev`, which must index exactly
  /// the first `old_rows` rows of `table`. Shares `prev`'s postings by
  /// prefix and appends only the delta rows (ascending row ids keep
  /// postings sorted; `prev` reads what it read before); dictionary
  /// references are re-pointed at `table`'s own columns, whose
  /// dictionaries a batch with new strings replaced. Identical lookup
  /// behavior to Build(table).
  static DimensionIndex BuildIncremental(const DimensionIndex& prev,
                                         const Table& table,
                                         size_t old_rows);

  /// Rows matching `column = value`, ascending; empty if the value is
  /// absent or the column is not indexed. Valid for the life of this
  /// index.
  std::span<const RowId> Lookup(int column, const Value& value) const;

  /// True if every atom of the predicate references an indexed column
  /// (so the predicate can be evaluated from postings alone).
  bool Covers(const Predicate& predicate) const;

  /// Rows matching the whole conjunction, ascending: postings are
  /// intersected smallest-first. Precondition: Covers(predicate) and
  /// !predicate.IsTrue().
  std::vector<RowId> Match(const Predicate& predicate) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  // Per indexed column: value-key -> posting. Keys normalize values to
  // 64 bits (dictionary code / int64 / double bits), consistent with
  // the column's physical type. A DOUBLE key folds -0.0 into +0.0, and
  // NaN rows are posted nowhere, so postings agree with the scan's ==.
  struct ColumnPostings {
    DataType type = DataType::kString;
    std::unordered_map<uint64_t, PrefixArray<RowId>> by_value;
  };

  /// Posts rows [from, table.num_rows()) of every dimension column:
  /// the whole table for Build, the delta for BuildIncremental.
  void Append(const Table& table, size_t from);

  /// Normalizes `value` to the column's key space; false if the value
  /// cannot match the column (type mismatch / unknown dictionary
  /// string / NaN).
  bool KeyFor(int column, const Value& value, uint64_t* key) const;

  std::unordered_map<int, ColumnPostings> columns_;
  // Dictionaries of indexed string columns, for constant resolution.
  std::unordered_map<int, std::shared_ptr<const StringDictionary>> dicts_;
};

}  // namespace paleo

#endif  // PALEO_INDEX_DIMENSION_INDEX_H_
