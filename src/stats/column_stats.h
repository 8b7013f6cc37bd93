// Simple descriptive column statistics (paper Section 5: "small data
// samples, histograms, or simple descriptive statistics computed
// upfront from the base relation R").
//
// Each statistic is only as precise as its reader needs. Min and max
// are exact over the column's numbers: NaN rows are skipped, so the
// ranking finder's range checks still prune a column holding NaN (a
// max skips NaN rows too, and a sum or avg over one is NaN, which no
// list value matches). Outside dimension columns a distinct count
// saturates at ColumnStats::kDistinctCap: its one reader, the ranking
// finder's distinct check, compares it with the number of distinct
// values of an input list, which is at most k. The stats catalog
// (stats/catalog.h) counts dimension columns exactly, because the
// probabilistic model reads their distinct counts.

#ifndef PALEO_STATS_COLUMN_STATS_H_
#define PALEO_STATS_COLUMN_STATS_H_

#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "storage/column.h"

namespace paleo {

/// \brief Min / max / distinct-count summary of one column.
struct ColumnStats {
  /// Where a distinct count outside dimension columns stops: below it
  /// the count is exact; at it the column holds at least this many
  /// distinct values. It is above every k the benchmarks use (at most
  /// 100), and the ranking finder runs its distinct check only for
  /// lists with at most this many distinct values.
  static constexpr int64_t kDistinctCap = 1024;

  double min = 0.0;           // numeric columns only
  double max = 0.0;           // numeric columns only
  int64_t distinct_count = 0;
  int64_t row_count = 0;

  /// One pass over the column: min/max, and a distinct count that
  /// saturates at kDistinctCap. Keys are dictionary codes for strings
  /// and the 64-bit pattern for int64 and double.
  static ColumnStats Build(const Column& column);

  /// Folds rows [row_count, column.size()) in, so Build(c) equals
  /// Extend from default-constructed stats. `keys` holds the distinct
  /// keys of the rows already folded while the count is below the cap
  /// (at most kDistinctCap - 1 of them); the row that saturates the
  /// count clears it, and a saturated column never touches it again.
  void Extend(const Column& column, std::unordered_set<uint64_t>* keys);

  /// Folds value `v` of row `row` into min and max, which span the
  /// column's numbers: row 0 sets both, a later number widens them or
  /// replaces a NaN, and a NaN never widens them. So they are NaN only
  /// while no row holds a number, and a fold over any split of the rows
  /// ends where one pass does.
  void FoldMinMax(double v, size_t row) {
    if (row == 0 || std::isnan(min) || v < min) min = v;
    if (row == 0 || std::isnan(max) || v > max) max = v;
  }
};

}  // namespace paleo

#endif  // PALEO_STATS_COLUMN_STATS_H_
