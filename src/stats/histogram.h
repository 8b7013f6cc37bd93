// Equi-width histograms over numeric columns.
//
// The paper (Section 5.2) uses equi-width histograms with 1000 cells
// per numeric column of R, samples k values from each histogram, and
// ranks columns by the L1 distance between the sampled values and the
// input list's values.

#ifndef PALEO_STATS_HISTOGRAM_H_
#define PALEO_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "storage/column.h"

namespace paleo {

/// \brief Equi-width histogram of a numeric column.
class Histogram {
 public:
  /// Builds a histogram with `num_cells` equal-width cells spanning
  /// [min, max] of the data's numbers. NaN values are not binned and
  /// not counted; a column with no number yields an empty histogram.
  static Histogram Build(const Column& column, int num_cells = 1000);

  /// Builds from raw values (used by tests and by derived histograms).
  static Histogram BuildFromValues(const std::vector<double>& values,
                                   int num_cells = 1000);

  int num_cells() const { return static_cast<int>(counts_.size()); }
  int64_t total_count() const { return total_; }
  double min() const { return min_; }
  double max() const { return max_; }
  int64_t cell_count(int cell) const {
    return counts_[static_cast<size_t>(cell)];
  }

  /// Folds `values` into this histogram in place, keeping the existing
  /// cell boundaries and skipping NaN, as BuildFromValues does.
  /// Succeeds only when the histogram is non-empty and every number
  /// lies inside [min, max] — the result is then identical to a full
  /// BuildFromValues over old+new values (the boundaries, and hence
  /// every CellFor, are unchanged). Returns false and leaves the
  /// histogram untouched otherwise; the caller rebuilds from scratch.
  /// This is the incremental-ingest path's per-column fast path.
  bool Extend(const std::vector<double>& values);

  /// Cell index for a value (values outside [min, max] clamp to the
  /// boundary cells; NaN, which no cell holds, reads cell 0).
  int CellFor(double v) const;

  /// Lower edge of a cell.
  double CellLow(int cell) const;
  /// Width of each cell.
  double cell_width() const { return width_; }

  /// Draws `n` values following the histogram's distribution: cell
  /// chosen proportionally to its count, value uniform within the cell.
  /// Deterministic given the Rng state. Empty histogram yields {}.
  std::vector<double> Sample(Rng* rng, int n) const;

  /// The `n` largest sampled-distribution representatives: walks cells
  /// from the top down, emitting each cell's midpoint `count` times
  /// until n values are produced. A deterministic alternative to
  /// Sample() for tests.
  std::vector<double> TopValues(int n) const;

 private:
  double min_ = 0.0;
  double max_ = 0.0;
  double width_ = 1.0;
  int64_t total_ = 0;
  std::vector<int64_t> counts_;
  std::vector<int64_t> cumulative_;  // prefix sums for O(log n) sampling
};

}  // namespace paleo

#endif  // PALEO_STATS_HISTOGRAM_H_
