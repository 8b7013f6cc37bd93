#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace paleo {

Histogram Histogram::Build(const Column& column, int num_cells) {
  std::vector<double> values;
  values.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    values.push_back(column.NumericAt(static_cast<RowId>(i)));
  }
  return BuildFromValues(values, num_cells);
}

Histogram Histogram::BuildFromValues(const std::vector<double>& values,
                                     int num_cells) {
  PALEO_CHECK(num_cells > 0);
  Histogram h;
  // The range spans the numbers; NaN is not binned.
  bool any = false;
  double lo = 0.0, hi = 0.0;
  for (double v : values) {
    if (std::isnan(v)) continue;
    lo = any ? std::min(lo, v) : v;
    hi = any ? std::max(hi, v) : v;
    any = true;
  }
  if (!any) return h;
  h.min_ = lo;
  h.max_ = hi;
  // Degenerate single-value column: one cell of unit width.
  h.width_ = (hi > lo) ? (hi - lo) / static_cast<double>(num_cells) : 1.0;
  h.counts_.assign(static_cast<size_t>(num_cells), 0);
  for (double v : values) {
    if (std::isnan(v)) continue;
    ++h.counts_[static_cast<size_t>(h.CellFor(v))];
    ++h.total_;
  }
  h.cumulative_.resize(h.counts_.size());
  int64_t run = 0;
  for (size_t i = 0; i < h.counts_.size(); ++i) {
    run += h.counts_[i];
    h.cumulative_[i] = run;
  }
  return h;
}

bool Histogram::Extend(const std::vector<double>& values) {
  if (counts_.empty()) return false;
  for (double v : values) {
    if (v < min_ || v > max_) return false;
  }
  for (double v : values) {
    if (std::isnan(v)) continue;
    ++counts_[static_cast<size_t>(CellFor(v))];
    ++total_;
  }
  int64_t run = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    run += counts_[i];
    cumulative_[i] = run;
  }
  return true;
}

int Histogram::CellFor(double v) const {
  if (counts_.empty()) return 0;
  if (v <= min_) return 0;
  if (v >= max_) return num_cells() - 1;
  // min_ < v < max_, so the offset lies in [0, num_cells] unless it is
  // NaN: v is NaN, or an infinite range makes it inf / inf. Both land
  // in cell 0; the cast below sees only a number in int range.
  const double offset = (v - min_) / width_;
  if (!(offset >= 0.0)) return 0;
  return static_cast<int>(
      std::min(offset, static_cast<double>(num_cells() - 1)));
}

double Histogram::CellLow(int cell) const {
  return min_ + width_ * static_cast<double>(cell);
}

std::vector<double> Histogram::Sample(Rng* rng, int n) const {
  std::vector<double> out;
  if (total_ == 0 || counts_.empty()) return out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int64_t target =
        static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(total_)));
    // First cell whose cumulative count exceeds target.
    auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
    int cell = static_cast<int>(it - cumulative_.begin());
    cell = std::min(cell, num_cells() - 1);
    out.push_back(CellLow(cell) + rng->NextDouble() * width_);
  }
  return out;
}

std::vector<double> Histogram::TopValues(int n) const {
  std::vector<double> out;
  for (int cell = num_cells() - 1;
       cell >= 0 && static_cast<int>(out.size()) < n; --cell) {
    double mid = CellLow(cell) + width_ / 2.0;
    for (int64_t c = 0; c < counts_[static_cast<size_t>(cell)] &&
                        static_cast<int>(out.size()) < n;
         ++c) {
      out.push_back(mid);
    }
  }
  return out;
}

}  // namespace paleo
