#include "stats/column_stats.h"

#include <bit>
#include <span>

namespace paleo {

namespace {

/// Folds values[from, n) into `stats`' min/max and, while `counting`,
/// their bit patterns into `keys`; returns true when the count
/// saturated. Once saturated, the rest of the pass only folds min/max.
template <typename T>
bool FoldNumeric(std::span<const T> values, size_t from,
                 ColumnStats* stats, std::unordered_set<uint64_t>* keys,
                 bool counting) {
  bool saturated = false;
  for (size_t r = from; r < values.size(); ++r) {
    stats->FoldMinMax(static_cast<double>(values[r]), r);
    if (counting) {
      keys->insert(std::bit_cast<uint64_t>(values[r]));
      if (static_cast<int64_t>(keys->size()) == ColumnStats::kDistinctCap) {
        counting = false;
        saturated = true;
      }
    }
  }
  return saturated;
}

}  // namespace

ColumnStats ColumnStats::Build(const Column& column) {
  ColumnStats s;
  std::unordered_set<uint64_t> keys;
  s.Extend(column, &keys);
  return s;
}

void ColumnStats::Extend(const Column& column,
                         std::unordered_set<uint64_t>* keys) {
  const size_t from = static_cast<size_t>(row_count);
  row_count = static_cast<int64_t>(column.size());
  const bool counting = distinct_count < kDistinctCap;
  bool saturated = false;
  switch (column.type()) {
    case DataType::kString: {
      // No min/max: the pass ends where the count saturates.
      const std::span<const uint32_t> codes = column.codes();
      for (size_t r = from; counting && r < codes.size(); ++r) {
        keys->insert(codes[r]);
        if (static_cast<int64_t>(keys->size()) == kDistinctCap) {
          saturated = true;
          break;
        }
      }
      break;
    }
    case DataType::kInt64:
      saturated = FoldNumeric(column.ints(), from, this, keys, counting);
      break;
    case DataType::kDouble:
      saturated = FoldNumeric(column.doubles(), from, this, keys, counting);
      break;
  }
  if (saturated) *keys = {};
  if (counting) {
    distinct_count =
        saturated ? kDistinctCap : static_cast<int64_t>(keys->size());
  }
}

}  // namespace paleo
