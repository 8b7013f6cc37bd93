#include "stats/catalog.h"

#include <bit>
#include <cmath>
#include <span>

namespace paleo {

namespace {

/// Counts values[from, n) of a numeric dimension column per 64-bit
/// pattern, folding min/max in the same pass, then boxes each distinct
/// pattern into `counts` once.
template <typename T>
void CountNumeric(std::span<const T> values, size_t from,
                  ColumnStats* stats, StatsCatalog::ValueCountMap* counts) {
  std::unordered_map<uint64_t, int64_t> by_key;
  for (size_t r = from; r < values.size(); ++r) {
    stats->FoldMinMax(static_cast<double>(values[r]), r);
    ++by_key[std::bit_cast<uint64_t>(values[r])];
  }
  for (const auto& [key, rows] : by_key) {
    (*counts)[Value(std::bit_cast<T>(key))] += rows;
  }
}

/// Folds rows [stats->row_count, column.size()) of a dimension column
/// into its value counts and its stats, in one pass: each row is
/// counted under its 64-bit key (a dense array over the dictionary for
/// strings, the bit pattern for int64 and double, the key spaces of
/// ColumnStats), then each distinct key is boxed into `counts` once.
/// The distinct count is the number of keys, exact.
void ExtendDimension(const Column& column, ColumnStats* stats,
                     StatsCatalog::ValueCountMap* counts) {
  const size_t from = static_cast<size_t>(stats->row_count);
  switch (column.type()) {
    case DataType::kString: {
      const StringDictionary& dict = *column.dict();
      std::vector<int64_t> by_code(dict.size(), 0);
      const std::span<const uint32_t> codes = column.codes();
      for (size_t r = from; r < codes.size(); ++r) ++by_code[codes[r]];
      for (uint32_t code = 0; code < by_code.size(); ++code) {
        if (by_code[code] > 0) {
          (*counts)[Value::String(dict.Get(code))] += by_code[code];
        }
      }
      break;
    }
    case DataType::kInt64:
      CountNumeric(column.ints(), from, stats, counts);
      break;
    case DataType::kDouble:
      CountNumeric(column.doubles(), from, stats, counts);
      break;
  }
  stats->row_count = static_cast<int64_t>(column.size());
  stats->distinct_count = static_cast<int64_t>(counts->size());
}

}  // namespace

bool StatsCatalog::SameBits::operator()(const Value& a,
                                        const Value& b) const {
  if (a.is_double() && b.is_double()) {
    return std::bit_cast<uint64_t>(a.dbl()) ==
           std::bit_cast<uint64_t>(b.dbl());
  }
  return a == b;
}

StatsCatalog StatsCatalog::Build(const Table& table,
                                 const CatalogOptions& options) {
  StatsCatalog catalog;
  catalog.options_ = options;
  const size_t num_columns = static_cast<size_t>(table.num_columns());
  catalog.column_stats_.resize(num_columns);
  catalog.histograms_.resize(num_columns);
  catalog.top_entities_.resize(num_columns);
  catalog.value_counts_.resize(num_columns);
  catalog.delta_.resize(num_columns);
  catalog.Extend(table, /*full_rebuilds=*/nullptr);
  return catalog;
}

StatusOr<StatsCatalog> StatsCatalog::BuildIncremental(
    const StatsCatalog& prev, const Table& table, int* full_rebuilds) {
  if (static_cast<int64_t>(table.num_rows()) < prev.table_rows_ ||
      table.num_columns() != static_cast<int>(prev.column_stats_.size())) {
    return Status::InvalidArgument(
        "table is not an append-extension of the previous catalog's "
        "relation");
  }
  StatsCatalog catalog = prev;
  int rebuilds = 0;
  catalog.Extend(table, &rebuilds);
  if (full_rebuilds != nullptr) *full_rebuilds = rebuilds;
  return catalog;
}

void StatsCatalog::Extend(const Table& table, int* full_rebuilds) {
  const size_t old_rows = static_cast<size_t>(table_rows_);
  const size_t n = table.num_rows();
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_fields(); ++c) {
    const size_t ci = static_cast<size_t>(c);
    const Column& col = table.column(c);
    const FieldRole role = schema.field(c).role;
    ColumnDelta& delta = delta_[ci];
    if (role == FieldRole::kDimension) {
      ExtendDimension(col, &column_stats_[ci], &value_counts_[ci]);
    } else {
      column_stats_[ci].Extend(col, &delta.keys);
    }
    if (role != FieldRole::kMeasure) continue;

    // Histogram: extend in place while the delta stays inside the old
    // range (boundaries unchanged => identical to a full rebuild);
    // rebuild the one column otherwise.
    Histogram& hist = histograms_[ci];
    if (old_rows == 0) {
      hist = Histogram::Build(col, options_.histogram_cells);
    } else {
      std::vector<double> values;
      values.reserve(n - old_rows);
      for (size_t r = old_rows; r < n; ++r) {
        values.push_back(col.NumericAt(static_cast<RowId>(r)));
      }
      if (!hist.Extend(values)) {
        hist = Histogram::Build(col, options_.histogram_cells);
        if (full_rebuilds != nullptr) ++*full_rebuilds;
      }
    }
    // Top entities: fold the delta into the maintained per-entity
    // maxima (the dictionary may have grown), then reselect top-N.
    TopEntityList::FoldEntityMaxes(table, c, old_rows, &delta.entity_max);
    top_entities_[ci] = TopEntityList::FromEntityMaxes(
        delta.entity_max, options_.top_entities);
  }
  table_rows_ = static_cast<int64_t>(n);
}

int64_t StatsCatalog::ValueCount(int column, const Value& v) const {
  if (v.is_double() && std::isnan(v.dbl())) return 0;
  const ValueCountMap& counts = value_counts_[static_cast<size_t>(column)];
  auto it = counts.find(v);
  return it == counts.end() ? 0 : it->second;
}

double StatsCatalog::PredicateSelectivity(const Predicate& predicate) const {
  if (table_rows_ == 0) return 0.0;
  double selectivity = 1.0;
  for (const AtomicPredicate& atom : predicate.atoms()) {
    int64_t count = 0;
    if (atom.is_range() && atom.value.is_numeric() &&
        atom.high.is_numeric()) {
      // Sum the frequencies of the dimension values inside the range.
      double lo = atom.value.AsDouble();
      double hi = atom.high.AsDouble();
      for (const auto& [v, n] :
           value_counts_[static_cast<size_t>(atom.column)]) {
        if (!v.is_numeric()) continue;
        double x = v.AsDouble();
        if (x >= lo && x <= hi) count += n;
      }
    } else {
      count = ValueCount(atom.column, atom.value);
    }
    selectivity *=
        static_cast<double>(count) / static_cast<double>(table_rows_);
  }
  return selectivity;
}

}  // namespace paleo
