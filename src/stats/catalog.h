// Statistics catalog over the base relation R.
//
// Built once per relation (the paper computes these "upfront from the
// base relation R") and consulted by the ranking-criteria finder
// (top-entity lists, histograms, min/max/distinct filters) and by the
// probabilistic model (dimension-column distinct counts).
//
// Immutable after Build(): all accessors are const (map lookups go
// through find(), never operator[]), so one catalog serves any number
// of concurrent reverse-engineering sessions without synchronization.

#ifndef PALEO_STATS_CATALOG_H_
#define PALEO_STATS_CATALOG_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "engine/predicate.h"
#include "stats/column_stats.h"
#include "stats/histogram.h"
#include "stats/top_entities.h"
#include "storage/table.h"

namespace paleo {

/// \brief Tuning knobs for catalog construction.
struct CatalogOptions {
  /// Cells per equi-width histogram (paper: 1000).
  int histogram_cells = 1000;
  /// Entities kept per top-entity list (paper: 1000).
  int top_entities = 1000;
};

/// \brief Precomputed statistics for every column of a relation.
class StatsCatalog {
 public:
  /// Rows per distinct value of a dimension column. Keys compare by
  /// bit pattern, as ValueHasher hashes them: -0.0 and 0.0 are two
  /// keys, and all rows with one NaN pattern share one.
  struct SameBits {
    bool operator()(const Value& a, const Value& b) const;
  };
  using ValueCountMap =
      std::unordered_map<Value, int64_t, ValueHasher, SameBits>;

  /// One pass per column, each statistic as precise as its reader
  /// needs: dimension columns are counted exactly, per 64-bit key (a
  /// dense array over the dictionary for strings); every other column
  /// gets min/max and a distinct count saturating at
  /// ColumnStats::kDistinctCap.
  static StatsCatalog Build(const Table& table,
                            const CatalogOptions& options = CatalogOptions());

  /// Extends `prev` to cover `table`, whose first prev.table_rows()
  /// rows are exactly the rows prev was built from and whose remainder
  /// is the appended delta. Every published quantity of the result
  /// equals Build(table, prev.options()): dimension value counts and
  /// each unsaturated column's distinct keys grow by the delta's,
  /// top-entity lists are reselected from the maintained per-entity
  /// maxima, and histograms are extended in place when the delta stays
  /// inside the old [min, max] (falling back to a per-column rebuild
  /// when the range grew; `full_rebuilds`, when non-null, receives the
  /// number of such fallbacks). Every catalog carries that state, so
  /// ingestion chains incrementally forever. InvalidArgument when the
  /// row prefix does not match.
  static StatusOr<StatsCatalog> BuildIncremental(const StatsCatalog& prev,
                                                 const Table& table,
                                                 int* full_rebuilds = nullptr);

  const CatalogOptions& options() const { return options_; }

  /// Per-column basic stats (all columns).
  const ColumnStats& column_stats(int column) const {
    return column_stats_[static_cast<size_t>(column)];
  }

  /// Histogram of a measure column; empty Histogram for non-measures.
  const Histogram& histogram(int column) const {
    return histograms_[static_cast<size_t>(column)];
  }

  /// Top-entity list of a measure column; empty list for non-measures.
  const TopEntityList& top_entities(int column) const {
    return top_entities_[static_cast<size_t>(column)];
  }

  /// Every distinct value of a dimension column with its number of
  /// rows; empty for other columns. Its size is the column's
  /// distinct_count.
  const ValueCountMap& value_counts(int column) const {
    return value_counts_[static_cast<size_t>(column)];
  }

  /// Number of rows in the relation the catalog was built from.
  int64_t table_rows() const { return table_rows_; }

  /// Occurrences of `v` in a dimension column (0 if absent or not a
  /// dimension column). A NaN reads 0: it equals no row under the
  /// scan's IEEE ==.
  int64_t ValueCount(int column, const Value& v) const;

  /// Estimated fraction of R's rows matching the conjunction, under
  /// the usual attribute-independence assumption:
  /// prod_i count(v_i)/|R|. 1.0 for the empty predicate. Used to order
  /// equally suitable candidate queries — a candidate predicate that
  /// covers every input entity despite rare values is very unlikely to
  /// be a coincidence.
  double PredicateSelectivity(const Predicate& predicate) const;

 private:
  /// Per-column ingredients BuildIncremental extends, beyond the
  /// published summaries: `keys`, the distinct keys of a non-dimension
  /// column while its count is below ColumnStats::kDistinctCap (so
  /// fewer than that many; a saturated column keeps none), and
  /// `entity_max`, the per-entity maxima of a measure column
  /// (code-indexed, -inf absent). A dimension column's state is its
  /// value_counts entry.
  struct ColumnDelta {
    std::unordered_set<uint64_t> keys;
    std::vector<double> entity_max;
  };

  /// Folds rows [table_rows_, table.num_rows()) of every column into
  /// the statistics and their delta state. `full_rebuilds` is bumped
  /// for each histogram the delta's range growth forced to rebuild.
  void Extend(const Table& table, int* full_rebuilds);

  CatalogOptions options_;
  std::vector<ColumnStats> column_stats_;
  std::vector<Histogram> histograms_;
  std::vector<TopEntityList> top_entities_;
  std::vector<ValueCountMap> value_counts_;  // dimension columns only
  std::vector<ColumnDelta> delta_;
  int64_t table_rows_ = 0;
};

}  // namespace paleo

#endif  // PALEO_STATS_CATALOG_H_
