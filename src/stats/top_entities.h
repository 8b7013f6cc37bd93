// Per-column top-entity lists (paper Section 5.1).
//
// For each numeric column of R the system stores the top-N entities
// when entities are ranked by their maximal value in that column
// ("We keep the 1,000 top entities for each numerical column",
// Section 8). Intersecting an input list's entities with a column's
// top entities is the cheapest signal that the column is the ranking
// criterion of a max query.

#ifndef PALEO_STATS_TOP_ENTITIES_H_
#define PALEO_STATS_TOP_ENTITIES_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/table.h"

namespace paleo {

/// \brief Top-N entities of one numeric column, ranked by per-entity
/// maximum value.
class TopEntityList {
 public:
  /// One pass over the column: per-entity max, then top-N selection.
  /// Ties are broken by entity code ascending for determinism.
  static TopEntityList Build(const Table& table, int column, int top_n);

  /// Folds rows [from, table.num_rows()) of `column` into the
  /// per-entity maxima `entity_max`, indexed by entity dictionary code
  /// and first grown to the dictionary's size; entities with no rows
  /// hold -infinity. The raw material Build() selects from, with
  /// from = 0 over an empty array. The stats catalog keeps the array
  /// and folds each ingested batch into it: the published top-N alone
  /// cannot be extended exactly, since an entity outside it has an
  /// unknown true max.
  static void FoldEntityMaxes(const Table& table, int column, size_t from,
                              std::vector<double>* entity_max);

  /// Top-N selection over a per-entity max array, with the same
  /// ordering and tie-breaking as Build().
  static TopEntityList FromEntityMaxes(const std::vector<double>& entity_max,
                                       int top_n);

  /// Number of stored entities (<= top_n).
  size_t size() const { return entity_codes_.size(); }

  /// Stored entity dictionary codes, best first.
  const std::vector<uint32_t>& entity_codes() const { return entity_codes_; }
  /// Corresponding per-entity max values, best first.
  const std::vector<double>& values() const { return values_; }

  bool ContainsEntity(uint32_t code) const {
    return member_.count(code) > 0;
  }

  /// Number of the given codes present in this list (the intersection
  /// size of Algorithm 2, line 6).
  int CountIntersection(const std::vector<uint32_t>& codes) const;

 private:
  std::vector<uint32_t> entity_codes_;
  std::vector<double> values_;
  std::unordered_set<uint32_t> member_;
};

}  // namespace paleo

#endif  // PALEO_STATS_TOP_ENTITIES_H_
