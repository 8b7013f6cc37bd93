// The top-k list L: the input to the reverse-engineering task and the
// output of every query execution. Two columns — entity (L.e) and
// numeric value (L.v) — ordered by rank.

#ifndef PALEO_ENGINE_TOPK_LIST_H_
#define PALEO_ENGINE_TOPK_LIST_H_

#include <cmath>
#include <string>
#include <vector>

#include "common/status.h"

namespace paleo {

/// \brief One row of a top-k list.
struct TopKEntry {
  std::string entity;
  double value = 0.0;

  TopKEntry() = default;
  TopKEntry(std::string entity_in, double value_in)
      : entity(std::move(entity_in)), value(value_in) {}

  bool operator==(const TopKEntry& other) const {
    return entity == other.entity && value == other.value;
  }
};

/// \brief Ranked list of (entity, value) pairs, best first.
class TopKList {
 public:
  TopKList() = default;
  explicit TopKList(std::vector<TopKEntry> entries)
      : entries_(std::move(entries)) {}

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const TopKEntry& entry(size_t i) const { return entries_[i]; }
  const std::vector<TopKEntry>& entries() const { return entries_; }

  void Append(std::string entity, double value) {
    entries_.emplace_back(std::move(entity), value);
  }

  /// Entity column, in rank order (may contain duplicates for
  /// no-aggregation queries).
  std::vector<std::string> Entities() const;
  /// Distinct entities, in first-appearance order.
  std::vector<std::string> DistinctEntities() const;
  /// Value column, in rank order.
  std::vector<double> Values() const;

  /// Instance-equivalence test (the paper's "valid query" acceptance):
  /// same length, same entity sequence, and values equal within a
  /// relative tolerance. Runs of equal values are compared as sets of
  /// entities, because SQL leaves the order within ties unspecified.
  bool InstanceEquals(const TopKList& other, double rel_eps = 1e-9) const;

  /// Jaccard similarity of the entity sets (Algorithm 3's J(Q(R).e,
  /// L.e)).
  double EntityJaccard(const TopKList& other) const;
  /// Jaccard similarity of the value sets, with values bucketed by
  /// relative tolerance (Algorithm 3's J(Q.v, L.v)).
  double ValueJaccard(const TopKList& other, double rel_eps = 1e-9) const;

  /// Aligned text rendering for examples and logs.
  std::string ToString() const;

  /// Parses a list from delimiter-separated text: one "entity<sep>value"
  /// row per line (value last, as in the paper's two-column lists).
  /// Blank lines are skipped; a first line whose value column does not
  /// parse as a number is treated as a header and skipped. Errors on
  /// malformed rows past the optional header.
  static StatusOr<TopKList> FromCsv(std::string_view text, char sep = ',');

  /// Renders as "entity<sep>value" lines (inverse of FromCsv for
  /// entities without separators or newlines).
  std::string ToCsv(char sep = ',') const;

  bool operator==(const TopKList& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<TopKEntry> entries_;
};

/// True when a and b agree within `rel_eps` relative tolerance
/// (absolute tolerance near zero). A non-finite value is close only to
/// an identical one: +inf to +inf, -inf to -inf, NaN to nothing. (A
/// tolerance scaled by an infinite operand would call +-inf close to
/// every number.) The ranking finder relies on this rule: with it, an
/// entity whose ranked value InstanceEquals accepts inside a tied run
/// lies within three steps of its value in the other list, so a value
/// farther than four steps rejects a criterion (DESIGN.md §4).
bool ValuesClose(double a, double b, double rel_eps = 1e-9);

/// The value order of every ranked list: true when `a` ranks strictly
/// before `b` — larger first when `desc`, smaller first otherwise. NaN
/// ranks after every number in both directions and ties with NaN, so
/// this is a strict weak order over all doubles, as std::sort needs.
/// Callers break its ties by entity name.
inline bool RanksBefore(double a, double b, bool desc) {
  if (desc ? a > b : a < b) return true;
  return std::isnan(b) && !std::isnan(a);
}

}  // namespace paleo

#endif  // PALEO_ENGINE_TOPK_LIST_H_
