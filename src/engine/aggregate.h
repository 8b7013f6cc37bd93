// Aggregation functions of the query template.

#ifndef PALEO_ENGINE_AGGREGATE_H_
#define PALEO_ENGINE_AGGREGATE_H_

#include <limits>
#include <string>

namespace paleo {

/// \brief Aggregate applied to the ranking expression, grouped by
/// entity. kNone means the query has no GROUP BY: rows are ranked by
/// the raw expression value.
enum class AggFn : int {
  kMax = 0,
  kMin = 1,
  kSum = 2,
  kAvg = 3,
  kCount = 4,
  kNone = 5,
};

/// "max", "min", "sum", "avg", "count", or "" for kNone.
const char* AggFnToString(AggFn fn);

/// All aggregate functions the system searches over, in the Figure 4
/// pre-order: max first (cheapest to identify via top-entity lists),
/// then avg, then the sum family, then none. kMin/kCount are extensions
/// disabled by default in PaleoOptions.
constexpr AggFn kAllAggFns[] = {AggFn::kMax,   AggFn::kAvg, AggFn::kSum,
                                AggFn::kNone,  AggFn::kMin, AggFn::kCount};

/// \brief Streaming aggregation state for one group.
///
/// NaN rule: sum and avg propagate a NaN row (the sum becomes NaN).
/// max and min ignore NaN rows — both comparisons in Add are false —
/// unless every row of the group is NaN: Finish then returns NaN, not
/// the -inf/+inf seeds, which no row holds. The raw state of such a
/// group keeps the seeds (max < min, the only state where that holds
/// with count > 0). The threshold monitor reads the raw state: it
/// skips such a group when it is foreign to the target list, since a
/// NaN result ranks last and never beats the cut, and bounds it by the
/// seeds when it is in the list, since a NaN result cannot equal a
/// numeric target.
struct AggState {
  double sum = 0.0;
  double max = -std::numeric_limits<double>::infinity();
  double min = std::numeric_limits<double>::infinity();
  int64_t count = 0;

  void Add(double v) {
    sum += v;
    if (v > max) max = v;
    if (v < min) min = v;
    ++count;
  }

  /// Folds another group's partial state into this one (chunk-merge of
  /// the morsel-parallel scan). Merging partials in ascending chunk
  /// order is the CANONICAL aggregation order: every executor path
  /// (sequential, morsel-parallel, index-assisted) computes per-chunk
  /// partials and merges them this way, so float accumulation is
  /// byte-identical across paths by construction.
  void Merge(const AggState& other) {
    sum += other.sum;
    if (other.max > max) max = other.max;
    if (other.min < min) min = other.min;
    count += other.count;
  }

  /// Final value under `fn` (NaN rule above). Precondition: count > 0
  /// and fn != kNone.
  double Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kMax:
        return max < min ? std::numeric_limits<double>::quiet_NaN() : max;
      case AggFn::kMin:
        return max < min ? std::numeric_limits<double>::quiet_NaN() : min;
      case AggFn::kSum:
        return sum;
      case AggFn::kAvg:
        return sum / static_cast<double>(count);
      case AggFn::kCount:
        return static_cast<double>(count);
      case AggFn::kNone:
        break;
    }
    return 0.0;
  }
};

}  // namespace paleo

#endif  // PALEO_ENGINE_AGGREGATE_H_
