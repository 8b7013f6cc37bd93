// Naive executor oracle: the reference the executor is checked against.
//
// NaiveExecute evaluates the template query with a row loop over
// [0, num_rows): Predicate::Matches decides each row and RankExpr::Eval
// scores it. It uses no BoundPredicate, selection bitmaps, zone maps,
// caches, indexes or threads, and it keys groups by entity name. What
// it shares with the executor is the documented result, not the code:
//
// Summation order (the executor's canonical order, DESIGN.md §14):
//  - the rows are split into blocks of table.chunk_rows() rows; a
//    group's matching rows in one block are summed in row order from
//    +0.0;
//  - a group's blocks fold in ascending order, and its first block's
//    sum is copied, not added to zero;
//  - a block with no matching row of the group contributes nothing.
// max and min compare strictly in row order, so of equal values (-0.0
// and +0.0) the first one wins. They skip NaN rows, and a group whose
// rows are all NaN has max and min NaN. sum and avg propagate NaN.
// count counts every matching row; avg is sum / count.
//
// Ranking: RanksBefore (engine/topk_list.h; NaN last in both
// directions), then entity name ascending, then row id for kNone. The
// whole result is sorted, then truncated to k.
//
// BitwiseDiff compares two lists entity by entity and value bit for
// bit: TopKList::operator== cannot, because NaN != NaN and -0.0 ==
// +0.0. Any NaN matches any NaN, though: which NaN an operation on two
// NaNs returns depends on its operand order, and the compiler may
// commute a + b and a * b.

#ifndef PALEO_TESTS_ORACLE_NAIVE_EXECUTOR_H_
#define PALEO_TESTS_ORACLE_NAIVE_EXECUTOR_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/query.h"
#include "engine/topk_list.h"
#include "storage/table.h"

namespace paleo::oracle {

/// Number of rows of `table` that satisfy `predicate`.
inline size_t NaiveCountMatching(const Table& table,
                                 const Predicate& predicate) {
  size_t count = 0;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (predicate.Matches(table, r)) ++count;
  }
  return count;
}

/// `query` over `table`, by the rules in the file comment.
inline TopKList NaiveExecute(const Table& table, const TopKQuery& query) {
  struct Scored {
    double value;
    std::string name;
    RowId row;
  };
  std::vector<Scored> scored;
  if (query.agg == AggFn::kNone) {
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (!query.predicate.Matches(table, r)) continue;
      scored.push_back(Scored{query.expr.Eval(table, r),
                              table.entity_column().StringAt(r), r});
    }
  } else {
    struct Group {
      double sum = 0.0;        // the folded sums of finished blocks
      bool has_sum = false;    // some block has been folded into `sum`
      double block_sum = 0.0;  // the sum of the current block
      size_t block = 0;        // the current block's index
      bool in_block = false;
      double max = 0.0;
      double min = 0.0;
      bool has_number = false;  // some non-NaN row was seen
      int64_t count = 0;
      void CloseBlock() {
        if (!in_block) return;
        sum = has_sum ? sum + block_sum : block_sum;
        has_sum = true;
        in_block = false;
      }
    };
    std::map<std::string, Group> groups;
    const size_t block_rows = table.chunk_rows();
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (!query.predicate.Matches(table, r)) continue;
      const double v = query.expr.Eval(table, r);
      Group& g = groups[table.entity_column().StringAt(r)];
      if (!g.in_block || g.block != r / block_rows) {
        g.CloseBlock();
        g.block = r / block_rows;
        g.block_sum = 0.0;
        g.in_block = true;
      }
      g.block_sum += v;
      if (!std::isnan(v)) {
        if (!g.has_number || v > g.max) g.max = v;
        if (!g.has_number || v < g.min) g.min = v;
        g.has_number = true;
      }
      ++g.count;
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (auto& [name, g] : groups) {
      g.CloseBlock();
      double v = 0.0;
      switch (query.agg) {
        case AggFn::kMax:
          v = g.has_number ? g.max : nan;
          break;
        case AggFn::kMin:
          v = g.has_number ? g.min : nan;
          break;
        case AggFn::kSum:
          v = g.sum;
          break;
        case AggFn::kAvg:
          v = g.sum / static_cast<double>(g.count);
          break;
        case AggFn::kCount:
          v = static_cast<double>(g.count);
          break;
        case AggFn::kNone:
          break;
      }
      scored.push_back(Scored{v, name, 0});
    }
  }
  const bool desc = query.order == SortOrder::kDesc;
  std::sort(scored.begin(), scored.end(),
            [desc](const Scored& a, const Scored& b) {
              if (RanksBefore(a.value, b.value, desc)) return true;
              if (RanksBefore(b.value, a.value, desc)) return false;
              if (a.name != b.name) return a.name < b.name;
              return a.row < b.row;
            });
  if (scored.size() > static_cast<size_t>(query.k)) {
    scored.resize(static_cast<size_t>(query.k));
  }
  TopKList out;
  for (Scored& s : scored) out.Append(std::move(s.name), s.value);
  return out;
}

/// Empty when `got` and `want` hold the same entities in the same order
/// with bit-identical values (or NaN on both sides); otherwise the first
/// difference.
inline std::string BitwiseDiff(const TopKList& got, const TopKList& want) {
  std::ostringstream diff;
  if (got.size() != want.size()) {
    diff << "size " << got.size() << " vs " << want.size();
    return diff.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const TopKEntry& a = got.entry(i);
    const TopKEntry& b = want.entry(i);
    const bool same_value =
        std::isnan(a.value)
            ? std::isnan(b.value)
            : std::bit_cast<uint64_t>(a.value) ==
                  std::bit_cast<uint64_t>(b.value);
    if (a.entity != b.entity || !same_value) {
      diff.precision(17);
      diff << "rank " << i << ": " << a.entity << "=" << a.value << " vs "
           << b.entity << "=" << b.value;
      return diff.str();
    }
  }
  return {};
}

}  // namespace paleo::oracle

#endif  // PALEO_TESTS_ORACLE_NAIVE_EXECUTOR_H_
