// PredicateMiner::Mine against a reference level-wise search that
// intersects sorted tuple sets with IntersectSorted and counts coverage
// with CountCoveredEntities. The miner intersects word bitmaps over R'
// rows instead, so R' sizes sit on both sides of 64-row word
// boundaries (1, 63, 64, 65 and 129 rows); predicates (in order), group
// ids, tuple sets and coverage must all be equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "paleo/predicate_miner.h"

namespace paleo {
namespace {

struct RefEntry {
  Predicate predicate;
  TupleSet rows;
  int max_column = -1;
  int covered = 0;
};

// The pre-bitmap Algorithm 1: atoms per distinct value (key order),
// tightest covering range per numeric column, then column-increasing
// extension by sorted-set intersection.
MiningResult ReferenceMine(const RPrime& rp, const PaleoOptions& options) {
  const Table& slice = rp.table();
  const std::vector<uint32_t>& row_entity = rp.row_entity();
  const int m = rp.num_entities();
  const int required = std::max(
      1, static_cast<int>(std::ceil(options.coverage_ratio * m)));
  std::vector<uint64_t> scratch;
  auto covered_by = [&](const TupleSet& rows) {
    return CountCoveredEntities(rows, row_entity, m, &scratch);
  };

  std::vector<RefEntry> atoms;
  for (int col_idx : slice.schema().dimension_indices()) {
    const Column& col = slice.column(col_idx);
    std::map<uint64_t, TupleSet> buckets;  // key order, as the miner
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      RowId row = static_cast<RowId>(r);
      uint64_t key = 0;
      switch (col.type()) {
        case DataType::kString:
          key = col.CodeAt(row);
          break;
        case DataType::kInt64:
          key = static_cast<uint64_t>(col.Int64At(row));
          break;
        case DataType::kDouble: {
          double v = col.DoubleAt(row);
          __builtin_memcpy(&key, &v, sizeof(key));
          break;
        }
      }
      buckets[key].push_back(row);
    }
    for (auto& [key, rows] : buckets) {
      int covered = covered_by(rows);
      if (covered < required) continue;
      RefEntry atom;
      atom.predicate = Predicate::Atom(col_idx, col.GetValue(rows.front()));
      atom.rows = rows;
      atom.max_column = col_idx;
      atom.covered = covered;
      atoms.push_back(std::move(atom));
    }
  }
  if (options.mine_range_predicates) {
    for (int col_idx : slice.schema().dimension_indices()) {
      const Column& col = slice.column(col_idx);
      if (!IsNumeric(col.type()) || slice.num_rows() == 0) continue;
      std::vector<std::pair<double, RowId>> points;
      for (size_t r = 0; r < slice.num_rows(); ++r) {
        points.emplace_back(col.NumericAt(static_cast<RowId>(r)),
                            static_cast<RowId>(r));
      }
      std::sort(points.begin(), points.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<int> per_entity(static_cast<size_t>(m), 0);
      int covered = 0;
      size_t left = 0;
      double best = std::numeric_limits<double>::infinity(), lo = 0, hi = 0;
      for (size_t right = 0; right < points.size(); ++right) {
        if (per_entity[row_entity[points[right].second]]++ == 0) ++covered;
        while (covered >= required) {
          if (points[right].first - points[left].first < best) {
            best = points[right].first - points[left].first;
            lo = points[left].first;
            hi = points[right].first;
          }
          if (--per_entity[row_entity[points[left].second]] == 0) --covered;
          ++left;
        }
      }
      if (std::isinf(best)) continue;
      RefEntry atom;
      for (const auto& [v, r] : points) {
        if (v >= lo && v <= hi) atom.rows.push_back(r);
      }
      std::sort(atom.rows.begin(), atom.rows.end());
      bool ints = col.type() == DataType::kInt64;
      atom.predicate = Predicate({AtomicPredicate::Range(
          col_idx,
          ints ? Value::Int64(static_cast<int64_t>(lo)) : Value::Double(lo),
          ints ? Value::Int64(static_cast<int64_t>(hi)) : Value::Double(hi))});
      atom.max_column = col_idx;
      atom.covered = covered_by(atom.rows);
      atoms.push_back(std::move(atom));
    }
  }

  std::vector<std::vector<RefEntry>> levels = {atoms};
  for (int size = 2; size <= options.max_predicate_size; ++size) {
    std::vector<RefEntry> next;
    for (const RefEntry& base : levels.back()) {
      for (const RefEntry& atom : atoms) {
        if (atom.max_column <= base.max_column) continue;
        TupleSet rows = IntersectSorted(base.rows, atom.rows);
        if (static_cast<int>(rows.size()) < required) continue;
        int covered = covered_by(rows);
        if (covered < required) continue;
        RefEntry entry;
        entry.predicate =
            base.predicate.And(atom.predicate.atoms().front()).value();
        entry.rows = std::move(rows);
        entry.max_column = atom.max_column;
        entry.covered = covered;
        next.push_back(std::move(entry));
      }
    }
    if (next.empty()) break;
    levels.push_back(std::move(next));
  }
  if (options.include_empty_predicate) {
    RefEntry everything;
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      everything.rows.push_back(static_cast<RowId>(r));
    }
    everything.covered = covered_by(everything.rows);
    if (everything.covered >= required) levels.push_back({everything});
  }

  // Groups in order of first appearance of their tuple set.
  MiningResult result;
  result.predicates_by_size.assign(
      static_cast<size_t>(options.max_predicate_size) + 1, 0);
  std::map<TupleSet, int> group_of;
  for (const std::vector<RefEntry>& level : levels) {
    for (const RefEntry& entry : level) {
      int pred_id = static_cast<int>(result.predicates.size());
      size_t size = static_cast<size_t>(entry.predicate.size());
      if (size < result.predicates_by_size.size()) {
        ++result.predicates_by_size[size];
      }
      auto [it, inserted] = group_of.emplace(
          entry.rows, static_cast<int>(result.groups.size()));
      if (inserted) {
        PredicateGroup group;
        group.rows = entry.rows;
        group.covered_entities =
            CountCoveredEntities(entry.rows, row_entity, m, &group.coverage);
        result.groups.push_back(std::move(group));
      }
      result.groups[static_cast<size_t>(it->second)].predicate_ids.push_back(
          pred_id);
      MinedPredicate mined;
      mined.predicate = entry.predicate;
      mined.group_id = it->second;
      mined.covered_entities = entry.covered;
      result.predicates.push_back(std::move(mined));
    }
  }
  return result;
}

// `rows` rows over min(rows, entities) entities E0.. (row r belongs to
// entity r mod that count), a string, an int and a double dimension
// drawn from small domains, and one measure.
Table MakeTable(size_t rows, int entities, Rng* rng) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s", DataType::kString, FieldRole::kDimension},
      {"n", DataType::kInt64, FieldRole::kDimension},
      {"f", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  Table table(*schema);
  const size_t m = std::min(rows, static_cast<size_t>(entities));
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(
        table
            .AppendRow({Value::String("E" + std::to_string(r % m)),
                        Value::String(rng->Bernoulli(0.6) ? "a" : "b"),
                        Value::Int64(rng->UniformInt(0, 3)),
                        Value::Double(0.25 * static_cast<double>(
                                                 rng->UniformInt(0, 4))),
                        Value::Int64(static_cast<int64_t>(r))})
            .ok());
  }
  return table;
}

TEST(MinerReferenceTest, BitmapIntersectionsMatchSortedSets) {
  int compared = 0, extended = 0;
  for (size_t rows : {1, 63, 64, 65, 129}) {
    for (int entities : {3, 70}) {
      Rng rng(rows * 131 + static_cast<uint64_t>(entities));
      Table table = MakeTable(rows, entities, &rng);
      EntityIndex index = EntityIndex::Build(table);
      TopKList list;
      const size_t m = std::min(rows, static_cast<size_t>(entities));
      for (size_t e = 0; e < m; ++e) {
        list.Append("E" + std::to_string(e), static_cast<double>(m - e));
      }
      auto rp = RPrime::Build(table, index, list);
      ASSERT_TRUE(rp.ok());
      ASSERT_EQ(rp->num_rows(), rows);
      for (int max_size = 1; max_size <= 3; ++max_size) {
        for (double ratio : {1.0, 0.6}) {
          for (bool ranges : {false, true}) {
            PaleoOptions options;
            options.max_predicate_size = max_size;
            options.coverage_ratio = ratio;
            options.mine_range_predicates = ranges;
            std::string where =
                "rows " + std::to_string(rows) + " entities " +
                std::to_string(m) + " |P| " + std::to_string(max_size) +
                " ratio " + std::to_string(ratio) + " ranges " +
                std::to_string(ranges);
            auto got = PredicateMiner(*rp, options).Mine();
            ASSERT_TRUE(got.ok()) << where;
            MiningResult want = ReferenceMine(*rp, options);
            ASSERT_EQ(got->predicates.size(), want.predicates.size())
                << where;
            for (size_t i = 0; i < want.predicates.size(); ++i) {
              const MinedPredicate& a = got->predicates[i];
              const MinedPredicate& b = want.predicates[i];
              EXPECT_TRUE(a.predicate == b.predicate)
                  << where << " #" << i << ": "
                  << a.predicate.ToSql(table.schema()) << " vs "
                  << b.predicate.ToSql(table.schema());
              EXPECT_EQ(a.group_id, b.group_id) << where << " #" << i;
              EXPECT_EQ(a.covered_entities, b.covered_entities)
                  << where << " #" << i;
              if (a.predicate.size() > 1) ++extended;
            }
            ASSERT_EQ(got->groups.size(), want.groups.size()) << where;
            for (size_t g = 0; g < want.groups.size(); ++g) {
              const PredicateGroup& a = got->groups[g];
              const PredicateGroup& b = want.groups[g];
              EXPECT_EQ(a.rows, b.rows) << where << " group " << g;
              EXPECT_EQ(a.predicate_ids, b.predicate_ids)
                  << where << " group " << g;
              EXPECT_EQ(a.covered_entities, b.covered_entities)
                  << where << " group " << g;
              EXPECT_EQ(a.coverage, b.coverage) << where << " group " << g;
            }
            EXPECT_EQ(got->predicates_by_size, want.predicates_by_size)
                << where;
            ++compared;
            if (HasFailure()) return;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 5 * 2 * 3 * 2 * 2);
  // Conjunctions must be mined, or the intersections go untested.
  EXPECT_GT(extended, 1000);
}

}  // namespace
}  // namespace paleo
