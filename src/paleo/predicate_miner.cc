#include "paleo/predicate_miner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "engine/selection_bitmap.h"
#include "engine/selection_kernels.h"

namespace paleo {

namespace {

/// Working representation during the level-wise search.
struct LevelEntry {
  Predicate predicate;
  TupleSet rows;
  /// `rows` as a bitmap over R' rows, for entries whose level is still
  /// extended (the atoms always are).
  SelectionBitmap bits;
  int max_column;  // largest column index among the atoms
  int covered;
};

}  // namespace

StatusOr<MiningResult> PredicateMiner::Mine(const RunBudget* budget) const {
  if (options_.coverage_ratio <= 0.0 || options_.coverage_ratio > 1.0) {
    return Status::InvalidArgument("coverage_ratio must be in (0, 1]");
  }
  if (options_.max_predicate_size < 1) {
    return Status::InvalidArgument("max_predicate_size must be >= 1");
  }
  // Budget poll for the mining loops. Once the gate trips, every loop
  // below unwinds and the partial result is assembled as usual with a
  // non-kCompleted termination reason.
  BudgetGate gate(budget, /*stride=*/1024);
  const Table& slice = rprime_.table();
  const Schema& schema = slice.schema();
  const std::vector<uint32_t>& row_entity = rprime_.row_entity();
  const int m = rprime_.num_entities();
  const int required =
      std::max(1, static_cast<int>(std::ceil(options_.coverage_ratio *
                                             static_cast<double>(m))));

  MiningResult result;
  result.predicates_by_size.assign(
      static_cast<size_t>(options_.max_predicate_size) + 1, 0);

  // ---- Level 1: atomic predicates ----
  std::vector<LevelEntry> level1;
  for (int col_idx : schema.dimension_indices()) {
    if (gate.exhausted()) break;
    const Column& col = slice.column(col_idx);
    // Bucket local rows by value. Keys are normalized to uint64 (dict
    // code, int64 bits, or double bits).
    std::unordered_map<uint64_t, TupleSet> buckets;
    const size_t n = slice.num_rows();
    for (size_t r = 0; r < n; ++r) {
      if (gate.Tick() != TerminationReason::kCompleted) break;
      uint64_t key = 0;
      switch (col.type()) {
        case DataType::kString:
          key = col.CodeAt(static_cast<RowId>(r));
          break;
        case DataType::kInt64:
          key = static_cast<uint64_t>(col.Int64At(static_cast<RowId>(r)));
          break;
        case DataType::kDouble: {
          double v = col.DoubleAt(static_cast<RowId>(r));
          __builtin_memcpy(&key, &v, sizeof(key));
          break;
        }
      }
      buckets[key].push_back(static_cast<RowId>(r));
    }
    // A column interrupted mid-bucketing would yield predicates with
    // incomplete tuple sets — wrong, not merely partial — so its work
    // is discarded wholesale.
    if (gate.exhausted()) break;
    // Deterministic order: sort bucket keys.
    std::vector<uint64_t> keys;
    keys.reserve(buckets.size());
    for (const auto& [key, rows] : buckets) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> scratch;
    for (uint64_t key : keys) {
      if (gate.Tick() != TerminationReason::kCompleted) break;
      TupleSet& rows = buckets[key];
      int covered = CountCoveredEntities(rows, row_entity, m, &scratch);
      if (covered < required) continue;
      Value v;
      switch (col.type()) {
        case DataType::kString:
          v = Value::String(col.dict()->Get(static_cast<uint32_t>(key)));
          break;
        case DataType::kInt64:
          v = Value::Int64(static_cast<int64_t>(key));
          break;
        case DataType::kDouble: {
          double d;
          __builtin_memcpy(&d, &key, sizeof(d));
          v = Value::Double(d);
          break;
        }
      }
      LevelEntry entry;
      entry.predicate = Predicate::Atom(col_idx, std::move(v));
      entry.rows = std::move(rows);
      entry.max_column = col_idx;
      entry.covered = covered;
      level1.push_back(std::move(entry));
    }
  }

  // ---- Range atoms (extension; see PaleoOptions) ----
  // For each numeric dimension column, the tightest interval whose rows
  // cover the required number of entities, found with the classic
  // smallest-covering-range sweep: sort (value, entity) points, advance
  // the right end until covered, then shrink the left end.
  if (options_.mine_range_predicates) {
    for (int col_idx : schema.dimension_indices()) {
      if (gate.exhausted()) break;
      const Column& col = slice.column(col_idx);
      if (!IsNumeric(col.type())) continue;
      const size_t n = slice.num_rows();
      if (n == 0) continue;
      struct Point {
        double v;
        uint32_t entity;
        RowId row;
      };
      std::vector<Point> points;
      points.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        points.push_back(Point{col.NumericAt(static_cast<RowId>(r)),
                               row_entity[r], static_cast<RowId>(r)});
      }
      std::sort(points.begin(), points.end(),
                [](const Point& a, const Point& b) { return a.v < b.v; });

      std::vector<int> per_entity(static_cast<size_t>(m), 0);
      int covered = 0;
      size_t left = 0;
      double best_width = std::numeric_limits<double>::infinity();
      double best_lo = 0, best_hi = 0;
      bool found = false;
      for (size_t right = 0; right < points.size(); ++right) {
        if (gate.Tick() != TerminationReason::kCompleted) break;
        if (per_entity[points[right].entity]++ == 0) ++covered;
        while (covered >= required) {
          double width = points[right].v - points[left].v;
          if (width < best_width) {
            best_width = width;
            best_lo = points[left].v;
            best_hi = points[right].v;
            found = true;
          }
          if (--per_entity[points[left].entity] == 0) --covered;
          ++left;
        }
      }
      // An interrupted sweep may have missed a tighter interval;
      // discard rather than emit a possibly-suboptimal range.
      if (gate.exhausted() || !found) continue;

      TupleSet rows;
      for (const Point& p : points) {
        if (p.v >= best_lo && p.v <= best_hi) rows.push_back(p.row);
      }
      std::sort(rows.begin(), rows.end());
      std::vector<uint64_t> scratch;
      int covered_final =
          CountCoveredEntities(rows, row_entity, m, &scratch);
      if (covered_final < required) continue;  // defensive

      Value lo = col.type() == DataType::kInt64
                     ? Value::Int64(static_cast<int64_t>(best_lo))
                     : Value::Double(best_lo);
      Value hi = col.type() == DataType::kInt64
                     ? Value::Int64(static_cast<int64_t>(best_hi))
                     : Value::Double(best_hi);
      LevelEntry entry;
      entry.predicate = Predicate(
          {AtomicPredicate::Range(col_idx, std::move(lo), std::move(hi))});
      entry.rows = std::move(rows);
      entry.max_column = col_idx;
      entry.covered = covered_final;
      level1.push_back(std::move(entry));
    }
  }

  // ---- Levels 2..max: column-increasing extension ----
  // Entries are intersected as word bitmaps over R' rows: AND, then a
  // popcount for the size bar. Only an extension that passes it is
  // turned back into a sorted tuple set for the coverage count.
  if (options_.max_predicate_size >= 2) {
    for (LevelEntry& atom : level1) {
      atom.bits = SelectionBitmap(slice.num_rows());
      for (RowId r : atom.rows) atom.bits.Set(r);
    }
  }
  std::vector<std::vector<LevelEntry>> levels;
  levels.push_back(std::move(level1));
  SelectionBitmap and_bits;
  TupleSet and_rows;
  std::vector<uint64_t> scratch;
  for (int size = 2;
       size <= options_.max_predicate_size && !gate.exhausted(); ++size) {
    const bool extended_further = size < options_.max_predicate_size;
    const std::vector<LevelEntry>& prev = levels.back();
    std::vector<LevelEntry> next;
    for (const LevelEntry& base : prev) {
      if (gate.exhausted()) break;
      for (const LevelEntry& atom : levels[0]) {
        // Each extension is an intersection of two complete tuple
        // sets, so stopping between extensions loses candidates but
        // never emits a wrong one.
        if (gate.Tick() != TerminationReason::kCompleted) break;
        // Strictly increasing column order: every conjunction is
        // generated exactly once and same-column conflicts are
        // impossible.
        if (atom.max_column <= base.max_column) continue;
        and_bits = base.bits;
        and_bits.AndWith(atom.bits);
        if (static_cast<int>(and_bits.CountSet()) < required) continue;
        and_rows.clear();
        if (!CollectSelectedRows(and_bits, &gate, &and_rows)) break;
        int covered = CountCoveredEntities(and_rows, row_entity, m, &scratch);
        if (covered < required) continue;
        auto extended =
            base.predicate.And(atom.predicate.atoms().front());
        if (!extended.ok()) continue;  // unreachable by construction
        LevelEntry entry;
        entry.predicate = std::move(extended).value();
        entry.rows = and_rows;
        if (extended_further) entry.bits = and_bits;
        entry.max_column = atom.max_column;
        entry.covered = covered;
        next.push_back(std::move(entry));
      }
    }
    if (next.empty()) break;
    levels.push_back(std::move(next));
  }

  // The empty conjunction (all rows) as an explicit candidate, so
  // filterless queries are recoverable. It never participates in the
  // level-wise extension (that would just duplicate the atomic level).
  std::vector<LevelEntry> extra_entries;
  if (options_.include_empty_predicate) {
    LevelEntry everything;
    everything.rows.resize(slice.num_rows());
    for (size_t r = 0; r < slice.num_rows(); ++r) {
      everything.rows[r] = static_cast<RowId>(r);
    }
    std::vector<uint64_t> scratch;
    everything.covered =
        CountCoveredEntities(everything.rows, row_entity, m, &scratch);
    everything.max_column = -1;
    if (everything.covered >= required) {
      extra_entries.push_back(std::move(everything));
    }
  }
  levels.push_back(std::move(extra_entries));

  // ---- Assemble: group predicates by identical tuple sets ----
  std::unordered_map<uint64_t, std::vector<int>> groups_by_hash;
  for (auto& level : levels) {
    for (LevelEntry& entry : level) {
      int pred_id = static_cast<int>(result.predicates.size());
      int size = entry.predicate.size();
      if (size < static_cast<int>(result.predicates_by_size.size())) {
        ++result.predicates_by_size[static_cast<size_t>(size)];
      }
      uint64_t hash = HashTupleSet(entry.rows);
      int group_id = -1;
      for (int candidate_group : groups_by_hash[hash]) {
        if (result.groups[static_cast<size_t>(candidate_group)].rows ==
            entry.rows) {
          group_id = candidate_group;
          break;
        }
      }
      if (group_id < 0) {
        group_id = static_cast<int>(result.groups.size());
        PredicateGroup group;
        group.covered_entities =
            CountCoveredEntities(entry.rows, row_entity, m, &group.coverage);
        group.rows = std::move(entry.rows);
        result.groups.push_back(std::move(group));
        groups_by_hash[hash].push_back(group_id);
      }
      result.groups[static_cast<size_t>(group_id)].predicate_ids.push_back(
          pred_id);
      MinedPredicate mined;
      mined.predicate = std::move(entry.predicate);
      mined.group_id = group_id;
      mined.covered_entities = entry.covered;
      result.predicates.push_back(std::move(mined));
    }
  }
  result.termination = gate.reason();
  return result;
}

}  // namespace paleo
