#include "index/dimension_index.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "paleo/tuple_set.h"

namespace paleo {

namespace {

/// The posting key of a DOUBLE value, keyed to agree with the scan's
/// IEEE ==: -0.0 keys as +0.0, and a NaN, which equals nothing, has no
/// key. Both the rows posted and the constants looked up go through it.
bool DoubleKey(double v, uint64_t* key) {
  if (std::isnan(v)) return false;
  *key = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
  return true;
}

}  // namespace

DimensionIndex DimensionIndex::Build(const Table& table) {
  DimensionIndex index;
  index.Append(table, 0);
  return index;
}

DimensionIndex DimensionIndex::BuildIncremental(const DimensionIndex& prev,
                                                const Table& table,
                                                size_t old_rows) {
  DimensionIndex index;
  index.columns_ = prev.columns_;  // copied posting maps
  index.Append(table, old_rows);
  return index;
}

void DimensionIndex::Append(const Table& table, size_t from) {
  for (int c : table.schema().dimension_indices()) {
    const Column& col = table.column(c);
    ColumnPostings& postings = columns_[c];
    postings.type = col.type();
    for (size_t r = from; r < table.num_rows(); ++r) {
      const RowId row = static_cast<RowId>(r);
      uint64_t key = 0;
      switch (col.type()) {
        case DataType::kString:
          key = col.CodeAt(row);
          break;
        case DataType::kInt64:
          key = static_cast<uint64_t>(col.Int64At(row));
          break;
        case DataType::kDouble:
          if (!DoubleKey(col.DoubleAt(row), &key)) continue;
          break;
      }
      postings.by_value[key].push_back(row);
    }
    if (col.type() == DataType::kString) {
      // The table's own dictionary: an incremental build must not
      // dangle into the previous version's (deep-copied) dictionaries.
      dicts_[c] = col.dict();
    }
  }
}

bool DimensionIndex::KeyFor(int column, const Value& value,
                            uint64_t* key) const {
  auto it = columns_.find(column);
  if (it == columns_.end()) return false;
  switch (it->second.type) {
    case DataType::kString: {
      if (!value.is_string()) return false;
      uint32_t code = dicts_.at(column)->Lookup(value.str());
      if (code == StringDictionary::kInvalidCode) return false;
      *key = code;
      return true;
    }
    case DataType::kInt64:
      if (!value.is_int64()) return false;
      *key = static_cast<uint64_t>(value.int64());
      return true;
    case DataType::kDouble:
      return value.is_numeric() && DoubleKey(value.AsDouble(), key);
  }
  return false;
}

const std::vector<RowId>& DimensionIndex::Lookup(int column,
                                                 const Value& value) const {
  static const std::vector<RowId> kEmpty;
  uint64_t key;
  if (!KeyFor(column, value, &key)) return kEmpty;
  const ColumnPostings& postings = columns_.at(column);
  auto it = postings.by_value.find(key);
  return it == postings.by_value.end() ? kEmpty : it->second;
}

bool DimensionIndex::Covers(const Predicate& predicate) const {
  for (const AtomicPredicate& atom : predicate.atoms()) {
    // Range atoms are not answerable from equality postings.
    if (atom.is_range()) return false;
    if (columns_.find(atom.column) == columns_.end()) return false;
  }
  return true;
}

std::vector<RowId> DimensionIndex::Match(const Predicate& predicate) const {
  // Gather the postings, shortest first, then intersect.
  std::vector<const std::vector<RowId>*> postings;
  postings.reserve(predicate.atoms().size());
  for (const AtomicPredicate& atom : predicate.atoms()) {
    postings.push_back(&Lookup(atom.column, atom.value));
    if (postings.back()->empty()) return {};
  }
  std::sort(postings.begin(), postings.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<RowId> rows = *postings[0];
  for (size_t i = 1; i < postings.size() && !rows.empty(); ++i) {
    rows = IntersectSorted(rows, *postings[i]);
  }
  return rows;
}

size_t DimensionIndex::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [col, postings] : columns_) {
    for (const auto& [key, rows] : postings.by_value) {
      bytes += sizeof(key) + rows.capacity() * sizeof(RowId) + 32;
    }
  }
  return bytes;
}

}  // namespace paleo
