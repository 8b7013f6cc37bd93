#include "index/dimension_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <vector>

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

/// Galloping (exponential) search intersection for when one side is
/// much smaller than the other.
std::vector<RowId> IntersectGalloping(std::span<const RowId> small,
                                      std::span<const RowId> large) {
  std::vector<RowId> out;
  out.reserve(small.size());
  auto it = large.begin();
  for (RowId v : small) {
    // Exponential probe from the current position.
    size_t step = 1;
    auto probe = it;
    while (probe != large.end() && *probe < v) {
      it = probe + 1;
      if (static_cast<size_t>(large.end() - probe) <= step) {
        probe = large.end();
        break;
      }
      probe += static_cast<ptrdiff_t>(step);
      step *= 2;
    }
    it = std::lower_bound(it, probe, v);
    if (it != large.end() && *it == v) {
      out.push_back(v);
      ++it;
    }
  }
  return out;
}

}  // namespace

std::vector<RowId> IntersectSorted(std::span<const RowId> a,
                                   std::span<const RowId> b) {
  if (a.empty() || b.empty()) return {};
  // Gallop when sizes are strongly skewed; linear merge otherwise.
  if (a.size() * 16 < b.size()) return IntersectGalloping(a, b);
  if (b.size() * 16 < a.size()) return IntersectGalloping(b, a);
  std::vector<RowId> out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

DimensionIndex DimensionIndex::Build(const Table& table) {
  DimensionIndex index;
  index.Append(table, 0);
  return index;
}

DimensionIndex DimensionIndex::BuildIncremental(const DimensionIndex& prev,
                                                const Table& table,
                                                size_t old_rows) {
  DimensionIndex index;
  index.columns_ = prev.columns_;  // shares prev's postings by prefix
  index.Append(table, old_rows);
  return index;
}

void DimensionIndex::Append(const Table& table, size_t from) {
  const size_t n = table.num_rows();
  for (int c : table.schema().dimension_indices()) {
    const Column& col = table.column(c);
    ColumnPostings& postings = columns_[c];
    postings.type = col.type();
    if (col.type() == DataType::kString) {
      // Count the rows per code, claim each posting's slots once, then
      // fill them: no per-row hashing or claim.
      const std::span<const uint32_t> codes = col.codes();
      std::vector<uint32_t> count(col.dict()->size(), 0);
      for (size_t r = from; r < n; ++r) ++count[codes[r]];
      std::vector<RowId*> next(count.size(), nullptr);
      for (uint32_t code = 0; code < count.size(); ++code) {
        if (count[code] > 0) {
          next[code] = postings.by_value[code].Extend(count[code]);
        }
      }
      for (size_t r = from; r < n; ++r) {
        *next[codes[r]]++ = static_cast<RowId>(r);
      }
      // The table's own dictionary: the previous version's lacks the
      // strings this batch registered.
      dicts_[c] = col.shared_dict();
      continue;
    }
    for (size_t r = from; r < n; ++r) {
      const RowId row = static_cast<RowId>(r);
      uint64_t key = 0;
      if (col.type() == DataType::kInt64) {
        key = static_cast<uint64_t>(col.Int64At(row));
      } else if (!DoubleKey(col.DoubleAt(row), &key)) {
        continue;
      }
      postings.by_value[key].Append(row);
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

std::span<const RowId> DimensionIndex::Lookup(int column,
                                              const Value& value) const {
  uint64_t key;
  if (!KeyFor(column, value, &key)) return {};
  const ColumnPostings& postings = columns_.at(column);
  auto it = postings.by_value.find(key);
  return it == postings.by_value.end() ? std::span<const RowId>()
                                       : it->second.span();
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
  std::vector<std::span<const RowId>> postings;
  postings.reserve(predicate.atoms().size());
  for (const AtomicPredicate& atom : predicate.atoms()) {
    postings.push_back(Lookup(atom.column, atom.value));
    if (postings.back().empty()) return {};
  }
  std::sort(postings.begin(), postings.end(),
            [](auto a, auto b) { return a.size() < b.size(); });
  std::vector<RowId> rows(postings[0].begin(), postings[0].end());
  for (size_t i = 1; i < postings.size() && !rows.empty(); ++i) {
    rows = IntersectSorted(rows, postings[i]);
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
