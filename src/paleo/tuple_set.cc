#include "paleo/tuple_set.h"

#include <algorithm>

namespace paleo {

namespace {

/// Galloping (exponential) search intersection for when one side is
/// much smaller than the other.
TupleSet IntersectGalloping(std::span<const RowId> small,
                            std::span<const RowId> large) {
  TupleSet out;
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

TupleSet IntersectSorted(std::span<const RowId> a, std::span<const RowId> b) {
  if (a.empty() || b.empty()) return {};
  // Gallop when sizes are strongly skewed; linear merge otherwise.
  if (a.size() * 16 < b.size()) return IntersectGalloping(a, b);
  if (b.size() * 16 < a.size()) return IntersectGalloping(b, a);
  TupleSet out;
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

int CountCoveredEntities(const TupleSet& set,
                         const std::vector<uint32_t>& row_entity,
                         int num_entities, std::vector<uint64_t>* coverage) {
  size_t words = (static_cast<size_t>(num_entities) + 63) / 64;
  coverage->assign(words, 0);
  for (RowId row : set) {
    uint32_t e = row_entity[row];
    (*coverage)[e >> 6] |= (uint64_t{1} << (e & 63));
  }
  int covered = 0;
  for (uint64_t w : *coverage) covered += __builtin_popcountll(w);
  return covered;
}

uint64_t HashTupleSet(const TupleSet& set) {
  uint64_t h = 1469598103934665603ULL ^ set.size();
  for (RowId v : set) {
    h ^= v;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace paleo
