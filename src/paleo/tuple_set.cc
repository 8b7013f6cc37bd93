#include "paleo/tuple_set.h"

namespace paleo {

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
