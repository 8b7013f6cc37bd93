// Tuple-id sets I_P: the sorted local-row-id lists selected by each
// candidate predicate over R' (paper Sections 4, 4.1). Predicates with
// identical tuple sets share data characteristics and are grouped so
// each distinct set is examined once.
//
// Thread-safety: plain value types; pure grouping functions over const
// inputs are safe to call concurrently.

#ifndef PALEO_PALEO_TUPLE_SET_H_
#define PALEO_PALEO_TUPLE_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column.h"

namespace paleo {

/// Sorted, duplicate-free vector of local row ids into R'.
using TupleSet = std::vector<RowId>;

/// Intersection of two sorted row-id lists, such as tuple sets or
/// index postings (linear merge with galloping for skewed sizes).
TupleSet IntersectSorted(std::span<const RowId> a, std::span<const RowId> b);

/// Number of distinct entities (by local entity index) covered by the
/// rows of `set`. `row_entity` maps local row -> entity index,
/// `num_entities` bounds the indices. `coverage` is overwritten with the
/// coverage bitmap: ceil(num_entities / 64) words, bit e set iff entity
/// e has a row in `set`.
int CountCoveredEntities(const TupleSet& set,
                         const std::vector<uint32_t>& row_entity,
                         int num_entities, std::vector<uint64_t>* coverage);

/// FNV-style hash of a tuple set (for grouping identical sets).
uint64_t HashTupleSet(const TupleSet& set);

}  // namespace paleo

#endif  // PALEO_PALEO_TUPLE_SET_H_
