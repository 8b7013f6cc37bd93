// Entity index over the base relation R.
//
// Maps each entity to the posting list of row ids holding that entity,
// keyed by the entity column's dictionary code: a name resolves to its
// code through the table's own dictionary, and the code indexes the
// postings. PALEO's first move for any input list L is Lookup() of
// each entity followed by Table::Gather to materialize R' (paper
// Section 3.1: "SELECT * FROM R WHERE Ae IN [e, f, g, m, o]").
//
// Each posting list is a PrefixArray (storage/prefix_array.h), so an
// index built incrementally off a previous one shares every posting
// with it by prefix: BuildIncremental copies only the per-code
// (buffer, length) table and appends the delta rows past the previous
// lengths.
//
// Thread contract: immutable after Build(); every member below is const
// and touches no hidden mutable state, so one index instance is safely
// shared by any number of concurrent readers (the discovery service
// relies on this), also while an index built off it appends to the
// postings they share.

#ifndef PALEO_INDEX_ENTITY_INDEX_H_
#define PALEO_INDEX_ENTITY_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/dictionary.h"
#include "storage/prefix_array.h"
#include "storage/table.h"

namespace paleo {

/// \brief Posting lists on the entity column of a table.
class EntityIndex {
 public:
  /// Builds the index in one pass over the table's entity column.
  static EntityIndex Build(const Table& table);

  /// Builds the index for `table` off `prev`, which must index exactly
  /// the first `old_rows` rows of `table` (the ingestion contract:
  /// `table` is `prev`'s table plus appended rows, with dictionary
  /// codes preserved). Shares `prev`'s posting lists by prefix and
  /// appends only the delta rows, in ascending order, so postings stay
  /// sorted; `prev` reads what it read before. Equal to Build(table).
  static EntityIndex BuildIncremental(const EntityIndex& prev,
                                      const Table& table, size_t old_rows);

  /// Row ids (ascending) of the entity, or an empty list if it has no
  /// rows in the indexed table (names registered after the build
  /// included). Valid for the life of this index.
  std::span<const RowId> Lookup(const std::string& entity) const;

  /// Row ids of all listed entities, merged in ascending order; entities
  /// with no rows are recorded in `missing` when non-null.
  std::vector<RowId> LookupAll(const std::vector<std::string>& entities,
                               std::vector<std::string>* missing = nullptr)
      const;

  /// Number of distinct entities with at least one row. A gathered
  /// table shares its base's dictionary, so this can be fewer than the
  /// dictionary's size.
  size_t num_entities() const;

  /// Largest / average posting-list length over the entities with rows
  /// (Table 5 statistics).
  size_t MaxPostingLength() const;
  double AvgPostingLength() const;

 private:
  /// Posts rows [from, table.num_rows()): the whole table for Build,
  /// the delta for BuildIncremental.
  void Append(const Table& table, size_t from);

  // Indexed by entity code; empty for a code with no rows.
  std::vector<PrefixArray<RowId>> postings_;
  // The table's own entity dictionary (null only when
  // default-constructed), for name resolution.
  std::shared_ptr<const StringDictionary> dict_;
};

}  // namespace paleo

#endif  // PALEO_INDEX_ENTITY_INDEX_H_
