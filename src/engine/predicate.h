// Conjunctive equality predicates — the WHERE clause language of the
// paper's query template (P1 AND P2 AND ..., each Pi of the form
// Ai = v).

#ifndef PALEO_ENGINE_PREDICATE_H_
#define PALEO_ENGINE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/value.h"

namespace paleo {

/// \brief One atomic predicate: column = constant, or (the range
/// extension, opt-in in the miner) column BETWEEN low AND high with
/// inclusive numeric bounds. Comparisons follow IEEE, so a NaN value
/// matches no atom, and a range with a NaN bound matches nothing.
struct AtomicPredicate {
  enum class Kind : int { kEquals = 0, kRange = 1 };

  int column = -1;
  Kind kind = Kind::kEquals;
  Value value;  // the constant, or the range's inclusive lower bound
  Value high;   // the range's inclusive upper bound (kRange only)

  AtomicPredicate() = default;
  AtomicPredicate(int column_in, Value value_in)
      : column(column_in), value(std::move(value_in)) {}

  /// Range atom over a numeric column; requires low <= high.
  static AtomicPredicate Range(int column, Value low, Value high) {
    AtomicPredicate atom(column, std::move(low));
    atom.kind = Kind::kRange;
    atom.high = std::move(high);
    return atom;
  }

  bool is_range() const { return kind == Kind::kRange; }

  bool operator==(const AtomicPredicate& other) const {
    return column == other.column && kind == other.kind &&
           value == other.value && (!is_range() || high == other.high);
  }
  /// Ordered by column index, then kind, then bounds (canonical
  /// conjunct order).
  bool operator<(const AtomicPredicate& other) const {
    if (column != other.column) return column < other.column;
    if (kind != other.kind) return kind < other.kind;
    if (!(value == other.value)) return value < other.value;
    if (is_range() && !(high == other.high)) return high < other.high;
    return false;
  }
};

/// \brief Conjunction of atomic equality predicates, kept sorted by
/// column index. An empty conjunction is TRUE (no WHERE clause).
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<AtomicPredicate> atoms);

  /// Convenience: single-atom predicate.
  static Predicate Atom(int column, Value value);

  /// Conjunction of this predicate and an extra atom. Returns
  /// InvalidArgument if the atom's column already appears (equality on
  /// the same column twice is either redundant or unsatisfiable).
  StatusOr<Predicate> And(const AtomicPredicate& atom) const;

  const std::vector<AtomicPredicate>& atoms() const { return atoms_; }
  int size() const { return static_cast<int>(atoms_.size()); }
  bool IsTrue() const { return atoms_.empty(); }

  /// True if every atom of this predicate also appears in `other`
  /// (i.e. this is a sub-predicate: other is at least as restrictive).
  bool SubsetOf(const Predicate& other) const;

  /// Number of atoms shared with `other`.
  int OverlapWith(const Predicate& other) const;

  /// Row-at-a-time evaluation (boxed; for tests and small inputs),
  /// by BoundPredicate's rules: an equality atom on a DOUBLE column
  /// widens a numeric constant and compares by IEEE ==; other columns
  /// match a constant of their own type only.
  bool Matches(const Table& table, RowId row) const;

  /// Renders "p_type = 'STEEL' AND r_name = 'AMERICA'"; "TRUE" if empty.
  std::string ToSql(const Schema& schema) const;

  bool operator==(const Predicate& other) const {
    return atoms_ == other.atoms_;
  }
  bool operator<(const Predicate& other) const;

  uint64_t Hash() const;

 private:
  std::vector<AtomicPredicate> atoms_;  // sorted by (column, value)
};

/// \brief One atom resolved against a concrete table: string constants
/// looked up in the dictionary, the column bound to its typed array.
/// Shared between the row-at-a-time BoundPredicate::Matches loop and
/// the batch selection kernels (engine/selection_kernels.h).
struct BoundAtom {
  enum Kind {
    kCode,
    kInt,
    kDouble,
    kIntRange,
    kDoubleRange,
    kNever
  } kind = kNever;
  // The bound column's array (Column::codes() etc.), indexed by
  // absolute row id.
  const uint32_t* codes = nullptr;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  uint32_t code = 0;
  int64_t int_value = 0;    // equality constant or range low
  double double_value = 0.0;
  int64_t int_high = 0;     // range high bounds
  double double_high = 0.0;
};

/// \brief Predicate compiled against a concrete table for scan loops:
/// string constants are resolved to dictionary codes once, and columns
/// are bound to typed arrays.
class BoundPredicate {
 public:
  /// Binding never fails: a string constant absent from the column's
  /// dictionary simply can never match (the predicate selects nothing).
  BoundPredicate(const Predicate& pred, const Table& table);

  bool Matches(RowId row) const {
    for (const BoundAtom& a : atoms_) {
      switch (a.kind) {
        case BoundAtom::kCode:
          if (a.codes[row] != a.code) return false;
          break;
        case BoundAtom::kInt:
          if (a.ints[row] != a.int_value) return false;
          break;
        case BoundAtom::kDouble:
          if (a.doubles[row] != a.double_value) return false;
          break;
        case BoundAtom::kIntRange: {
          int64_t v = a.ints[row];
          if (v < a.int_value || v > a.int_high) return false;
          break;
        }
        case BoundAtom::kDoubleRange: {
          // NaN (a value or a bound) is in no range.
          double v = a.doubles[row];
          if (!(v >= a.double_value && v <= a.double_high)) return false;
          break;
        }
        case BoundAtom::kNever:
          return false;
      }
    }
    return true;
  }

  /// Bound atoms in the predicate's canonical (column-sorted) order,
  /// i.e. atoms()[i] is the binding of pred.atoms()[i].
  const std::vector<BoundAtom>& atoms() const { return atoms_; }

 private:
  std::vector<BoundAtom> atoms_;
};

/// \brief True when `atom` provably matches NO row of a chunk whose
/// column summary is `zone` — the executor then skips the chunk
/// entirely (zone-map data skipping).
///
/// Soundness rules:
///  - An `empty` zone never refutes (nothing is known about the chunk).
///  - kNever atoms (string constant absent from the dictionary) refute
///    every chunk.
///  - Dictionary-code ranges refute EQUALITY only: codes are
///    insertion-ordered, so [code_min, code_max] says which codes occur,
///    not anything about string order. (String range atoms do not exist
///    in the predicate language; numeric ranges use the value ranges.)
///  - NaN-only chunks keep empty zones and are conservatively scanned;
///    NaN data values can never match an atom, so excluding them from
///    zone ranges (storage/zone_map.h) refutes nothing incorrectly.
bool AtomRefutedByZone(const BoundAtom& atom, const ZoneMap& zone);

struct PredicateHasher {
  size_t operator()(const Predicate& p) const {
    return static_cast<size_t>(p.Hash());
  }
};

}  // namespace paleo

#endif  // PALEO_ENGINE_PREDICATE_H_
