#include "engine/predicate.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace paleo {

Predicate::Predicate(std::vector<AtomicPredicate> atoms)
    : atoms_(std::move(atoms)) {
  std::sort(atoms_.begin(), atoms_.end());
}

Predicate Predicate::Atom(int column, Value value) {
  return Predicate({AtomicPredicate(column, std::move(value))});
}

StatusOr<Predicate> Predicate::And(const AtomicPredicate& atom) const {
  for (const AtomicPredicate& a : atoms_) {
    if (a.column == atom.column) {
      return Status::InvalidArgument(
          "column " + std::to_string(atom.column) +
          " already constrained in predicate");
    }
  }
  std::vector<AtomicPredicate> atoms = atoms_;
  atoms.push_back(atom);
  return Predicate(std::move(atoms));
}

bool Predicate::SubsetOf(const Predicate& other) const {
  // Both sides sorted: linear merge check.
  size_t j = 0;
  for (const AtomicPredicate& a : atoms_) {
    while (j < other.atoms_.size() && other.atoms_[j] < a) ++j;
    if (j == other.atoms_.size() || !(other.atoms_[j] == a)) return false;
    ++j;
  }
  return true;
}

int Predicate::OverlapWith(const Predicate& other) const {
  int overlap = 0;
  size_t i = 0, j = 0;
  while (i < atoms_.size() && j < other.atoms_.size()) {
    if (atoms_[i] < other.atoms_[j]) {
      ++i;
    } else if (other.atoms_[j] < atoms_[i]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return overlap;
}

bool Predicate::Matches(const Table& table, RowId row) const {
  for (const AtomicPredicate& a : atoms_) {
    Value v = table.GetValue(row, a.column);
    if (a.is_range()) {
      if (!v.is_numeric() || !a.value.is_numeric() || !a.high.is_numeric())
        return false;
      // As the scan kernels: by IEEE comparison, so NaN (a value or a
      // bound) is in no range.
      double x = v.AsDouble();
      if (!(x >= a.value.AsDouble() && x <= a.high.AsDouble())) return false;
    } else if (v.is_double()) {
      // As BoundPredicate: a DOUBLE column takes any numeric constant,
      // widened, and compares by IEEE == (NaN matches nothing).
      if (!a.value.is_numeric() || v.dbl() != a.value.AsDouble()) {
        return false;
      }
    } else if (v != a.value) {
      return false;
    }
  }
  return true;
}

std::string Predicate::ToSql(const Schema& schema) const {
  if (atoms_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(atoms_.size());
  for (const AtomicPredicate& a : atoms_) {
    if (a.is_range()) {
      parts.push_back(schema.field(a.column).name + " BETWEEN " +
                      a.value.ToSql() + " AND " + a.high.ToSql());
    } else {
      parts.push_back(schema.field(a.column).name + " = " + a.value.ToSql());
    }
  }
  return Join(parts, " AND ");
}

bool Predicate::operator<(const Predicate& other) const {
  return std::lexicographical_compare(atoms_.begin(), atoms_.end(),
                                      other.atoms_.begin(),
                                      other.atoms_.end());
}

uint64_t Predicate::Hash() const {
  uint64_t h = 0x243F6A8885A308D3ULL;
  for (const AtomicPredicate& a : atoms_) {
    h ^= static_cast<uint64_t>(a.column) * 0x9E3779B97F4A7C15ULL;
    h = (h << 13) | (h >> 51);
    h ^= a.value.Hash();
    if (a.is_range()) {
      h = (h << 7) | (h >> 57);
      h ^= a.high.Hash() ^ 0xA5A5A5A5A5A5A5A5ULL;
    }
    h *= 0xC2B2AE3D27D4EB4FULL;
  }
  return h;
}

BoundPredicate::BoundPredicate(const Predicate& pred, const Table& table) {
  atoms_.reserve(pred.atoms().size());
  for (const AtomicPredicate& a : pred.atoms()) {
    const Column& col = table.column(a.column);
    BoundAtom bound;
    if (a.is_range()) {
      // Ranges apply to numeric columns only.
      if (!a.value.is_numeric() || !a.high.is_numeric()) {
        bound.kind = BoundAtom::kNever;
      } else if (col.type() == DataType::kInt64) {
        bound.kind = BoundAtom::kIntRange;
        bound.ints = col.ints().data();
        // Integer bounds: round inward so the inclusive semantics hold.
        bound.int_value =
            static_cast<int64_t>(std::ceil(a.value.AsDouble()));
        bound.int_high =
            static_cast<int64_t>(std::floor(a.high.AsDouble()));
      } else if (col.type() == DataType::kDouble) {
        bound.kind = BoundAtom::kDoubleRange;
        bound.doubles = col.doubles().data();
        bound.double_value = a.value.AsDouble();
        bound.double_high = a.high.AsDouble();
      } else {
        bound.kind = BoundAtom::kNever;
      }
      atoms_.push_back(bound);
      continue;
    }
    switch (col.type()) {
      case DataType::kString: {
        if (!a.value.is_string()) {
          bound.kind = BoundAtom::kNever;
          break;
        }
        uint32_t code = col.dict()->Lookup(a.value.str());
        if (code == StringDictionary::kInvalidCode) {
          bound.kind = BoundAtom::kNever;
        } else {
          bound.kind = BoundAtom::kCode;
          bound.codes = col.codes().data();
          bound.code = code;
        }
        break;
      }
      case DataType::kInt64:
        if (!a.value.is_int64()) {
          bound.kind = BoundAtom::kNever;
        } else {
          bound.kind = BoundAtom::kInt;
          bound.ints = col.ints().data();
          bound.int_value = a.value.int64();
        }
        break;
      case DataType::kDouble:
        if (!a.value.is_numeric()) {
          bound.kind = BoundAtom::kNever;
        } else {
          bound.kind = BoundAtom::kDouble;
          bound.doubles = col.doubles().data();
          bound.double_value = a.value.AsDouble();
        }
        break;
    }
    atoms_.push_back(bound);
  }
}

bool AtomRefutedByZone(const BoundAtom& atom, const ZoneMap& zone) {
  // kNever needs no zone: the constant is unmappable, nothing matches.
  if (atom.kind == BoundAtom::kNever) return true;
  if (zone.empty) return false;
  switch (atom.kind) {
    case BoundAtom::kCode:
      return atom.code < zone.code_min || atom.code > zone.code_max;
    case BoundAtom::kInt:
      return atom.int_value < zone.int_min || atom.int_value > zone.int_max;
    case BoundAtom::kDouble:
      return atom.double_value < zone.double_min ||
             atom.double_value > zone.double_max;
    case BoundAtom::kIntRange:
      // Disjoint intervals: [low, high] misses [min, max] entirely.
      return atom.int_high < zone.int_min || atom.int_value > zone.int_max;
    case BoundAtom::kDoubleRange:
      return atom.double_high < zone.double_min ||
             atom.double_value > zone.double_max;
    case BoundAtom::kNever:
      return true;
  }
  return false;
}

}  // namespace paleo
