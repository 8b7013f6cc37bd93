// Typed column vectors.
//
// A Column owns a flat array of one physical type. String columns hold
// uint32 codes plus a StringDictionary. Hot paths (mining,
// aggregation) read the typed arrays directly; Value-based accessors
// exist for boundaries and tests.
//
// Copies share storage. The arrays are PrefixArrays
// (storage/prefix_array.h): a copy reads the same contiguous buffer as
// the original through its own length, and an append by either writes
// past both lengths or forks. The dictionary is shared too, and copied
// on write: a column that registers a new string while another holder
// shares its dictionary first copies the dictionary (codes preserved).
//
// Thread contract: appends and Set* writes to one column are
// single-threaded. Any number of threads may read a column while it is
// not being written, including while a copy of it appends.

#ifndef PALEO_STORAGE_COLUMN_H_
#define PALEO_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/prefix_array.h"
#include "types/value.h"

namespace paleo {

/// Row identifier within a Table. 32 bits bound tables to ~4.3B rows,
/// far beyond the scales this system targets, and halve tuple-set
/// memory versus 64-bit ids.
using RowId = uint32_t;

/// \brief One typed column of a Table.
class Column {
 public:
  /// Creates an empty column of the given type; string columns get a
  /// fresh dictionary.
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const;

  /// Appends a value; returns TypeError on mismatch. Int64 values are
  /// accepted into Double columns (widened), nothing else is coerced.
  Status Append(const Value& v);

  /// Typed appends (no checking beyond asserts; hot path for builders).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  void AppendCode(uint32_t code);

  /// Returns the code of `s`, registering it first if new (copying a
  /// shared dictionary before the insert). Precondition: string column.
  uint32_t AddString(std::string_view s);

  /// Typed in-place writers. Preconditions: matching type, row < size().
  /// A write first copies the array if another column shares it.
  void SetInt64(RowId row, int64_t v) { ints_.MutableData()[row] = v; }
  void SetDouble(RowId row, double v) { doubles_.MutableData()[row] = v; }
  void SetCode(RowId row, uint32_t code) { codes_.MutableData()[row] = code; }

  /// Typed readers. Preconditions: matching type, row < size().
  int64_t Int64At(RowId row) const { return ints_[row]; }
  double DoubleAt(RowId row) const { return doubles_[row]; }
  uint32_t CodeAt(RowId row) const { return codes_[row]; }
  const std::string& StringAt(RowId row) const {
    return dict_->Get(codes_[row]);
  }

  /// Numeric value widened to double. Precondition: numeric column.
  double NumericAt(RowId row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(ints_[row])
                                     : doubles_[row];
  }

  /// Boxed read (any type).
  Value GetValue(RowId row) const;

  /// Raw arrays for scan loops: contiguous, valid until this column is
  /// next written.
  std::span<const int64_t> ints() const { return ints_.span(); }
  std::span<const double> doubles() const { return doubles_.span(); }
  std::span<const uint32_t> codes() const { return codes_.span(); }

  /// The dictionary of a string column (null otherwise), valid until
  /// this column registers a new string; shared_dict() for holders
  /// that keep it longer.
  const StringDictionary* dict() const { return dict_.get(); }
  std::shared_ptr<const StringDictionary> shared_dict() const {
    return dict_;
  }

  /// New column containing rows[0], rows[1], ... in order, in a buffer
  /// of exactly that size; string columns share this column's
  /// dictionary.
  Column Gather(const std::vector<RowId>& rows) const;

  /// New column with identical contents that shares no storage with
  /// this one: private arrays of this column's capacity and its own
  /// copy of the dictionary (codes preserved).
  Column DeepCopy() const;

  /// Heap footprint of the array buffer in bytes, its headroom and any
  /// part shared with other columns included (excludes the dictionary).
  size_t MemoryUsage() const;

 private:
  Column(DataType type, std::shared_ptr<StringDictionary> dict)
      : type_(type), dict_(std::move(dict)) {}

  DataType type_;
  PrefixArray<int64_t> ints_;
  PrefixArray<double> doubles_;
  PrefixArray<uint32_t> codes_;
  std::shared_ptr<StringDictionary> dict_;
};

}  // namespace paleo

#endif  // PALEO_STORAGE_COLUMN_H_
