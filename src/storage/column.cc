#include "storage/column.h"

#include "common/logging.h"

namespace paleo {

namespace {

/// A copy of `rows` of `values`, in a buffer of exactly that size.
template <typename T>
PrefixArray<T> GatherRows(const PrefixArray<T>& values,
                          const std::vector<RowId>& rows) {
  PrefixArray<T> out;
  if (rows.empty()) return out;
  T* dst = out.Extend(rows.size());
  for (RowId r : rows) *dst++ = values[r];
  return out;
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  if (type_ == DataType::kString) {
    dict_ = std::make_shared<StringDictionary>();
  }
}

size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kDouble:
      return doubles_.size();
    case DataType::kString:
      return codes_.size();
  }
  return 0;
}

Status Column::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64())
        return Status::TypeError("cannot append " +
                                 std::string(DataTypeToString(v.type())) +
                                 " to INT64 column");
      ints_.Append(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (!v.is_numeric())
        return Status::TypeError("cannot append STRING to DOUBLE column");
      doubles_.Append(v.AsDouble());
      return Status::OK();
    case DataType::kString:
      if (!v.is_string())
        return Status::TypeError("cannot append " +
                                 std::string(DataTypeToString(v.type())) +
                                 " to STRING column");
      codes_.Append(AddString(v.str()));
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

void Column::AppendInt64(int64_t v) {
  PALEO_DCHECK(type_ == DataType::kInt64);
  ints_.Append(v);
}

void Column::AppendDouble(double v) {
  PALEO_DCHECK(type_ == DataType::kDouble);
  doubles_.Append(v);
}

void Column::AppendString(std::string_view v) {
  PALEO_DCHECK(type_ == DataType::kString);
  codes_.Append(AddString(v));
}

void Column::AppendCode(uint32_t code) {
  PALEO_DCHECK(type_ == DataType::kString);
  PALEO_DCHECK(code < dict_->size());
  codes_.Append(code);
}

uint32_t Column::AddString(std::string_view s) {
  PALEO_DCHECK(type_ == DataType::kString);
  const uint32_t code = dict_->Lookup(s);
  if (code != StringDictionary::kInvalidCode) return code;
  // Copy on write: another column, an index or a gathered slice may be
  // reading the shared dictionary.
  if (dict_.use_count() != 1) {
    dict_ = std::make_shared<StringDictionary>(*dict_);
  }
  return dict_->GetOrAdd(s);
}

Value Column::GetValue(RowId row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(dict_->Get(codes_[row]));
  }
  return Value();
}

Column Column::Gather(const std::vector<RowId>& rows) const {
  Column out(type_, dict_);
  switch (type_) {
    case DataType::kInt64:
      out.ints_ = GatherRows(ints_, rows);
      break;
    case DataType::kDouble:
      out.doubles_ = GatherRows(doubles_, rows);
      break;
    case DataType::kString:
      out.codes_ = GatherRows(codes_, rows);
      break;
  }
  return out;
}

Column Column::DeepCopy() const {
  Column out(type_, dict_ == nullptr
                        ? nullptr
                        : std::make_shared<StringDictionary>(*dict_));
  out.ints_ = ints_.Clone();
  out.doubles_ = doubles_.Clone();
  out.codes_ = codes_.Clone();
  return out;
}

size_t Column::MemoryUsage() const {
  return ints_.capacity() * sizeof(int64_t) +
         doubles_.capacity() * sizeof(double) +
         codes_.capacity() * sizeof(uint32_t);
}

}  // namespace paleo
