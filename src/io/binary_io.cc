#include "io/binary_io.h"

#include <cstring>
#include <fstream>
#include <sstream>

namespace paleo {

namespace {

constexpr char kMagic[4] = {'P', 'A', 'L', 'B'};
constexpr uint32_t kVersion = 1;

/// Byte-stream writer over a std::string.
class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void Raw(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  std::string& buffer() { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked byte-stream reader.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Status U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  Status U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  Status U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  Status I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  Status F64(double* v) { return Raw(v, sizeof(*v)); }

  Status Str(std::string* s) {
    uint32_t len = 0;
    PALEO_RETURN_NOT_OK(U32(&len));
    if (len > Remaining()) {
      return Status::IoError("truncated string field");
    }
    s->assign(bytes_.substr(pos_, len));
    pos_ += len;
    return Status::OK();
  }

  Status Raw(void* data, size_t size) {
    if (size > Remaining()) {
      return Status::IoError("unexpected end of data");
    }
    std::memcpy(data, bytes_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::string BinaryIo::Serialize(const Table& table) {
  Writer w;
  w.Raw(kMagic, sizeof(kMagic));
  const Schema& schema = table.schema();
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    w.Str(f.name);
    w.U8(static_cast<uint8_t>(f.type));
    w.U8(static_cast<uint8_t>(f.role));
  }
  w.U64(table.num_rows());
  for (int c = 0; c < schema.num_fields(); ++c) {
    const Column& col = table.column(c);
    switch (col.type()) {
      case DataType::kString: {
        const StringDictionary& dict = *col.dict();
        w.U32(dict.size());
        for (uint32_t code = 0; code < dict.size(); ++code) {
          w.Str(dict.Get(code));
        }
        w.Raw(col.codes().data(), col.codes().size() * sizeof(uint32_t));
        break;
      }
      case DataType::kInt64:
        w.Raw(col.ints().data(), col.ints().size() * sizeof(int64_t));
        break;
      case DataType::kDouble:
        w.Raw(col.doubles().data(), col.doubles().size() * sizeof(double));
        break;
    }
  }
  // CRC of everything after the magic.
  uint32_t crc = Crc32(w.buffer().data() + sizeof(kMagic),
                       w.buffer().size() - sizeof(kMagic));
  w.U32(crc);
  return std::move(w.buffer());
}

StatusOr<Table> BinaryIo::Deserialize(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a PALEO binary table (bad magic)");
  }
  // Verify the trailing CRC before trusting any field.
  size_t payload_end = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + payload_end, sizeof(stored_crc));
  uint32_t actual_crc = Crc32(bytes.data() + sizeof(kMagic),
                              payload_end - sizeof(kMagic));
  if (stored_crc != actual_crc) {
    return Status::IoError("CRC mismatch: file corrupted or truncated");
  }

  Reader r(bytes.substr(sizeof(kMagic), payload_end - sizeof(kMagic)));
  uint32_t version = 0;
  PALEO_RETURN_NOT_OK(r.U32(&version));
  if (version != kVersion) {
    return Status::Unsupported("unsupported format version " +
                               std::to_string(version));
  }
  uint32_t n_cols = 0;
  PALEO_RETURN_NOT_OK(r.U32(&n_cols));
  if (n_cols == 0 || n_cols > 100000) {
    return Status::IoError("implausible column count");
  }
  std::vector<Field> fields;
  fields.reserve(n_cols);
  for (uint32_t c = 0; c < n_cols; ++c) {
    Field f;
    PALEO_RETURN_NOT_OK(r.Str(&f.name));
    uint8_t type = 0, role = 0;
    PALEO_RETURN_NOT_OK(r.U8(&type));
    PALEO_RETURN_NOT_OK(r.U8(&role));
    if (type > static_cast<uint8_t>(DataType::kString) ||
        role > static_cast<uint8_t>(FieldRole::kKey)) {
      return Status::IoError("invalid column type/role byte");
    }
    f.type = static_cast<DataType>(type);
    f.role = static_cast<FieldRole>(role);
    fields.push_back(std::move(f));
  }
  PALEO_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));

  uint64_t n_rows = 0;
  PALEO_RETURN_NOT_OK(r.U64(&n_rows));
  // Structural validation before decoding anything: the declared row
  // count must fit in the remaining payload. Every row costs at least
  // 4 bytes (a dictionary code) in a string column and 8 in a numeric
  // one, so an absurd count is rejected up front instead of grinding
  // through (and allocating for) a doomed decode loop.
  {
    uint64_t min_bytes_per_row = 0;
    for (uint32_t c = 0; c < n_cols; ++c) {
      min_bytes_per_row +=
          schema.field(static_cast<int>(c)).type == DataType::kString ? 4 : 8;
    }
    if (min_bytes_per_row > 0 &&
        n_rows > r.Remaining() / min_bytes_per_row) {
      return Status::IoError("row count " + std::to_string(n_rows) +
                             " exceeds file size");
    }
  }
  Table table(schema);
  for (uint32_t c = 0; c < n_cols; ++c) {
    Column* col = table.mutable_column(static_cast<int>(c));
    switch (schema.field(static_cast<int>(c)).type) {
      case DataType::kString: {
        uint32_t dict_size = 0;
        PALEO_RETURN_NOT_OK(r.U32(&dict_size));
        // Each dictionary entry occupies at least its 4-byte length.
        if (dict_size > r.Remaining() / 4) {
          return Status::IoError("dictionary size " +
                                 std::to_string(dict_size) +
                                 " exceeds file size");
        }
        for (uint32_t i = 0; i < dict_size; ++i) {
          std::string entry;
          PALEO_RETURN_NOT_OK(r.Str(&entry));
          uint32_t code = col->AddString(entry);
          if (code != i) {
            return Status::IoError("duplicate dictionary entry: " + entry);
          }
        }
        if (n_rows > r.Remaining() / sizeof(uint32_t)) {
          return Status::IoError(
              "string column " + schema.field(static_cast<int>(c)).name +
              ": code array truncated");
        }
        for (uint64_t row = 0; row < n_rows; ++row) {
          uint32_t code = 0;
          PALEO_RETURN_NOT_OK(r.U32(&code));
          if (code >= dict_size) {
            return Status::IoError("dictionary code out of range");
          }
          col->AppendCode(code);
        }
        break;
      }
      case DataType::kInt64:
        if (n_rows > r.Remaining() / sizeof(int64_t)) {
          return Status::IoError(
              "int64 column " + schema.field(static_cast<int>(c)).name +
              ": value array truncated");
        }
        for (uint64_t row = 0; row < n_rows; ++row) {
          int64_t v = 0;
          PALEO_RETURN_NOT_OK(r.I64(&v));
          col->AppendInt64(v);
        }
        break;
      case DataType::kDouble:
        if (n_rows > r.Remaining() / sizeof(double)) {
          return Status::IoError(
              "double column " + schema.field(static_cast<int>(c)).name +
              ": value array truncated");
        }
        for (uint64_t row = 0; row < n_rows; ++row) {
          double v = 0;
          PALEO_RETURN_NOT_OK(r.F64(&v));
          col->AppendDouble(v);
        }
        break;
    }
  }
  if (r.Remaining() != 0) {
    return Status::IoError("trailing bytes after table payload");
  }
  PALEO_RETURN_NOT_OK(table.CheckConsistent());
  return table;
}

Status BinaryIo::WriteFile(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  std::string bytes = Serialize(table);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IoError("error writing " + path);
  }
  return Status::OK();
}

StatusOr<Table> BinaryIo::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("error reading " + path);
  }
  return Deserialize(buffer.str());
}

}  // namespace paleo
