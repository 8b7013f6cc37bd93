// Dictionary encoding for string columns.
//
// Every string column stores 32-bit codes into a per-column
// StringDictionary. Gathered tables (e.g. the in-memory slice R')
// share the parent's dictionary via shared_ptr, so predicate constants
// can be compared code-to-code without touching string data. Copies of
// a table (the versions a TableCatalog publishes) share it too, until
// one of them registers a new string: a column inserts only into a
// dictionary no other holder shares, copying a shared one first
// (storage/column.h), so a shared dictionary never changes.
//
// That copy is cheap. The first codes of a dictionary live in a frozen
// segment, immutable and shared by every copy; the rest in a private
// tail, which a copy copies. A copy whose source's tail has outgrown an
// eighth of its frozen segment freezes both into one new segment
// instead, so a copy costs at most an eighth of the strings plus the
// O(size) freeze once per size/8 strings added. A dictionary that is
// never copied keeps every string in its tail.
//
// Thread contract: the const members may run concurrently from any
// number of threads, also while copies of the dictionary are made or
// extended; GetOrAdd is single-threaded and must not overlap any
// reader of the same dictionary.

#ifndef PALEO_STORAGE_DICTIONARY_H_
#define PALEO_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace paleo {

/// \brief Append-only mapping between strings and dense uint32 codes.
class StringDictionary {
 public:
  static constexpr uint32_t kInvalidCode = UINT32_MAX;

  StringDictionary() = default;
  StringDictionary(const StringDictionary& other);
  StringDictionary& operator=(const StringDictionary&) = delete;

  /// Returns the code for `s`, inserting it if new.
  uint32_t GetOrAdd(std::string_view s);

  /// Returns the code for `s`, or kInvalidCode if absent.
  uint32_t Lookup(std::string_view s) const;

  /// Precondition: code < size().
  const std::string& Get(uint32_t code) const {
    return code < frozen_size_ ? frozen_->strings[code]
                               : tail_.strings[code - frozen_size_];
  }

  uint32_t size() const {
    return frozen_size_ + static_cast<uint32_t>(tail_.strings.size());
  }

  /// Approximate heap footprint in bytes (for memory reporting),
  /// including the frozen segment it may share with copies.
  size_t MemoryUsage() const;

 private:
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Strings by code, offset by the segment's first code, and the code
  /// of each.
  struct Segment {
    std::vector<std::string> strings;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
        codes;
    void Add(std::string_view s, uint32_t code);
    size_t MemoryUsage() const;
  };

  std::shared_ptr<const Segment> frozen_;  // codes [0, frozen_size_)
  uint32_t frozen_size_ = 0;
  Segment tail_;  // codes [frozen_size_, size())
};

}  // namespace paleo

#endif  // PALEO_STORAGE_DICTIONARY_H_
