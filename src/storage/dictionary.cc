#include "storage/dictionary.h"

namespace paleo {

void StringDictionary::Segment::Add(std::string_view s, uint32_t code) {
  strings.emplace_back(s);
  codes.emplace(strings.back(), code);
}

size_t StringDictionary::Segment::MemoryUsage() const {
  size_t bytes = 0;
  for (const std::string& s : strings) {
    bytes += sizeof(std::string) + s.capacity();
    // Hash map entry: key string + code + bucket overhead (estimate).
    bytes += sizeof(std::string) + s.capacity() + sizeof(uint32_t) + 16;
  }
  return bytes;
}

StringDictionary::StringDictionary(const StringDictionary& other)
    : frozen_(other.frozen_), frozen_size_(other.frozen_size_) {
  if (other.tail_.strings.size() <= other.frozen_size_ / 8) {
    tail_ = other.tail_;
    return;
  }
  // Freeze: one new shared segment holding every code.
  auto frozen = std::make_shared<Segment>();
  const uint32_t n = other.size();
  frozen->strings.reserve(n);
  frozen->codes.reserve(n);
  for (uint32_t code = 0; code < n; ++code) frozen->Add(other.Get(code), code);
  frozen_ = std::move(frozen);
  frozen_size_ = n;
}

uint32_t StringDictionary::GetOrAdd(std::string_view s) {
  const uint32_t code = Lookup(s);
  if (code != kInvalidCode) return code;
  tail_.Add(s, size());
  return size() - 1;
}

uint32_t StringDictionary::Lookup(std::string_view s) const {
  if (frozen_ != nullptr) {
    auto it = frozen_->codes.find(s);
    if (it != frozen_->codes.end()) return it->second;
  }
  auto it = tail_.codes.find(s);
  return it == tail_.codes.end() ? kInvalidCode : it->second;
}

size_t StringDictionary::MemoryUsage() const {
  return (frozen_ == nullptr ? 0 : frozen_->MemoryUsage()) +
         tail_.MemoryUsage();
}

}  // namespace paleo
