// Append-only arrays whose copies share storage by prefix.
//
// A PrefixArray is a (buffer, length) pair over a heap buffer of
// trivially copyable elements. Copying one copies the pair, not the
// elements: the copy and the original read the same buffer, each
// through its own length, so consecutive versions of a growing column
// or posting list share every element they have in common. A holder
// reads only its own prefix [0, size()), and nothing inside a prefix
// ever changes, because an append writes past every prefix a holder
// can read:
//
//  - The buffer records its tip, the longest prefix any holder has
//    claimed. An append of k elements to a holder of length n claims
//    [n, n + k) by moving the tip from n to n + k, with one
//    compare-and-swap while other holders share the buffer, and writes
//    there in place.
//  - When the tip has already moved past n (another holder extended
//    the buffer first), or the buffer is full, the append forks: it
//    copies the prefix into a private buffer of max(8, 2(n + k))
//    elements and appends there. Other holders keep the old buffer,
//    and the last holder of a buffer frees it.
//  - The headroom past the tip is allocated default-initialised and is
//    not written until an append claims it, so its pages never become
//    resident before they are used.
//
// Thread contract: a holder is a value, like a std::vector — one
// thread at a time may append to or assign one holder. Distinct
// holders may append concurrently even when they share a buffer (the
// claim is atomic), and any number of threads may read a holder,
// through a copy or a const reference, while other holders append to
// the shared buffer: a reader never reads the tip, and no append
// writes inside a claimed prefix.

#ifndef PALEO_STORAGE_PREFIX_ARRAY_H_
#define PALEO_STORAGE_PREFIX_ARRAY_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>

namespace paleo {

/// \brief Append-only array of trivially copyable `T` whose copies
/// share storage by prefix (see file comment).
template <typename T>
class PrefixArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_default_constructible_v<T>,
                "PrefixArray copies elements as bytes");

 public:
  PrefixArray() = default;
  PrefixArray(const PrefixArray&) = default;
  PrefixArray& operator=(const PrefixArray&) = default;
  PrefixArray(PrefixArray&& other) noexcept
      : buffer_(std::move(other.buffer_)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PrefixArray& operator=(PrefixArray&& other) noexcept {
    buffer_ = std::move(other.buffer_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Elements the buffer holds room for, this holder's prefix, other
  /// holders' appends and the untouched headroom together.
  size_t capacity() const {
    return buffer_ == nullptr ? 0 : buffer_->capacity;
  }

  /// This holder's prefix. The pointer stays valid for as long as this
  /// holder neither appends nor is assigned.
  const T* data() const { return data_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<const T> span() const { return {data_, size_}; }

  void Append(T value) { *Extend(1) = value; }

  /// Claims `n` elements past this holder's prefix and returns them,
  /// unwritten, for the caller to fill before any other thread reads
  /// this holder.
  T* Extend(size_t n) {
    const size_t length = size_;
    if (buffer_ == nullptr || length + n > buffer_->capacity ||
        !Claim(length, length + n)) {
      Fork(length + n, 2 * (length + n));
    }
    size_ = length + n;
    return data_ + length;
  }

  /// This holder's prefix, writable in place. Copies it into a private
  /// buffer first unless this holder is the buffer's only one, so no
  /// other holder sees the writes.
  T* MutableData() {
    if (buffer_ != nullptr && buffer_.use_count() != 1) {
      Fork(size_, buffer_->capacity);
    }
    return data_;
  }

  /// A holder of a private buffer with this holder's capacity, holding
  /// a copy of this prefix; shares nothing with this one.
  PrefixArray Clone() const {
    PrefixArray out;
    if (buffer_ != nullptr) {
      out.data_ = data_;
      out.size_ = size_;
      out.Fork(size_, buffer_->capacity);
    }
    return out;
  }

 private:
  struct Buffer {
    explicit Buffer(size_t n)
        : data(std::make_unique_for_overwrite<T[]>(n)), capacity(n) {}
    std::unique_ptr<T[]> data;  // default-initialised: see file comment
    const size_t capacity;
    // atomic: appends to distinct holders of one buffer may race to
    // claim the same slots, and the compare-and-swap lets exactly one
    // win. Readers never load it: a holder's elements reach other
    // threads through whatever hands them the holder.
    std::atomic<size_t> tip{0};
  };

  /// Moves the buffer's tip from `from` to `to`; false when another
  /// holder moved it first.
  bool Claim(size_t from, size_t to) {
    std::atomic<size_t>& tip = buffer_->tip;
    if (buffer_.use_count() != 1) return tip.compare_exchange_strong(from, to);
    // relaxed: this holder is the buffer's only one and is not copied
    // while it appends, so no other thread can touch the tip; the
    // compare-and-swap above, a full barrier on every append, is only
    // needed while holders share the buffer (bulk builds append
    // millions of elements to private buffers).
    if (tip.load(std::memory_order_relaxed) != from) return false;
    tip.store(to, std::memory_order_relaxed);
    return true;
  }

  /// Moves this holder to a fresh buffer of `capacity` (at least
  /// kMinCapacity) holding a copy of its prefix, with the tip at
  /// `tip`.
  void Fork(size_t tip, size_t capacity) {
    auto fresh = std::make_shared<Buffer>(std::max(capacity, kMinCapacity));
    std::copy_n(data_, size_, fresh->data.get());
    fresh->tip.store(tip);
    data_ = fresh->data.get();
    buffer_ = std::move(fresh);
  }

  static constexpr size_t kMinCapacity = 8;

  std::shared_ptr<Buffer> buffer_;
  // Cached buffer_->data.get(), so a read is one load.
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace paleo

#endif  // PALEO_STORAGE_PREFIX_ARRAY_H_
