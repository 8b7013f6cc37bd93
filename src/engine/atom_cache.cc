#include "engine/atom_cache.h"

#include <new>

#include "common/fault_points.h"

namespace paleo {

size_t AtomSelectionCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = k.epoch * 0x9E3779B97F4A7C15ULL;
  h ^= (static_cast<uint64_t>(k.chunk) + 0x165667B19E3779F9ULL) *
       0x27D4EB2F165667C5ULL;
  h ^= static_cast<uint64_t>(k.atom.column) * 0xC2B2AE3D27D4EB4FULL;
  h = (h << 17) | (h >> 47);
  h ^= static_cast<uint64_t>(k.atom.kind);
  h ^= k.atom.value.Hash();
  if (k.atom.is_range()) {
    h = (h << 9) | (h >> 55);
    h ^= k.atom.high.Hash();
  }
  return static_cast<size_t>(h * 0xFF51AFD7ED558CCDULL);
}

std::shared_ptr<const SelectionBitmap> AtomSelectionCache::Lookup(
    uint64_t epoch, uint32_t chunk, const AtomicPredicate& atom) {
  MutexLock lock(mutex_);
  auto it = index_.find(Key{epoch, chunk, atom});
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  // Refresh the LRU position: splice the entry to the front.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->bitmap;
}

std::shared_ptr<const SelectionBitmap> AtomSelectionCache::Insert(
    uint64_t epoch, uint32_t chunk, const AtomicPredicate& atom,
    SelectionBitmap bitmap) {
  // Chaos hook: behave exactly as if the shared-copy allocation threw.
  bool alloc_failed =
      PALEO_FAULT_POINT("atom-cache.insert.alloc").alloc_failure();
  std::shared_ptr<const SelectionBitmap> shared;
  if (!alloc_failed) {
    try {
      shared = std::make_shared<const SelectionBitmap>(std::move(bitmap));
    } catch (const std::bad_alloc&) {
      // make_shared failed before moving from `bitmap`; it is intact.
      alloc_failed = true;
    }
  }
  if (alloc_failed) {
    // Memory pressure: shrink retention (freeing resident bitmaps) and
    // hand the caller an unretained copy — degrade, do not fail.
    {
      MutexLock lock(mutex_);
      ShrinkOnPressureLocked();
    }
    // With evicted entries released this allocation normally succeeds;
    // a genuine out-of-memory still propagates (nothing sane is left).
    return std::make_shared<const SelectionBitmap>(std::move(bitmap));
  }
  MutexLock lock(mutex_);
  if (effective_budget_ == 0) {
    return shared;  // retention disabled (configured off or degraded)
  }
  Key key{epoch, chunk, atom};
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread computed the same atom concurrently; first insert
    // wins so every consumer shares one copy.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->bitmap;
  }
  const size_t bytes = shared->MemoryUsage();
  lru_.push_front(Entry{key, shared, bytes});
  index_[std::move(key)] = lru_.begin();
  resident_bytes_ += bytes;
  EvictLocked();
  return shared;
}

void AtomSelectionCache::EvictLocked() {
  while (resident_bytes_ > effective_budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

void AtomSelectionCache::ShrinkOnPressureLocked() {
  ++pressure_events_;
  effective_budget_ /= 2;
  if (effective_budget_ < kMinRetentionBytes) {
    // The ladder's last rung: retention off for the rest of the run.
    effective_budget_ = 0;
  }
  EvictLocked();
}

AtomSelectionCache::Stats AtomSelectionCache::stats() const {
  MutexLock lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.pressure_events = pressure_events_;
  s.resident_bytes = resident_bytes_;
  s.entries = lru_.size();
  s.effective_budget_bytes = effective_budget_;
  return s;
}

}  // namespace paleo
