// Cross-candidate selection cache for the validation hot path.
//
// Apriori-mined candidate queries share almost all of their predicate
// atoms by construction (a level-3 conjunction reuses the exact atoms
// of its level-1/2 ancestors), yet the executor used to rescan R for
// every candidate. The AtomSelectionCache memoizes the per-atom
// selection bitmaps produced by the kernels in
// engine/selection_kernels.h, keyed by (table epoch, chunk index,
// atom), so a conjunction that has been seen atom-wise before resolves
// to a word-wise AND of cached bitmaps instead of a rescan. Keys
// compare by full equality — hash-only keying would make a collision
// silently serve the wrong selection. Chunked scans store one bitmap
// per chunk — morsel workers on different chunks never contend for the
// same key, and a zone-map-skipped chunk caches nothing.
//
// Retention is a byte budget with LRU eviction: entries are charged
// their bitmap's word-array size, the least-recently-used entries are
// dropped once the budget is exceeded, and bitmaps are handed out as
// shared_ptr<const SelectionBitmap> so an evicted bitmap stays alive
// for readers still holding it.
//
// Thread-safety: fully thread-safe. One cache is shared by all workers
// of the validator's parallel path within a run; every public method
// takes the internal paleo::Mutex. Bitmap *computation* happens outside
// the lock (callers compute on miss, then Insert) — two threads may
// race to compute the same atom, in which case the first Insert wins
// and the loser adopts the winner's bitmap, keeping every consumer on
// one shared copy.

#ifndef PALEO_ENGINE_ATOM_CACHE_H_
#define PALEO_ENGINE_ATOM_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/predicate.h"
#include "engine/selection_bitmap.h"

namespace paleo {

/// \brief Thread-safe LRU cache of per-atom selection bitmaps.
class AtomSelectionCache {
 public:
  /// Point-in-time counters (exact; taken under the mutex).
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Allocation failures (real or injected) absorbed by shrinking
    /// the effective budget; see Insert().
    int64_t pressure_events = 0;
    size_t resident_bytes = 0;
    size_t entries = 0;
    /// Current retention budget: starts at byte_budget(), halves on
    /// each pressure event, 0 once retention shut down.
    size_t effective_budget_bytes = 0;
  };

  /// `byte_budget` bounds the resident bitmap bytes; 0 disables
  /// retention entirely (every Lookup misses, Insert stores nothing),
  /// which keeps the call sites branch-free.
  explicit AtomSelectionCache(size_t byte_budget)
      : byte_budget_(byte_budget), effective_budget_(byte_budget) {}

  AtomSelectionCache(const AtomSelectionCache&) = delete;
  AtomSelectionCache& operator=(const AtomSelectionCache&) = delete;

  /// The cached selection of `atom` over chunk `chunk` of the table
  /// stamped `epoch`, or nullptr on miss. A hit refreshes the entry's
  /// LRU position.
  std::shared_ptr<const SelectionBitmap> Lookup(uint64_t epoch,
                                                uint32_t chunk,
                                                const AtomicPredicate& atom);

  /// Inserts the freshly computed selection and returns the retained
  /// bitmap. First insert wins: if another thread raced the same key in,
  /// the existing bitmap is returned and `bitmap` is discarded, so all
  /// consumers share one copy. Evicts LRU entries past the byte budget.
  ///
  /// Memory-pressure degradation: when retaining the bitmap fails to
  /// allocate (a real bad_alloc or an injected fault), the cache
  /// halves its effective budget, evicts down to it, and hands the
  /// caller an UNRETAINED copy — the run keeps its correct bitmap and
  /// only loses reuse. Once the effective budget shrinks below a small
  /// floor, retention shuts down for good: every later Insert hands
  /// back an unretained bitmap, and the scan goes on computing fresh
  /// per-chunk bitmaps with identical results.
  std::shared_ptr<const SelectionBitmap> Insert(uint64_t epoch,
                                                uint32_t chunk,
                                                const AtomicPredicate& atom,
                                                SelectionBitmap bitmap);

  Stats stats() const;
  size_t byte_budget() const { return byte_budget_; }

 private:
  struct Key {
    uint64_t epoch = 0;
    uint32_t chunk = 0;
    AtomicPredicate atom;
    bool operator==(const Key& other) const {
      return epoch == other.epoch && chunk == other.chunk &&
             atom == other.atom;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const SelectionBitmap> bitmap;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// Below this effective budget retention is pointless (a single
  /// bitmap word array usually exceeds it): shut retention down.
  static constexpr size_t kMinRetentionBytes = 4096;

  /// Drops LRU entries until the effective budget holds again.
  void EvictLocked() REQUIRES(mutex_);
  /// One pressure event: halve the effective budget and evict down to
  /// it; below the floor, shut retention down.
  void ShrinkOnPressureLocked() REQUIRES(mutex_);

  const size_t byte_budget_;

  mutable Mutex mutex_;
  /// Front = most recently used.
  LruList lru_ GUARDED_BY(mutex_);
  std::unordered_map<Key, LruList::iterator, KeyHash> index_
      GUARDED_BY(mutex_);
  size_t effective_budget_ GUARDED_BY(mutex_) = 0;
  size_t resident_bytes_ GUARDED_BY(mutex_) = 0;
  int64_t hits_ GUARDED_BY(mutex_) = 0;
  int64_t misses_ GUARDED_BY(mutex_) = 0;
  int64_t evictions_ GUARDED_BY(mutex_) = 0;
  int64_t pressure_events_ GUARDED_BY(mutex_) = 0;
};

}  // namespace paleo

#endif  // PALEO_ENGINE_ATOM_CACHE_H_
