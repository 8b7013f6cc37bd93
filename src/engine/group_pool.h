// The executor's pool of dense per-entity aggregation arrays.
//
// A grouped execution folds rows into an AggState array indexed by
// entity code, so each array spans the entity dictionary (1.4 MB at
// 45,000 entities). Scan workers, the index-assisted posting loop, the
// chunk merge and the threshold state each need one per execution, and
// a selective scan touches few of its slots, so allocating and
// zero-filling a fresh one each time is mostly wasted. Instead each
// borrower takes an array from its executor's pool and hands it back
// zeroed: it resets exactly the slots it touched, on every path, a
// budget interruption and a threshold refutation included. So an
// untouched slot always reads AggState{} (count == 0), and an array is
// zero-filled only once, when the pool first allocates or grows it.
//
// Thread-safety: Borrow and Return are internally synchronized; an
// array belongs to one borrower at a time.

#ifndef PALEO_ENGINE_GROUP_POOL_H_
#define PALEO_ENGINE_GROUP_POOL_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/aggregate.h"

namespace paleo {

/// \brief Free list of zeroed dense AggState arrays (see the file
/// comment).
class GroupArrayPool {
 public:
  /// An array of at least `size` slots, every one AggState{}.
  std::vector<AggState> Borrow(size_t size) {
    std::vector<AggState> groups;
    {
      MutexLock lock(mutex_);
      if (!free_.empty()) {
        groups = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (groups.size() < size) groups.resize(size);
    return groups;
  }

  /// Takes `groups` back for the next borrower. Precondition: every
  /// slot is AggState{} again.
  void Return(std::vector<AggState> groups) {
    MutexLock lock(mutex_);
    free_.push_back(std::move(groups));
  }

 private:
  Mutex mutex_;
  std::vector<std::vector<AggState>> free_ GUARDED_BY(mutex_);
};

}  // namespace paleo

#endif  // PALEO_ENGINE_GROUP_POOL_H_
