// Annotated synchronization primitives: thin wrappers over std::mutex
// and std::condition_variable that carry the Clang thread-safety
// capability attributes (common/thread_annotations.h).
//
// The standard library types compile fine but are INVISIBLE to the
// compile-time analysis (libstdc++ ships them without capability
// attributes), so concurrent code in this repo uses these wrappers
// instead — tools/paleo_lint.py rejects raw std::mutex members outside
// this file. Mutex and CondVar add no state and no indirection: every
// method is a one-line inline forward, so the generated code is
// identical to using the std types directly.
//
// Condition waits keep std::condition_variable underneath (not
// condition_variable_any) via the adopt_lock trick: CondVar::Wait is
// annotated REQUIRES(mu) — from the analysis' point of view the lock is
// held across the wait, which is exactly the invariant callers rely on.
//
// Usage:
//   Mutex mutex_;
//   std::deque<Task> queue_ GUARDED_BY(mutex_);
//   CondVar ready_;
//   ...
//   MutexLock lock(mutex_);
//   while (queue_.empty()) ready_.Wait(mutex_);

#ifndef PALEO_COMMON_MUTEX_H_
#define PALEO_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace paleo {

/// \brief Exclusive mutex carrying the "mutex" capability.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII exclusive lock (std::lock_guard with annotations).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable bound to paleo::Mutex at each wait.
///
/// Waits are annotated REQUIRES(mu): callers hold the mutex across the
/// call, and guarded state they re-check afterwards is still seen as
/// protected by the analysis. Spurious wakeups happen exactly as with
/// the std type — always wait in a predicate loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires it.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Wait with a deadline; false when the deadline passed (the mutex is
  /// reacquired either way).
  bool WaitUntil(Mutex& mu,
                 std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace paleo

#endif  // PALEO_COMMON_MUTEX_H_
