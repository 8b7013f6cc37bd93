// Bounded admission queue of the discovery service.
//
// Admission control is the service's first line of defense: the queue
// holds sessions that were accepted but not yet started, and TryPush
// refuses — load-shedding, surfaced to clients as
// Status::ResourceExhausted — once `capacity` requests are waiting.
// Rejecting at the door keeps queue wait (and therefore deadline burn)
// bounded for the requests that are admitted, instead of letting an
// unbounded backlog time every later request out.

#ifndef PALEO_SERVICE_REQUEST_QUEUE_H_
#define PALEO_SERVICE_REQUEST_QUEUE_H_

#include <cstddef>
#include <deque>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace paleo {

class Session;

/// \brief Bounded MPMC FIFO of admitted-but-unstarted sessions.
/// All methods are thread-safe.
class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity);

  /// Enqueues the session; false when the queue is at capacity or
  /// closed (the caller sheds the request).
  bool TryPush(std::shared_ptr<Session> session);

  /// Oldest queued session, or nullptr when the queue is empty; never
  /// waits. The service pushes each session before it submits that
  /// session's one dispatch job, and each job pops once, so a
  /// dispatcher's Pop always finds a session, during teardown too.
  std::shared_ptr<Session> Pop();

  /// Refuses further pushes (one racing teardown is shed). Sessions
  /// already queued are still delivered, so the dispatcher assigns
  /// their terminal states.
  void Close();

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mutex_;
  std::deque<std::shared_ptr<Session>> sessions_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace paleo

#endif  // PALEO_SERVICE_REQUEST_QUEUE_H_
