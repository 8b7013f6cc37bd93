#include "service/request_queue.h"

#include <utility>

#include "common/fault_points.h"

namespace paleo {

RequestQueue::RequestQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool RequestQueue::TryPush(std::shared_ptr<Session> session) {
  // Chaos hook: an injected error behaves exactly like a full queue —
  // the caller sheds the request through its normal path.
  if (PALEO_FAULT_POINT("request-queue.push").error()) return false;
  MutexLock lock(mutex_);
  if (closed_ || sessions_.size() >= capacity_) return false;
  sessions_.push_back(std::move(session));
  return true;
}

std::shared_ptr<Session> RequestQueue::Pop() {
  MutexLock lock(mutex_);
  if (sessions_.empty()) return nullptr;
  std::shared_ptr<Session> session = std::move(sessions_.front());
  sessions_.pop_front();
  return session;
}

void RequestQueue::Close() {
  MutexLock lock(mutex_);
  closed_ = true;
}

size_t RequestQueue::size() const {
  MutexLock lock(mutex_);
  return sessions_.size();
}

}  // namespace paleo
