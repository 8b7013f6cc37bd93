#include "common/thread_pool.h"

#include <algorithm>

#include "common/fault_points.h"

namespace paleo {

namespace {

// Identifies the pool worker running on this thread (nullptr outside
// any pool), so Submit from inside a task lands on the submitting
// worker's own deque.
thread_local ThreadPool* tl_pool = nullptr;
thread_local size_t tl_worker = 0;

}  // namespace

int ThreadPool::DefaultNumThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < n; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i]() { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(global_mutex_);
    stop_ = true;
  }
  wake_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Tasks submitted while the destructor was already joining (a
  // documented misuse, but futures must never break): run them inline.
  Task task;
  while (PopTask(&task)) task.run();
}

void ThreadPool::Push(Task task) {
  // Chaos hook: an armed delay here widens submit/teardown races; the
  // push itself cannot fail, so error actions only count as injected.
  (void)PALEO_FAULT_POINT("thread-pool.submit.push");
  if (tl_pool == this) {
    Worker& own = *workers_[tl_worker];
    {
      MutexLock lock(own.mutex);
      own.deque.push_back(std::move(task));
    }
    pending_.fetch_add(1, std::memory_order_release);
  } else {
    MutexLock lock(global_mutex_);
    // Insert before the first queued task of lower priority, so equal
    // priorities keep submission order.
    auto pos = std::find_if(global_.begin(), global_.end(),
                            [&](const Task& queued) {
                              return queued.priority < task.priority;
                            });
    global_.insert(pos, std::move(task));
    pending_.fetch_add(1, std::memory_order_release);
  }
  // Notify under the mutex so a worker between its predicate check and
  // its sleep cannot miss the wakeup.
  {
    MutexLock lock(global_mutex_);
  }
  wake_.NotifyOne();
}

bool ThreadPool::PopTask(Task* out) {
  // Own deque first (LIFO), when called from a worker of this pool.
  if (tl_pool == this) {
    Worker& own = *workers_[tl_worker];
    MutexLock lock(own.mutex);
    if (!own.deque.empty()) {
      *out = std::move(own.deque.back());
      own.deque.pop_back();
      // relaxed: decrement under the owning queue's mutex; the count is
      // a wakeup hint only (see pending_ in the header).
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Global queue next: highest priority, FIFO within a priority.
  {
    MutexLock lock(global_mutex_);
    if (!global_.empty()) {
      *out = std::move(global_.front());
      global_.pop_front();
      // relaxed: decrement under the owning queue's mutex; the count is
      // a wakeup hint only (see pending_ in the header).
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal sweep: oldest task (FIFO) from any other worker.
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (tl_pool == this && i == tl_worker) continue;
    Worker& victim = *workers_[i];
    MutexLock lock(victim.mutex);
    if (!victim.deque.empty()) {
      *out = std::move(victim.deque.front());
      victim.deque.pop_front();
      // relaxed: decrement under the owning queue's mutex; the count is
      // a wakeup hint only (see pending_ in the header).
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool ThreadPool::RunPendingTask() {
  Task task;
  if (!PopTask(&task)) return false;
  task.run();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  tl_pool = this;
  tl_worker = index;
  for (;;) {
    Task task;
    if (PopTask(&task)) {
      task.run();
      continue;
    }
    MutexLock lock(global_mutex_);
    while (!stop_ && pending_.load(std::memory_order_acquire) <= 0) {
      // Chaos hook: skip one wait, re-checking the predicate exactly
      // as a spurious hardware wakeup would force us to.
      if (PALEO_FAULT_POINT("thread-pool.worker.wait").spurious_wakeup()) {
        continue;
      }
      wake_.Wait(global_mutex_);
    }
    if (stop_ && pending_.load(std::memory_order_acquire) <= 0) break;
  }
  tl_pool = nullptr;
}

size_t ThreadPool::QueueDepth() const {
  // relaxed: monitoring sample; momentarily stale depth is fine.
  int64_t n = pending_.load(std::memory_order_relaxed);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

}  // namespace paleo
