// Work-stealing thread pool: the execution substrate of the serving
// layer (src/service/) and of intra-request parallel validation.
//
// Design:
//  * N worker threads. Tasks submitted from outside the pool enter a
//    global queue ordered by priority, FIFO within a priority;
//    tasks submitted from a worker thread are pushed onto that worker's
//    own deque (LIFO for the owner — better locality for fork-join
//    subtasks) and may be stolen FIFO by idle workers, the classic
//    Blumofe/Leiserson discipline.
//  * Submit() returns a std::future for the callable's result, so
//    callers compose with the standard library.
//  * Cooperative cancellation reuses the pipeline's CancellationToken:
//    a task submitted with a token is *skipped* if the token is already
//    tripped when a worker picks it up — the callable is not invoked
//    and the future is fulfilled with a value-initialized result (the
//    callable's result type must then be void or default-
//    constructible). A task that already started is never interrupted;
//    it observes the token itself, like every governed pipeline stage.
//  * WaitHelping() blocks on a future while executing queued tasks on
//    the calling thread, so a task may fan out subtasks into the same
//    pool and join them without risking scheduler deadlock (the waiter
//    donates itself as a worker).
//
// The pool never throws across Submit boundaries; callables that return
// Status/StatusOr carry their errors in the future's value, matching
// the library-wide error model.

#ifndef PALEO_COMMON_THREAD_POOL_H_
#define PALEO_COMMON_THREAD_POOL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/run_budget.h"
#include "common/thread_annotations.h"

namespace paleo {

/// \brief Fixed-size work-stealing thread pool.
///
/// Thread-safe: Submit / RunPendingTask / WaitHelping may be called
/// from any thread, including pool workers. Destruction drains every
/// queued task (futures are never broken); trip the tasks' cancellation
/// tokens first for a fast shutdown.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// permits 0 for "unknown").
  static int DefaultNumThreads();

  /// Schedules `fn` and returns a future for its result.
  ///
  /// `priority`: higher-priority tasks leave the global queue first;
  /// equal priorities run in submission order. Locally queued subtasks
  /// (submitted from a worker) ignore priority — they run LIFO on the
  /// owner and are stolen FIFO.
  ///
  /// `cancel` (optional, not owned, must outlive the task): if tripped
  /// before the task starts, the callable is skipped and the future is
  /// fulfilled with a value-initialized result.
  template <typename Fn,
            typename R = std::invoke_result_t<std::decay_t<Fn>>>
  std::future<R> Submit(Fn&& fn, int priority = 0,
                        const CancellationToken* cancel = nullptr) {
    static_assert(std::is_void_v<R> || std::is_default_constructible_v<R>,
                  "skippable tasks need a default-constructible result");
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<Fn>(fn), cancel]() mutable -> R {
          if (cancel != nullptr && cancel->cancelled()) {
            if constexpr (std::is_void_v<R>) {
              return;
            } else {
              return R{};
            }
          }
          return f();
        });
    std::future<R> future = task->get_future();
    Push(Task{[task]() { (*task)(); }, priority});
    return future;
  }

  /// Runs one queued task on the calling thread, if any is available
  /// (own deque first for workers, then the global queue, then a steal
  /// sweep). Returns false when nothing was runnable.
  bool RunPendingTask();

  /// Blocks until `future` is ready, running queued tasks meanwhile.
  /// Safe to call from worker threads (this is what makes nested
  /// fork-join on a single pool deadlock-free).
  template <typename T>
  void WaitHelping(const std::future<T>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
      if (!RunPendingTask()) {
        // Nothing runnable anywhere: the future's producer is mid-task
        // on another thread. Back off briefly instead of spinning hot.
        if (future.wait_for(200us) == std::future_status::ready) return;
      }
    }
  }

  /// Tasks currently queued (global + all local deques); approximate,
  /// for introspection and tests.
  size_t QueueDepth() const;

 private:
  struct Task {
    std::function<void()> run;
    int priority = 0;
  };

  struct Worker {
    mutable Mutex mutex;
    // Owner pops back (LIFO), thieves pop front (FIFO).
    std::deque<Task> deque GUARDED_BY(mutex);
    std::thread thread;
  };

  void Push(Task task);
  void WorkerLoop(size_t index);
  /// Pops per the calling context's discipline; false when empty.
  bool PopTask(Task* out);

  std::vector<std::unique_ptr<Worker>> workers_;
  mutable Mutex global_mutex_;
  // Global injection queue, kept sorted by priority (desc), FIFO within
  // a priority.
  // A flat deque beats std::priority_queue here: submission order is
  // the common case (single priority), making pushes O(1) amortized.
  std::deque<Task> global_ GUARDED_BY(global_mutex_);
  CondVar wake_;
  // Total tasks queued anywhere; lets sleeping workers avoid a full
  // steal sweep on every wakeup. Atomic, not guarded: read in wait
  // predicates without the deque mutexes held. atomic: Push publishes
  // with release, the wait predicate loads acquire; pop-side
  // decrements are relaxed under the queue mutex.
  std::atomic<int64_t> pending_{0};
  bool stop_ GUARDED_BY(global_mutex_) = false;
};

}  // namespace paleo

#endif  // PALEO_COMMON_THREAD_POOL_H_
