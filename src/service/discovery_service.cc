#include "service/discovery_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/fault_points.h"
#include "common/random.h"

namespace paleo {

bool IsRetryableTransient(const Status& status) {
  // Transient resource conditions only: an I/O hiccup or a momentary
  // resource shortage can be outlived by a later attempt. kCancelled
  // and kDeadlineExceeded are budget wind-downs (retrying would fight
  // the client), and everything else is a deterministic hard error.
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kResourceExhausted;
}

DiscoveryService::DiscoveryService(std::shared_ptr<TableCatalog> catalog,
                                   DiscoveryServiceOptions service_options)
    : catalog_(std::move(catalog)),
      paleo_options_(catalog_->options()),
      service_options_(service_options),
      queue_(service_options.queue_capacity),
      service_metrics_(BindServiceMetrics()),
      pool_(service_options.num_workers > 0
                ? service_options.num_workers
                : ThreadPool::DefaultNumThreads()) {
  // Fault injections anywhere in the process are mirrored into this
  // service's registry while it is alive (detached in the destructor).
  FaultPoints::AttachMetric(service_metrics_.faults_injected);
  if (service_options_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this]() { WatchdogLoop(); });
  }
}

DiscoveryService::ServiceMetrics DiscoveryService::BindServiceMetrics() {
  ServiceMetrics m;
  m.submitted = metrics_.FindOrCreateCounter(
      "paleo_service_submitted_total", "Admission attempts.");
  m.shed = metrics_.FindOrCreateCounter(
      "paleo_service_shed_total",
      "Requests rejected at admission (queue full).");
  m.done = metrics_.FindOrCreateCounter(
      "paleo_service_sessions_total", "Terminal sessions, by state.",
      "state=\"done\"");
  m.failed = metrics_.FindOrCreateCounter(
      "paleo_service_sessions_total", "Terminal sessions, by state.",
      "state=\"failed\"");
  m.cancelled = metrics_.FindOrCreateCounter(
      "paleo_service_sessions_total", "Terminal sessions, by state.",
      "state=\"cancelled\"");
  m.expired = metrics_.FindOrCreateCounter(
      "paleo_service_sessions_total", "Terminal sessions, by state.",
      "state=\"expired\"");
  m.queue_depth = metrics_.FindOrCreateGauge(
      "paleo_service_queue_depth",
      "Sessions admitted and not yet started.");
  m.queue_wait_ms = metrics_.FindOrCreateHistogram(
      "paleo_service_queue_wait_ms",
      "Milliseconds between admission and dispatch.");
  m.run_ms = metrics_.FindOrCreateHistogram(
      "paleo_service_run_ms",
      "Milliseconds a dispatched session spent running.");
  m.retries = metrics_.FindOrCreateCounter(
      "paleo_retries_total",
      "Run attempts re-dispatched after a retryable transient failure.");
  m.watchdog_kicks = metrics_.FindOrCreateCounter(
      "paleo_watchdog_kicks_total",
      "Wedged sessions cancelled by the stall watchdog.");
  m.faults_injected = metrics_.FindOrCreateCounter(
      "paleo_faults_injected_total",
      "Faults fired by armed fault points (tests/chaos only; 0 in "
      "production).");
  return m;
}

DiscoveryService::~DiscoveryService() {
  // Stop mirroring fault injections into a registry that is about to
  // die, and retire the watchdog before sessions start tearing down.
  FaultPoints::DetachMetric(service_metrics_.faults_injected);
  if (watchdog_.joinable()) {
    {
      MutexLock lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.NotifyAll();
    watchdog_.join();
  }
  // The shutdown flag is published under live_mutex_ so that it orders
  // against Submit's insertion into live_: a submitter that wins the
  // race into live_ is cancelled by CancelAll below, and one that
  // loses observes the flag and cancels its own session — either way
  // no session admitted concurrently with teardown escapes
  // cancellation (the documented destruction contract).
  {
    MutexLock lock(live_mutex_);
    // relaxed: live_mutex_ provides the ordering the admission race
    // needs (see the contract above); the flag itself is advisory for
    // the lock-free early-out in Submit.
    shutdown_.store(true, std::memory_order_relaxed);
  }
  // Trip every live session so queued ones finalize without running
  // and mid-flight ones wind down at their next budget poll; then let
  // the pool (destroyed first, as the last member) drain the dispatch
  // jobs that assign the terminal states.
  CancelAll();
  queue_.Close();
}

StatusOr<std::shared_ptr<Session>> DiscoveryService::Submit(
    ServiceRequest request) {
  obs::Inc(service_metrics_.submitted);
  // relaxed: the shutdown_ early-out is advisory — the authoritative
  // re-check happens under live_mutex_ after admission, below.
  if (shutdown_.load(std::memory_order_relaxed)) {
    return Status::Cancelled("discovery service is shutting down");
  }
  // Chaos hook: an injected error here models admission-side failures
  // (queue allocation, bookkeeping I/O) before a session exists.
  FaultResult fault = PALEO_FAULT_POINT("service.submit.enqueue");
  if (fault.error()) return fault.status;
  PaleoOptions effective_options =
      request.options.has_value() ? *std::move(request.options)
                                  : paleo_options_;
  request.options.reset();
  // The deadline moves out of the pipeline options and into the
  // session budget, anchored at admission: a request that waits in the
  // queue burns its own deadline, not the worker's time.
  int64_t deadline_ms = effective_options.deadline_ms > 0
                            ? effective_options.deadline_ms
                            : service_options_.default_deadline_ms;
  effective_options.deadline_ms = 0;
  // Pin the catalog's current snapshot for this session's lifetime:
  // its run sees exactly this table version, however many ingest
  // batches publish in the meantime.
  auto session =
      // relaxed: id ticket — concurrent submits need distinct ids only.
      std::make_shared<Session>(next_id_.fetch_add(1, std::memory_order_relaxed),
                                std::move(request),
                                std::move(effective_options),
                                catalog_->Current());
  if (deadline_ms > 0) {
    session->mutable_budget()->SetDeadlineAfterMillis(deadline_ms);
  }
  if (!queue_.TryPush(session)) {
    obs::Inc(service_metrics_.shed);
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(queue_.capacity()) +
        " requests pending); retry-after-ms=" +
        std::to_string(RetryAfterHintMs()));
  }
  obs::Add(service_metrics_.queue_depth, 1);
  {
    MutexLock lock(live_mutex_);
    live_.push_back(session);
    // relaxed: live_mutex_ (held here and in ~DiscoveryService) orders
    // this load against the teardown store; see the destructor.
    if (shutdown_.load(std::memory_order_relaxed)) {
      // Teardown already swept live_ (or is about to close the queue):
      // this session would otherwise be dispatched un-cancelled while
      // the service is being destroyed. See ~DiscoveryService.
      session->Cancel();
    }
  }
  // One dispatch job per admitted session, FIFO at priority 0 (below
  // validation subtasks, so running requests finish first).
  pool_.Submit([this]() { Dispatch(); }, /*priority=*/0);
  return session;
}

void DiscoveryService::Dispatch() {
  std::shared_ptr<Session> session = queue_.Pop();
  if (session == nullptr) return;
  obs::Add(service_metrics_.queue_depth, -1);

  // The counter for the session's terminal state is published BEFORE
  // Finish* makes that state visible: a client returning from Wait()
  // must always find itself already counted in stats().
  TerminationReason pre_check = session->budget().Check(0);
  if (pre_check != TerminationReason::kCompleted) {
    // Cancelled or expired while still queued: terminal without a run.
    CountTerminal(Session::TerminalStateForUnrun(pre_check));
    session->FinishWithoutRunning(pre_check);
  } else {
    session->MarkRunning();
    obs::Observe(service_metrics_.queue_wait_ms, session->queue_wait_ms());
    RunRequest run_request;
    run_request.input = &session->input();
    run_request.keep_candidates = session->keep_candidates();
    run_request.budget = &session->budget();
    run_request.pool = &pool_;
    run_request.options_override = &session->options();
    run_request.metrics = &metrics_;
    run_request.collect_trace = session->collect_trace();
    const auto run_started = std::chrono::steady_clock::now();
    auto attempt_run = [&]() -> StatusOr<ReverseEngineerReport> {
      // Chaos hook: an injected error here models a run attempt lost
      // to infrastructure (not pipeline logic) and exercises the retry
      // path below; injected delays wedge the worker for the watchdog.
      FaultResult fault = PALEO_FAULT_POINT("service.dispatch.run");
      if (fault.error()) return fault.status;
      return session->snapshot().engine().Run(run_request);
    };
    auto result = attempt_run();
    if (!result.ok() && IsRetryableTransient(result.status()) &&
        service_options_.max_retries > 0) {
      // Bounded exponential backoff with seeded jitter. The budget is
      // re-checked before every attempt so cancellation and deadlines
      // always beat another retry; jitter is forked per session id to
      // keep replays deterministic while decorrelating workers.
      Rng jitter_rng(service_options_.seed ^
                     (static_cast<uint64_t>(session->id()) *
                      0x9E3779B97F4A7C15ULL));
      int attempt = 0;
      while (!result.ok() && IsRetryableTransient(result.status()) &&
             attempt < service_options_.max_retries &&
             session->budget().Check(0) == TerminationReason::kCompleted) {
        ++attempt;
        obs::Inc(service_metrics_.retries);
        int64_t base = std::max<int64_t>(service_options_.retry_backoff_ms, 1);
        for (int doubling = 1;
             doubling < attempt &&
             base < service_options_.retry_backoff_max_ms;
             ++doubling) {
          base *= 2;
        }
        base = std::min(base,
                        std::max<int64_t>(service_options_.retry_backoff_max_ms,
                                          1));
        const int64_t sleep_ms =
            base / 2 + jitter_rng.UniformInt(0, base - base / 2);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        result = attempt_run();
      }
    }
    // Like CountTerminal, the latency sample is published before
    // Finish makes the terminal state visible (a client returning
    // from Wait() always finds it recorded), so it is measured here
    // rather than read back from the session.
    obs::Observe(service_metrics_.run_ms,
                 std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - run_started)
                     .count());
    CountTerminal(Session::TerminalStateFor(result));
    session->Finish(std::move(result));
  }

  // Drop this session (and any other already-collected ones) from the
  // live list; CancelAll only needs sessions that can still change.
  MutexLock lock(live_mutex_);
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [&](const std::weak_ptr<Session>& weak) {
                               auto locked = weak.lock();
                               return locked == nullptr ||
                                      locked == session;
                             }),
              live_.end());
}

void DiscoveryService::CountTerminal(SessionState state) {
  switch (state) {
    case SessionState::kDone:
      obs::Inc(service_metrics_.done);
      break;
    case SessionState::kFailed:
      obs::Inc(service_metrics_.failed);
      break;
    case SessionState::kCancelled:
      obs::Inc(service_metrics_.cancelled);
      break;
    case SessionState::kExpired:
      obs::Inc(service_metrics_.expired);
      break;
    default:
      break;  // unreachable: callers pass terminal states only
  }
}

void DiscoveryService::WatchdogLoop() {
  const auto poll = std::chrono::milliseconds(
      std::max<int64_t>(service_options_.watchdog_poll_ms, 1));
  while (true) {
    {
      MutexLock lock(watchdog_mutex_);
      if (watchdog_stop_) return;
      watchdog_cv_.WaitUntil(watchdog_mutex_,
                             std::chrono::steady_clock::now() + poll);
      if (watchdog_stop_) return;
    }
    // Snapshot under the lock, kick outside it: Cancel() is cheap but
    // there is no reason to hold live_mutex_ across session calls.
    std::vector<std::shared_ptr<Session>> running;
    {
      MutexLock lock(live_mutex_);
      running.reserve(live_.size());
      for (const std::weak_ptr<Session>& weak : live_) {
        if (auto session = weak.lock()) running.push_back(std::move(session));
      }
    }
    for (const std::shared_ptr<Session>& session : running) {
      // Already winding down (cancelled or expired): the dispatch path
      // owns its terminal state; kicking again would double-count.
      if (session->budget().Check(0) != TerminationReason::kCompleted) {
        continue;
      }
      if (session->RunningForMillis() >
          static_cast<double>(service_options_.watchdog_stall_ms)) {
        session->Cancel();
        obs::Inc(service_metrics_.watchdog_kicks);
      }
    }
  }
}

int64_t DiscoveryService::RetryAfterHintMs() const {
  // Mean observed run latency (a prior of 25ms before any sample)
  // times the backlog a newly admitted request would sit behind,
  // spread over the workers draining it.
  double avg_run_ms = 25.0;
  if (service_metrics_.run_ms != nullptr &&
      service_metrics_.run_ms->count() > 0) {
    avg_run_ms = service_metrics_.run_ms->sum_ms() /
                 static_cast<double>(service_metrics_.run_ms->count());
  }
  const double backlog = static_cast<double>(queue_.size()) + 1.0;
  const double workers =
      static_cast<double>(std::max(pool_.num_threads(), 1));
  const double hint = avg_run_ms * backlog / workers;
  return std::clamp(static_cast<int64_t>(hint), int64_t{1}, int64_t{60000});
}

void DiscoveryService::CancelAll() {
  MutexLock lock(live_mutex_);
  for (const std::weak_ptr<Session>& weak : live_) {
    if (auto session = weak.lock()) session->Cancel();
  }
}

DiscoveryServiceStats DiscoveryService::stats() const {
  const ServiceMetrics& m = service_metrics_;
  DiscoveryServiceStats s;
  s.submitted = m.submitted->value();
  s.shed = m.shed->value();
  s.done = m.done->value();
  s.failed = m.failed->value();
  s.cancelled = m.cancelled->value();
  s.expired = m.expired->value();
  s.retries = m.retries->value();
  s.watchdog_kicks = m.watchdog_kicks->value();
  return s;
}

}  // namespace paleo
