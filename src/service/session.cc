#include "service/session.h"

#include "common/fault_points.h"

namespace paleo {

const char* SessionStateToString(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kFailed:
      return "failed";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kExpired:
      return "expired";
  }
  return "unknown";
}

bool IsTerminal(SessionState state) {
  return state == SessionState::kDone || state == SessionState::kFailed ||
         state == SessionState::kCancelled ||
         state == SessionState::kExpired;
}

Session::Session(Id id, ServiceRequest request, PaleoOptions options,
                 std::shared_ptr<const TableSnapshot> snapshot)
    : id_(id),
      request_(std::move(request)),
      options_(std::move(options)),
      snapshot_(std::move(snapshot)) {
  budget_.set_cancellation_token(&cancel_);
  if (request_.collect_trace) {
    // The object is not shared yet; the lock only satisfies the
    // thread-safety analysis (guarded members are written here).
    MutexLock lock(mutex_);
    trace_ = std::make_shared<obs::Trace>();
    session_span_ = trace_->StartSpan("session");
    trace_->AddAttr(session_span_, "id", static_cast<int64_t>(id_));
    trace_->AddAttr(session_span_, "snapshot_version",
                    static_cast<int64_t>(snapshot_->version()));
    queued_span_ = trace_->StartSpan("queued", session_span_);
  }
}

SessionState Session::Poll() const {
  MutexLock lock(mutex_);
  return state_;
}

SessionState Session::Wait() const {
  MutexLock lock(mutex_);
  while (!IsTerminal(state_)) {
    // Chaos hook: injected spurious wakeup — re-check the predicate.
    if (PALEO_FAULT_POINT("session.wait").spurious_wakeup()) continue;
    terminal_.Wait(mutex_);
  }
  return state_;
}

SessionState Session::WaitFor(std::chrono::milliseconds timeout) const {
  const Clock::time_point deadline = Clock::now() + timeout;
  MutexLock lock(mutex_);
  while (!IsTerminal(state_)) {
    if (!terminal_.WaitUntil(mutex_, deadline)) break;
  }
  return state_;
}

const ReverseEngineerReport* Session::report() const {
  MutexLock lock(mutex_);
  if (!result_.has_value() || !result_->ok()) return nullptr;
  return &result_->value();
}

Status Session::status() const {
  MutexLock lock(mutex_);
  if (!result_.has_value()) return Status::OK();
  return result_->status();
}

std::shared_ptr<const obs::Trace> Session::trace() const {
  MutexLock lock(mutex_);
  // Before the terminal state the dispatching worker may still be
  // appending spans; handing the tree out then would let the caller
  // read the arena mid-write (Trace is not thread-safe by design).
  if (!IsTerminal(state_)) return nullptr;
  return trace_;
}

double Session::queue_wait_ms() const {
  MutexLock lock(mutex_);
  return queue_wait_ms_;
}

double Session::run_ms() const {
  MutexLock lock(mutex_);
  return run_ms_;
}

void Session::MarkRunning() {
  MutexLock lock(mutex_);
  state_ = SessionState::kRunning;
  started_at_ = Clock::now();
  queue_wait_ms_ =
      std::chrono::duration<double, std::milli>(started_at_ - admitted_at_)
          .count();
  if (trace_ != nullptr) trace_->EndSpan(queued_span_);
}

void Session::FinishLocked(SessionState state,
                           StatusOr<ReverseEngineerReport> result) {
  state_ = state;
  result_.emplace(std::move(result));
  if (started_at_ != Clock::time_point{}) {
    run_ms_ =
        std::chrono::duration<double, std::milli>(Clock::now() - started_at_)
            .count();
  }
  if (trace_ != nullptr) {
    // A session finalized while still queued never ended its queued
    // span; EndSpan's first-end-wins makes this a no-op otherwise.
    trace_->EndSpan(queued_span_);
    if (result_->ok() && result_->value().trace != nullptr) {
      trace_->Adopt(*result_->value().trace, session_span_);
    }
    trace_->AddAttr(session_span_, "state", SessionStateToString(state));
    trace_->EndSpan(session_span_);
  }
}

SessionState Session::TerminalStateFor(
    const StatusOr<ReverseEngineerReport>& result) {
  if (!result.ok()) return SessionState::kFailed;
  switch (result->termination) {
    case TerminationReason::kCancelled:
      return SessionState::kCancelled;
    case TerminationReason::kDeadline:
      return SessionState::kExpired;
    default:
      // kCompleted and kExecutionBudget both delivered a usable
      // report; the termination reason inside it tells them apart.
      return SessionState::kDone;
  }
}

SessionState Session::TerminalStateForUnrun(TerminationReason reason) {
  return reason == TerminationReason::kDeadline ? SessionState::kExpired
                                                : SessionState::kCancelled;
}

void Session::Finish(StatusOr<ReverseEngineerReport> result) {
  {
    MutexLock lock(mutex_);
    FinishLocked(TerminalStateFor(result), std::move(result));
  }
  terminal_.NotifyAll();
}

void Session::FinishWithoutRunning(TerminationReason reason) {
  {
    MutexLock lock(mutex_);
    ReverseEngineerReport report;
    report.termination = reason;
    FinishLocked(TerminalStateForUnrun(reason), std::move(report));
  }
  terminal_.NotifyAll();
}

}  // namespace paleo
