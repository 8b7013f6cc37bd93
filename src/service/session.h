// One reverse-engineering request's lifecycle inside the discovery
// service.
//
// State machine (single writer: the dispatching worker; Cancel() from
// any thread only trips the cooperative token):
//
//   kQueued --> kRunning --> { kDone | kFailed | kCancelled | kExpired }
//       \------------------> { kCancelled | kExpired }   (never started)
//
// Exactly one terminal state is ever assigned; Wait() blocks until it
// is. Terminal states mirror how the run ended: kDone for a report
// that ran to completion or hit the execution budget (both carry
// results), kExpired when the deadline passed (queued too long or
// mid-run), kCancelled when the client's Cancel() won the race, and
// kFailed when the run returned an error Status. A session runs at
// most once: its run sees only the snapshot pinned at admission, so a
// failure is deterministic and is never retried, and the deadline is
// the one bound on how long it runs. kExpired/kCancelled sessions
// still expose whatever degraded report the governed pipeline
// produced.

#ifndef PALEO_SERVICE_SESSION_H_
#define PALEO_SERVICE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "catalog/table_catalog.h"
#include "common/mutex.h"
#include "common/run_budget.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "engine/topk_list.h"
#include "obs/trace.h"
#include "paleo/options.h"
#include "paleo/paleo.h"

namespace paleo {

/// \brief One discovery-service job: the service-layer mirror of
/// RunRequest. Owns its input (the session outlives the submitting
/// call); everything else is optional.
struct ServiceRequest {
  /// The top-k list to reverse engineer. Required.
  TopKList input;
  /// Per-request pipeline options (deadline_ms, num_threads, match
  /// mode, ... — the indexes stay the service's). Unset = the
  /// service's defaults.
  std::optional<PaleoOptions> options = std::nullopt;
  /// Retain the scored candidate list in the session's report.
  bool keep_candidates = false;
  /// Build a span tree for this request: a "session" root with a
  /// "queued" child covering admission->dispatch, with the pipeline's
  /// "run" tree grafted under it. Available via Session::trace() once
  /// the session is terminal.
  bool collect_trace = false;
};

/// \brief Where a session is in its lifecycle.
enum class SessionState : int {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       // terminal: report available
  kFailed = 3,     // terminal: hard error, status available
  kCancelled = 4,  // terminal: client cancelled
  kExpired = 5,    // terminal: deadline passed
};

/// "queued", "running", "done", "failed", "cancelled", or "expired".
const char* SessionStateToString(SessionState state);

bool IsTerminal(SessionState state);

/// \brief One submitted request: input, effective options, budget,
/// synchronized outcome. Thread-safe throughout; created and finished
/// by the DiscoveryService, observed (Wait/Poll/Cancel) by any thread.
class Session {
 public:
  using Id = uint64_t;

  /// `options` are the request's effective pipeline options (the
  /// service already merged per-request overrides and moved the
  /// deadline into the budget, anchored at admission so queue wait
  /// counts against it). The remaining per-request flags travel in
  /// `request`. `snapshot` is the catalog snapshot pinned at admission
  /// — the frozen table version this session runs against, held alive
  /// for the session's whole lifetime no matter how far ingestion
  /// advances the catalog.
  Session(Id id, ServiceRequest request, PaleoOptions options,
          std::shared_ptr<const TableSnapshot> snapshot);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Id id() const { return id_; }
  const TopKList& input() const { return request_.input; }
  const PaleoOptions& options() const { return options_; }
  bool keep_candidates() const { return request_.keep_candidates; }
  bool collect_trace() const { return request_.collect_trace; }
  /// The request budget the pipeline is governed by (deadline anchored
  /// at admission + this session's cancellation token).
  const RunBudget& budget() const { return budget_; }

  /// The snapshot pinned at admission. The run executes against this
  /// frozen version (snapshot isolation: results are byte-identical to
  /// a standalone run on it, regardless of concurrent ingestion).
  const TableSnapshot& snapshot() const { return *snapshot_; }
  /// Version of the pinned snapshot (see TableSnapshot::version).
  uint64_t snapshot_version() const { return snapshot_->version(); }

  /// Current state, non-blocking.
  SessionState Poll() const;

  /// Blocks until the session reaches a terminal state; returns it.
  SessionState Wait() const;

  /// Wait with a timeout; returns the state at expiry (possibly still
  /// non-terminal). Mostly for tests and impatient clients.
  SessionState WaitFor(std::chrono::milliseconds timeout) const;

  /// Trips the cooperative cancellation token. The run (queued or
  /// mid-flight) winds down at its next budget poll and the dispatcher
  /// assigns the terminal state; Cancel itself never blocks and is
  /// idempotent.
  void Cancel() { cancel_.Cancel(); }

  /// The report, when a terminal state carries one (kDone always;
  /// kCancelled/kExpired when the run got far enough to wind down
  /// gracefully). nullptr otherwise.
  const ReverseEngineerReport* report() const;

  /// OK unless the session failed (kFailed: the pipeline's error).
  Status status() const;

  /// The request's span tree: a "session" root whose "queued" child
  /// covers admission->dispatch and whose grafted "run" subtree is the
  /// pipeline's trace. Null unless the request asked for collect_trace,
  /// and null until the session is terminal — the dispatching worker is
  /// still writing spans before that, so the live tree is never handed
  /// out (callers Wait(), then read).
  std::shared_ptr<const obs::Trace> trace() const;

  /// Milliseconds spent queued before dispatch, and running. 0 until
  /// the respective phase completes.
  double queue_wait_ms() const;
  double run_ms() const;

  // ---- Service-internal transitions (single writer) ----

  /// The terminal state Finish() / FinishWithoutRunning() will assign
  /// for this outcome. Exposed so the service can publish its
  /// aggregate counters *before* the state becomes visible (a client
  /// returning from Wait() then always sees itself counted).
  static SessionState TerminalStateFor(
      const StatusOr<ReverseEngineerReport>& result);
  static SessionState TerminalStateForUnrun(TerminationReason reason);

  /// kQueued -> kRunning, stamping the queue-wait clock.
  void MarkRunning();
  /// Assigns the terminal state implied by `result` (see file
  /// comment) and wakes every waiter.
  void Finish(StatusOr<ReverseEngineerReport> result);
  /// Terminal state for a session that never ran (cancelled or expired
  /// while queued): synthesizes an empty degraded report.
  void FinishWithoutRunning(TerminationReason reason);

  /// The token the budget polls; the service wires it into the
  /// per-request RunBudget.
  CancellationToken* cancellation_token() { return &cancel_; }
  RunBudget* mutable_budget() { return &budget_; }

 private:
  using Clock = std::chrono::steady_clock;

  void FinishLocked(SessionState state,
                    StatusOr<ReverseEngineerReport> result)
      REQUIRES(mutex_);

  const Id id_;
  const ServiceRequest request_;
  const PaleoOptions options_;
  // The pin: keeps the admitted-against snapshot (and its engine)
  // alive until the session is destroyed.
  const std::shared_ptr<const TableSnapshot> snapshot_;
  CancellationToken cancel_;
  RunBudget budget_;

  mutable Mutex mutex_;
  mutable CondVar terminal_;
  SessionState state_ GUARDED_BY(mutex_) = SessionState::kQueued;
  std::optional<StatusOr<ReverseEngineerReport>> result_
      GUARDED_BY(mutex_);

  // Session-level span tree (collect_trace only). Written by the
  // submitting thread (construction) and the dispatching worker
  // (MarkRunning/Finish*, under mutex_); the queue handoff orders the
  // two, and trace() withholds the pointer until the session is
  // terminal, so the non-thread-safe Trace is never read mid-write.
  std::shared_ptr<obs::Trace> trace_ GUARDED_BY(mutex_);
  obs::Trace::SpanId session_span_ GUARDED_BY(mutex_) =
      obs::Trace::kNoSpan;
  obs::Trace::SpanId queued_span_ GUARDED_BY(mutex_) = obs::Trace::kNoSpan;

  const Clock::time_point admitted_at_ = Clock::now();
  Clock::time_point started_at_ GUARDED_BY(mutex_){};
  double queue_wait_ms_ GUARDED_BY(mutex_) = 0.0;
  double run_ms_ GUARDED_BY(mutex_) = 0.0;
};

}  // namespace paleo

#endif  // PALEO_SERVICE_SESSION_H_
