// Concurrent discovery service: PALEO as a servable engine.
//
// One DiscoveryService serves a live table through a TableCatalog: the
// catalog owns the chain of immutable snapshots (each one a frozen
// table version plus the structures PALEO computes upfront — entity
// postings, statistics catalog, dimension indexes — and a ready
// engine), and every admission pins the snapshot current at Submit()
// time. A pinned session runs against exactly that version for its
// whole lifetime, byte-identical to a standalone run on a frozen
// copy, no matter how many ingest batches publish while it is queued
// or running. The service adds a work-stealing ThreadPool that runs
// both the admitted sessions and their intra-request parallel
// validation subtasks.
//
// Request lifecycle:
//   Submit() -> admission control: the bounded RequestQueue accepts
//     the session or sheds the request with Status::ResourceExhausted.
//     The per-request deadline is anchored HERE, so time spent queued
//     burns the same budget as time spent running; the catalog's
//     current snapshot is pinned HERE, so a session's view of the
//     table is fixed at admission.
//   dispatch -> a pool worker pops the oldest session; if its budget
//     is already exhausted (cancelled or expired while queued) the
//     session is finalized without running, otherwise the worker runs
//     Paleo::Run(RunRequest) once, governed by the session budget,
//     with the service's MetricsRegistry and (when requested) a trace
//     attached.
//   Wait/Poll/Cancel -> on the Session handle, from any thread.
//
// A run sees only its pinned in-memory snapshot, so it has three
// outcomes and no transient one: it completes, it fails on its input
// (the run's Status becomes the session's, with no second attempt), or
// it winds down on its budget. The deadline is the one bound on a run's
// length; a run that stalls past it expires at the next budget poll.
//
// Scheduling: session dispatch runs at pool priority 0, validation
// subtasks at priority 1, so admitted requests finish before new ones
// start and a session blocked on its own subtasks lends its thread to
// the pool (WaitHelping) — the scheduler cannot deadlock even with
// every worker occupied by sessions.

#ifndef PALEO_SERVICE_DISCOVERY_SERVICE_H_
#define PALEO_SERVICE_DISCOVERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/table_catalog.h"
#include "common/mutex.h"
#include "common/run_budget.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/topk_list.h"
#include "obs/metrics.h"
#include "paleo/options.h"
#include "paleo/paleo.h"
#include "service/request_queue.h"
#include "service/session.h"

namespace paleo {

/// \brief Serving-side knobs, distinct from the pipeline's
/// PaleoOptions.
struct DiscoveryServiceOptions {
  /// Worker threads; requests run concurrently up to this many.
  /// 0 = hardware concurrency.
  int num_workers = 0;
  /// Admitted-but-unstarted sessions the queue holds before Submit
  /// sheds with ResourceExhausted.
  size_t queue_capacity = 64;
  /// Deadline applied to requests whose options leave deadline_ms at
  /// 0; 0 = unlimited. Anchored at admission.
  int64_t default_deadline_ms = 0;
};

/// \brief Aggregate counters, read from the service's registry (the
/// paleo_service_* series); a consistent-enough snapshot for
/// monitoring (individual counters are exact, cross-counter skew is
/// possible mid-flight).
struct DiscoveryServiceStats {
  int64_t submitted = 0;  // admission attempts
  int64_t shed = 0;       // rejected at admission (queue full)
  int64_t done = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  /// Always 0: the service never re-runs a session (a failed run's
  /// Status ends it). Kept because the benchmark harness still reads
  /// it; goes when the benchmark drops its `service.retries` metric.
  int64_t retries = 0;
  int64_t Finished() const { return done + failed + cancelled + expired; }
};

/// \brief Multi-tenant front end over one live TableCatalog.
///
/// Thread-safe: Submit and the session handles may be used from any
/// number of client threads, concurrently with ingestion into the
/// catalog. Destruction cancels queued and running sessions, drains
/// the pool, and leaves every session in a terminal state (no Wait()
/// ever hangs across shutdown).
class DiscoveryService {
 public:
  /// Serves the catalog's snapshots; per-request pipeline defaults are
  /// the catalog's engine options. The catalog is shared (ingestion
  /// typically holds the other reference) and must stay alive for the
  /// service's lifetime — the shared_ptr here guarantees it.
  explicit DiscoveryService(std::shared_ptr<TableCatalog> catalog,
                            DiscoveryServiceOptions service_options = {});
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// The canonical admission path: a ServiceRequest job (input,
  /// optional per-request options, keep_candidates, collect_trace).
  /// Sheds with ResourceExhausted when the admission queue is full,
  /// Cancelled after shutdown began.
  StatusOr<std::shared_ptr<Session>> Submit(ServiceRequest request);

  /// Trips every live session's cancellation token (queued and
  /// running). Sessions still reach their terminal states through the
  /// normal dispatch path.
  void CancelAll();

  DiscoveryServiceStats stats() const;
  /// Sessions admitted and not yet started.
  size_t queue_depth() const { return queue_.size(); }
  int num_workers() const { return pool_.num_threads(); }
  /// The catalog this service serves (for schema access, the current
  /// snapshot, ingestion wiring).
  const TableCatalog& catalog() const { return *catalog_; }

  /// The service's metrics registry: service-level series
  /// (paleo_service_*) plus the pipeline/executor series every run
  /// reports into it. RenderText() gives the Prometheus-style dump the
  /// server CLI exports.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// Registry handles resolved once at construction.
  struct ServiceMetrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* done = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* expired = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* queue_wait_ms = nullptr;
    obs::Histogram* run_ms = nullptr;
  };

  void Dispatch();  // runs on a pool worker: pop + run one session
  void CountTerminal(SessionState state);
  ServiceMetrics BindServiceMetrics();
  /// Load-aware shed hint: observed mean run latency scaled by the
  /// backlog ahead of a would-be request, clamped to [1ms, 60s].
  int64_t RetryAfterHintMs() const;

  // The snapshot chain served; sessions pin versions out of it.
  const std::shared_ptr<TableCatalog> catalog_;
  const PaleoOptions paleo_options_;  // = catalog_->options()
  const DiscoveryServiceOptions service_options_;
  RequestQueue queue_;
  obs::MetricsRegistry metrics_;
  const ServiceMetrics service_metrics_;

  // atomic: next_id_ is a ticket counter; shutdown_ is the teardown
  // flag whose ordering comes from live_mutex_ (see ~DiscoveryService).
  std::atomic<uint64_t> next_id_{1};
  // Set (under live_mutex_, see ~DiscoveryService) once teardown began;
  // also read lock-free for the cheap early-out in Submit.
  std::atomic<bool> shutdown_{false};

  // Live sessions, for CancelAll; pruned on finish.
  Mutex live_mutex_;
  std::vector<std::weak_ptr<Session>> live_ GUARDED_BY(live_mutex_);

  // Last member: destroyed first, joining every dispatch and
  // validation task while the rest of the service is still alive.
  ThreadPool pool_;
};

}  // namespace paleo

#endif  // PALEO_SERVICE_DISCOVERY_SERVICE_H_
