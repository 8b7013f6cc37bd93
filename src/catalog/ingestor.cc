#include "catalog/ingestor.h"

#include <utility>

namespace paleo {

Ingestor::Ingestor(TableCatalog* catalog, IngestorOptions options)
    : catalog_(catalog), options_(options) {}

// relaxed: every counter below is an independent event tally; readers
// (stats()) take a point-in-time sample and tolerate torn cross-counter
// snapshots — nothing orders other memory through them.
Status Ingestor::Append(std::span<const std::vector<Value>> rows) {
  std::shared_ptr<obs::Trace> trace;
  if (options_.collect_trace) trace = std::make_shared<obs::Trace>();
  TableCatalog::IngestOutcome outcome;
  Status status = catalog_->Ingest(rows, trace.get(), &outcome);
  if (!status.ok()) {
    failed_batches_.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(outcome.rows, std::memory_order_relaxed);
  full_rebuilds_.fetch_add(static_cast<uint64_t>(outcome.full_rebuilds),
                           std::memory_order_relaxed);
  if (trace != nullptr) {
    MutexLock lock(trace_mutex_);
    last_trace_ = std::move(trace);
  }
  return Status::OK();
}

Ingestor::Stats Ingestor::stats() const {
  // relaxed: point-in-time sample of independent tallies (see Append).
  Stats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rows = rows_.load(std::memory_order_relaxed);
  s.full_rebuilds = full_rebuilds_.load(std::memory_order_relaxed);
  s.failed_batches = failed_batches_.load(std::memory_order_relaxed);
  return s;
}

std::shared_ptr<const obs::Trace> Ingestor::last_trace() const {
  MutexLock lock(trace_mutex_);
  return last_trace_;
}

}  // namespace paleo
