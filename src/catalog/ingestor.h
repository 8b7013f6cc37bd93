// The write side of a live table: accepts appended row batches and
// turns each into the catalog's next published snapshot.
//
// The Ingestor is a thin stateful handle over TableCatalog::Ingest —
// it owns the trace collection and the running tallies, while the
// catalog owns the serialization and the publication protocol.
// Multiple Ingestors over one catalog are allowed (their batches
// interleave, each one atomically); one Ingestor used from multiple
// threads is allowed too.

#ifndef PALEO_CATALOG_INGESTOR_H_
#define PALEO_CATALOG_INGESTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "catalog/table_catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"
#include "types/value.h"

namespace paleo {

struct IngestorOptions {
  /// Collect a span tree per batch (see last_trace()).
  bool collect_trace = false;
};

/// \brief Feeds row batches into a TableCatalog.
///
/// Thread-safe: Append may be called from any thread; batches are
/// serialized by the catalog. The stats tallies are atomics.
class Ingestor {
 public:
  /// `catalog` must outlive this object.
  Ingestor(TableCatalog* catalog, IngestorOptions options = {});

  Ingestor(const Ingestor&) = delete;
  Ingestor& operator=(const Ingestor&) = delete;

  /// Appends one batch as one new snapshot version: validates every
  /// row up front, builds the next snapshot off the current one, and
  /// publishes it. All-or-nothing — on any error (a type mismatch in
  /// any row, an injected catalog.ingest.* fault) the published
  /// snapshot is unchanged and the error is returned.
  Status Append(std::span<const std::vector<Value>> rows);

  /// Convenience overload for a single row.
  Status AppendRow(const std::vector<Value>& row) {
    return Append(std::span<const std::vector<Value>>(&row, 1));
  }

  /// Running tallies across all Append calls (atomic reads; a batch is
  /// counted when its Append returns).
  struct Stats {
    uint64_t batches = 0;
    uint64_t rows = 0;
    uint64_t full_rebuilds = 0;
    uint64_t failed_batches = 0;
  };
  Stats stats() const;

  /// The span tree of the most recent successful Append (null until
  /// one succeeds, or when collect_trace is off).
  std::shared_ptr<const obs::Trace> last_trace() const;

 private:
  TableCatalog* const catalog_;
  const IngestorOptions options_;

  // relaxed: independent event tallies bumped by concurrent Append
  // calls and sampled by stats(); no ordering contract.
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> full_rebuilds_{0};
  std::atomic<uint64_t> failed_batches_{0};

  mutable Mutex trace_mutex_;
  std::shared_ptr<const obs::Trace> last_trace_ GUARDED_BY(trace_mutex_);
};

}  // namespace paleo

#endif  // PALEO_CATALOG_INGESTOR_H_
