// Live tables: an epoch-versioned chain of immutable snapshots with
// RCU-style publication.
//
// The engine is immutable-after-build by design — every structure
// PALEO computes upfront (entity postings, statistics catalog,
// dimension postings) is built against one frozen table. A TableCatalog
// lifts that design to a table that GROWS: each version of the relation
// is frozen into a TableSnapshot (table + the upfront structures +
// a ready Paleo engine, all stamped with the table's epoch), and the
// catalog publishes the latest snapshot through one mutex-guarded
// shared_ptr hand-off — the read-copy-update shape:
//
//   readers   Current() — a brief lock to copy the published pointer,
//             then use the snapshot with no further synchronization
//             for as long as they hold the shared_ptr (the discovery
//             service pins one per admitted session, so an in-flight
//             run is byte-identical to a run on a frozen copy),
//   writer    Ingest (via Ingestor) — serialized on ingest_mutex_;
//             copies the current table, appends the batch, extends
//             stats and indexes incrementally from the delta, and swaps
//             in the new snapshot. The copy and the indexes share the
//             previous version's column arrays and posting lists by
//             prefix (storage/prefix_array.h): the batch lands past
//             every row a reader of an older version can see, so no
//             reader-visible state is ever mutated, and a publish
//             allocates O(batch) plus the dictionaries the batch
//             extends,
//   reclaim   the previous snapshot dies when its last pin drops — no
//             grace period machinery needed beyond shared_ptr. Buffers
//             that later versions share stay alive with them; only a
//             version's private parts are freed.
//
// (Why a mutex and not std::atomic<shared_ptr>? libstdc++'s _Sp_atomic
// guards its pointer with an embedded lock bit that ThreadSanitizer
// cannot see through — every store/load pair reports as a race. The
// hand-off is two pointer copies under a never-held-long lock.)
//
// Thread-safe: Current() from any thread; ingestion from any thread,
// serialized internally. A snapshot itself is immutable and safely
// shared (the same contract as a standalone Paleo).
//
// The optional MetricsRegistry (which must outlive the catalog AND
// every pinned snapshot) receives the paleo_ingest_* / paleo_snapshot_*
// series.

#ifndef PALEO_CATALOG_TABLE_CATALOG_H_
#define PALEO_CATALOG_TABLE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/dimension_index.h"
#include "index/entity_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paleo/options.h"
#include "paleo/paleo.h"
#include "stats/catalog.h"
#include "storage/table.h"

namespace paleo {

class TableCatalog;

/// \brief One immutable version of the base relation plus everything
/// PALEO computes upfront from it, ready to serve.
///
/// Thread-safe: all accessors are const over immutable state; any
/// number of threads may run discoveries against engine()
/// concurrently. Snapshots are created only by a TableCatalog and
/// handed out as shared_ptr<const TableSnapshot>; holding one pins
/// this version alive regardless of how far the catalog advances.
class TableSnapshot {
 public:
  /// Pass-key: makes the constructor callable by std::make_shared but
  /// only constructible through the owning TableCatalog.
  class Key {
   private:
    friend class TableCatalog;
    Key() = default;
  };

  TableSnapshot(Key, Table table, uint64_t version, PaleoOptions options,
                EntityIndex index, StatsCatalog stats,
                std::unique_ptr<DimensionIndex> dimension_index);
  ~TableSnapshot();

  TableSnapshot(const TableSnapshot&) = delete;
  TableSnapshot& operator=(const TableSnapshot&) = delete;

  const Table& table() const { return table_; }
  /// The table's content stamp (see Table::epoch) — what epoch-keyed
  /// caches key on, so stale versions age out of them naturally.
  uint64_t epoch() const { return table_.epoch(); }
  /// 1-based position in the catalog's version chain (v1 = the base
  /// relation the catalog was constructed with). Monotonically
  /// increasing across publishes; gaps are possible when an ingest
  /// batch was aborted by an injected fault after versioning.
  uint64_t version() const { return version_; }
  size_t num_rows() const { return table_.num_rows(); }
  /// The engine bound to this frozen version.
  const Paleo& engine() const { return *engine_; }

 private:
  friend class TableCatalog;

  Table table_;
  const uint64_t version_;
  std::unique_ptr<Paleo> engine_;  // bound to &table_
  // Retirement accounting (set by the owning catalog; nullable).
  obs::Gauge* live_gauge_ = nullptr;
  obs::Counter* retired_total_ = nullptr;
};

/// \brief Owner of the snapshot chain: builds version 1 from the base
/// table, accepts new versions from the Ingestor, and publishes the
/// current snapshot for pinning.
///
/// Thread-safe (see file comment). Non-copyable; typically owned by a
/// shared_ptr shared between the serving side (DiscoveryService) and
/// the ingestion side (Ingestor).
class TableCatalog {
 public:
  /// Freezes `base` as snapshot version 1 (the upfront cost of one
  /// Paleo construction: its stats catalog already carries the state
  /// the next ingest extends). `options` are
  /// the engine options every snapshot's Paleo is built with; they
  /// also serve as the discovery service's default per-request
  /// options. `metrics`, when non-null, must outlive the catalog and
  /// every pinned snapshot.
  TableCatalog(Table base, PaleoOptions options,
               obs::MetricsRegistry* metrics = nullptr);

  TableCatalog(const TableCatalog&) = delete;
  TableCatalog& operator=(const TableCatalog&) = delete;

  /// Pins the current snapshot: a pointer copy under a briefly held
  /// lock. The returned snapshot never changes; call again to observe
  /// later versions.
  std::shared_ptr<const TableSnapshot> Current() const {
    MutexLock lock(publish_mutex_);
    return current_;
  }

  /// Version of the currently published snapshot.
  uint64_t CurrentVersion() const { return Current()->version(); }

  const PaleoOptions& options() const { return options_; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  friend class Ingestor;

  /// What one successful ingest did (Ingestor bookkeeping).
  struct IngestOutcome {
    size_t rows = 0;
    int full_rebuilds = 0;
    uint64_t published_version = 0;
  };

  /// Registry handles resolved once at construction (all null without
  /// a registry).
  struct CatalogMetrics {
    obs::Counter* batches = nullptr;
    obs::Counter* rows = nullptr;
    obs::Counter* full_rebuilds = nullptr;
    obs::Histogram* publish_ms = nullptr;
    obs::Gauge* version = nullptr;
    obs::Gauge* live = nullptr;
    obs::Counter* retired = nullptr;
  };
  CatalogMetrics BindMetrics();

  /// Builds the next version by extending the current snapshot's
  /// structures from the batch and publishes it; serialized on
  /// ingest_mutex_. An error return leaves the published snapshot
  /// untouched.
  Status Ingest(std::span<const std::vector<Value>> rows, obs::Trace* trace,
                IngestOutcome* outcome);

  /// Wraps the pieces into a snapshot with retirement accounting.
  std::shared_ptr<const TableSnapshot> MakeSnapshot(
      Table table, uint64_t version, EntityIndex index, StatsCatalog stats,
      std::unique_ptr<DimensionIndex> dimension_index);

  const PaleoOptions options_;
  obs::MetricsRegistry* const metrics_;
  const CatalogMetrics catalog_metrics_;

  /// Serializes snapshot builds (single writer at a time). Readers
  /// never take it: they only touch publish_mutex_ below. Ingest holds
  /// it while publishing (and while reading Current), so the global
  /// order is ingest before publish — declared here so both clang's
  /// -Wthread-safety and paleo_analyze's lock-order pass enforce it.
  Mutex ingest_mutex_ ACQUIRED_BEFORE(publish_mutex_);
  uint64_t next_version_ GUARDED_BY(ingest_mutex_) = 2;

  /// Guards only the published-pointer hand-off: readers hold it for
  /// one shared_ptr copy, the writer for one swap. Never held across
  /// build work or a discovery run.
  mutable Mutex publish_mutex_;
  std::shared_ptr<const TableSnapshot> current_ GUARDED_BY(publish_mutex_);
};

}  // namespace paleo

#endif  // PALEO_CATALOG_TABLE_CATALOG_H_
