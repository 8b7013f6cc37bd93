#include "catalog/table_catalog.h"

#include <optional>
#include <utility>

#include "common/fault_points.h"
#include "common/timer.h"

namespace paleo {

TableSnapshot::TableSnapshot(Key, Table table, uint64_t version,
                             PaleoOptions options, EntityIndex index,
                             StatsCatalog stats,
                             std::unique_ptr<DimensionIndex> dimension_index)
    : table_(std::move(table)),
      version_(version),
      engine_(std::make_unique<Paleo>(&table_, std::move(options),
                                      std::move(index), std::move(stats),
                                      std::move(dimension_index))) {}

TableSnapshot::~TableSnapshot() {
  // The last pin just dropped: this version is retired for good.
  obs::Add(live_gauge_, -1);
  obs::Inc(retired_total_);
}

TableCatalog::TableCatalog(Table base, PaleoOptions options,
                           obs::MetricsRegistry* metrics)
    : options_(std::move(options)),
      metrics_(metrics),
      catalog_metrics_(BindMetrics()) {
  EntityIndex index = EntityIndex::Build(base);
  StatsCatalog stats = StatsCatalog::Build(base);
  std::unique_ptr<DimensionIndex> dimension_index;
  if (options_.use_dimension_index) {
    dimension_index =
        std::make_unique<DimensionIndex>(DimensionIndex::Build(base));
  }
  MutexLock lock(publish_mutex_);
  current_ = MakeSnapshot(std::move(base), /*version=*/1, std::move(index),
                          std::move(stats), std::move(dimension_index));
  obs::Set(catalog_metrics_.version, 1);
}

TableCatalog::CatalogMetrics TableCatalog::BindMetrics() {
  CatalogMetrics m;
  if (metrics_ == nullptr) return m;
  m.batches = metrics_->FindOrCreateCounter(
      "paleo_ingest_batches_total", "Row batches published as snapshots.");
  m.rows = metrics_->FindOrCreateCounter(
      "paleo_ingest_rows_total", "Rows ingested across batches.");
  m.full_rebuilds = metrics_->FindOrCreateCounter(
      "paleo_ingest_full_rebuilds_total",
      "Upfront structures rebuilt from scratch instead of extended "
      "incrementally (histogram range growth).");
  m.publish_ms = metrics_->FindOrCreateHistogram(
      "paleo_ingest_publish_ms",
      "Milliseconds from batch acceptance to snapshot publication.");
  m.version = metrics_->FindOrCreateGauge(
      "paleo_snapshot_version", "Version of the published snapshot.");
  m.live = metrics_->FindOrCreateGauge(
      "paleo_snapshot_live",
      "Snapshots alive: the published one plus retired versions still "
      "pinned by in-flight sessions.");
  m.retired = metrics_->FindOrCreateCounter(
      "paleo_snapshot_retired_total",
      "Snapshots whose last pin dropped (fully reclaimed versions).");
  return m;
}

std::shared_ptr<const TableSnapshot> TableCatalog::MakeSnapshot(
    Table table, uint64_t version, EntityIndex index, StatsCatalog stats,
    std::unique_ptr<DimensionIndex> dimension_index) {
  auto snapshot = std::make_shared<TableSnapshot>(
      TableSnapshot::Key(), std::move(table), version, options_,
      std::move(index), std::move(stats), std::move(dimension_index));
  snapshot->live_gauge_ = catalog_metrics_.live;
  snapshot->retired_total_ = catalog_metrics_.retired;
  obs::Add(catalog_metrics_.live, 1);
  return snapshot;
}

Status TableCatalog::Ingest(std::span<const std::vector<Value>> rows,
                            obs::Trace* trace, IngestOutcome* outcome) {
  // Chaos hook: admission-side ingest failures (batch validation,
  // journal I/O) before any build work happens.
  FaultResult validate_fault = PALEO_FAULT_POINT("catalog.ingest.validate");
  if (validate_fault.error()) return validate_fault.status;

  MutexLock lock(ingest_mutex_);
  std::shared_ptr<const TableSnapshot> prev = Current();
  obs::ScopedSpan ingest_span(trace, "ingest");
  ingest_span.AddAttr("rows", static_cast<int64_t>(rows.size()));
  ingest_span.AddAttr("prev_version",
                      static_cast<int64_t>(prev->version()));
  Timer publish_timer;

  // Copy prev's table, which shares its column storage by prefix and
  // its dictionaries until a new string arrives, then append the batch
  // (validated all-or-nothing, one epoch bump) past every row prev's
  // readers can see: O(columns + chunks + batch), and prev keeps a
  // frozen view (storage/prefix_array.h).
  std::optional<Table> next_table;
  {
    obs::ScopedSpan span(trace, "copy", ingest_span.id());
    next_table.emplace(prev->table());
  }
  {
    obs::ScopedSpan span(trace, "append", ingest_span.id());
    PALEO_RETURN_NOT_OK(next_table->AppendRows(rows));
  }
  const size_t old_rows = prev->table().num_rows();

  // next_table extends prev's rows, so every structure is extended
  // from the delta; only a broken invariant fails here.
  int full_rebuilds = 0;
  StatsCatalog stats;
  EntityIndex index;
  std::unique_ptr<DimensionIndex> dimension_index;
  {
    obs::ScopedSpan span(trace, "stats", ingest_span.id());
    PALEO_ASSIGN_OR_RETURN(
        stats, StatsCatalog::BuildIncremental(prev->engine().catalog(),
                                              *next_table, &full_rebuilds));
  }
  {
    obs::ScopedSpan span(trace, "index", ingest_span.id());
    index = EntityIndex::BuildIncremental(prev->engine().index(), *next_table,
                                          old_rows);
    // Every snapshot is built with options_, so prev has a dimension
    // index exactly when this one needs one.
    if (const DimensionIndex* prev_dim = prev->engine().dimension_index()) {
      dimension_index = std::make_unique<DimensionIndex>(
          DimensionIndex::BuildIncremental(*prev_dim, *next_table, old_rows));
    }
  }

  // Chaos hook: a lost build (engine construction, snapshot
  // allocation). An error here aborts the batch with the published
  // snapshot untouched — the ingest contract under faults.
  FaultResult build_fault = PALEO_FAULT_POINT("catalog.ingest.build");
  if (build_fault.error()) return build_fault.status;

  const uint64_t version = next_version_++;
  std::shared_ptr<const TableSnapshot> next =
      MakeSnapshot(*std::move(next_table), version, std::move(index),
                   std::move(stats), std::move(dimension_index));
  ingest_span.AddAttr("version", static_cast<int64_t>(version));

  // Chaos hook: delays here hold a fully built snapshot unpublished,
  // widening the window the snapshot-isolation suite races against;
  // errors abort with the (versioned but never published) snapshot
  // reclaimed immediately.
  FaultResult publish_fault = PALEO_FAULT_POINT("catalog.ingest.publish");
  if (publish_fault.error()) return publish_fault.status;

  {
    obs::ScopedSpan span(trace, "publish", ingest_span.id());
    // The RCU hand-over-hand: readers pinned to prev keep it alive
    // (so the ref dropped here never destroys a snapshot under the
    // lock); every Current() after this swap sees the new version.
    MutexLock publish_lock(publish_mutex_);
    current_ = next;
  }
  obs::Inc(catalog_metrics_.batches);
  obs::Inc(catalog_metrics_.rows, static_cast<int64_t>(rows.size()));
  obs::Inc(catalog_metrics_.full_rebuilds, full_rebuilds);
  obs::Observe(catalog_metrics_.publish_ms, publish_timer.ElapsedMillis());
  obs::Set(catalog_metrics_.version, static_cast<int64_t>(version));
  if (outcome != nullptr) {
    outcome->rows = rows.size();
    outcome->full_rebuilds = full_rebuilds;
    outcome->published_version = version;
  }
  return Status::OK();
}

}  // namespace paleo
