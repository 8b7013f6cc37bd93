// Lock-cheap metrics for the PALEO pipeline and the discovery service.
//
// A MetricsRegistry names three instrument kinds:
//
//   - Counter:   monotonic 64-bit count (events, candidates, rows),
//   - Gauge:     settable 64-bit level (queue depth, in-flight runs),
//   - Histogram: fixed-bucket latency distribution with p50/p95/p99.
//
// Registration (FindOrCreate*) takes a mutex and returns a pointer that
// stays valid for the registry's lifetime; the update path (Add / Set /
// Observe) is a single relaxed atomic op, so any number of threads may
// hammer one instrument concurrently — totals are exact, cross-metric
// snapshots are not synchronized.
//
// Components that own a long-lived registry (the discovery service, the
// table catalog) resolve their instruments once and report events
// through the free helpers below. A handle may be null — the catalog
// runs without a registry — and a null handle reduces an event to one
// well-predicted branch:
//
//   obs::Inc(metrics.batches);                      // no-op if null
//   obs::Observe(metrics.publish_ms, timer.ElapsedMillis());
//
// The reverse-engineering pipeline reports no events here: it counts
// into its own tallies and writes each run's report to a registry once,
// when the run ends (paleo/pipeline_metrics.h).
//
// RenderText() emits the Prometheus text exposition format (HELP/TYPE
// lines, cumulative `_bucket{le=...}` rows, `_sum`/`_count`), suitable
// for scraping or for a periodic stderr dump (`paleo_server_cli
// --metrics-every`).

#ifndef PALEO_OBS_METRICS_H_
#define PALEO_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace paleo {
namespace obs {

/// \brief Monotonic event counter. Thread-safe.
/// relaxed: a counter is a pure tally — increments commute and readers
/// sample; nothing is ordered or published through it.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // relaxed: see class comment.
  std::atomic<int64_t> value_{0};
};

/// \brief Settable level. Thread-safe.
/// relaxed: last-writer-wins level sampled by scrapes; stale reads are
/// inherent to sampling and no other memory depends on the value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // relaxed: see class comment.
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket latency histogram over milliseconds.
///
/// Buckets are a hard-coded exponential ladder (2^i / 1000 ms from 1 µs
/// up to ~67 s, plus +Inf), so Observe() is a loop-free index
/// computation plus one relaxed increment — no allocation, no locks.
/// The sum is accumulated in nanosecond-resolution integer ticks to
/// stay atomic without a CAS loop on doubles.
class Histogram {
 public:
  /// Number of finite bucket upper bounds; bucket kNumBuckets is +Inf.
  static constexpr int kNumBuckets = 27;

  /// Upper bound (inclusive, in ms) of finite bucket `i`.
  static double BucketUpperBound(int i);

  void Observe(double ms);

  // relaxed: scrape-side samples of independent tallies; a reader may
  // see count/sum/buckets from slightly different instants, which
  // Prometheus-style scraping tolerates by design.
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_ms() const {
    return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
           1000.0;
  }
  int64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// owning bucket; 0 when empty. p99 of a histogram whose tail sits in
  /// the +Inf bucket reports the last finite bound.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }

 private:
  // relaxed: independent tallies (see accessor comment above).
  std::atomic<int64_t> buckets_[kNumBuckets + 1] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_micros_{0};
};

/// \brief Named instrument directory with Prometheus-style rendering.
///
/// Instruments are identified by (name, labels) where `labels` is a
/// pre-rendered Prometheus label body such as `stage="executed"` (empty
/// for none). FindOrCreate* is idempotent: the same pair always returns
/// the same instrument, so independent binding sites share totals.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* FindOrCreateCounter(const std::string& name,
                               const std::string& help,
                               const std::string& labels = "");
  Gauge* FindOrCreateGauge(const std::string& name, const std::string& help,
                           const std::string& labels = "");
  Histogram* FindOrCreateHistogram(const std::string& name,
                                   const std::string& help,
                                   const std::string& labels = "");

  /// The instrument registered under (name, labels), or nullptr. For
  /// tests and dashboards; prefer holding the FindOrCreate* pointer.
  const Counter* counter(const std::string& name,
                         const std::string& labels = "") const;
  const Gauge* gauge(const std::string& name,
                     const std::string& labels = "") const;
  const Histogram* histogram(const std::string& name,
                             const std::string& labels = "") const;

  /// Prometheus text exposition: one HELP/TYPE header per family (in
  /// first-registration order), then one sample line per instrument —
  /// counters as `name{labels} v`, gauges likewise, histograms as
  /// cumulative `_bucket{le="..."}` rows plus `_sum` and `_count`.
  std::string RenderText() const;

  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::string labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(Kind kind, const std::string& name,
                      const std::string& help, const std::string& labels);
  const Entry* Find(Kind kind, const std::string& name,
                    const std::string& labels) const;
  const Entry* FindLocked(Kind kind, const std::string& name,
                          const std::string& labels) const
      REQUIRES(mutex_);

  /// Guards the directory: registration, lookups and RenderText scrapes
  /// all take it. Instrument updates bypass the lock entirely (relaxed
  /// atomics on stable heap entries).
  mutable Mutex mutex_;
  /// Registration order; stable pointers (entries are heap-allocated).
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mutex_);
};

// ---- Nullable-handle event helpers (the one-branch disabled path) ----

inline void Inc(Counter* c, int64_t n = 1) {
  if (c != nullptr) c->Add(n);
}
inline void Set(Gauge* g, int64_t v) {
  if (g != nullptr) g->Set(v);
}
inline void Add(Gauge* g, int64_t n) {
  if (g != nullptr) g->Add(n);
}
inline void Observe(Histogram* h, double ms) {
  if (h != nullptr) h->Observe(ms);
}

}  // namespace obs
}  // namespace paleo

#endif  // PALEO_OBS_METRICS_H_
