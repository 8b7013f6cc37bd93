#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace paleo {
namespace obs {

namespace {

/// Finite bucket bounds in ms: 2^i microseconds for i in [0, 26], i.e.
/// 0.001 ms .. ~67.1 s. Covers a cache-hit index probe through a
/// multi-minute governed run with ~2x resolution everywhere.
double BoundMs(int i) { return std::ldexp(0.001, i); }

/// Shortest decimal rendering that round-trips our bounds (they are
/// exact binary fractions scaled by 1e-3, so %.17g is overkill; %g at
/// 10 significant digits is stable and compact).
std::string FormatBound(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string FormatDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

double Histogram::BucketUpperBound(int i) { return BoundMs(i); }

void Histogram::Observe(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // NaN and negatives clamp to zero
  // Bucket index = position of ms on the 2^i microsecond ladder.
  int idx;
  if (ms <= 0.001) {
    idx = 0;
  } else {
    idx = static_cast<int>(std::ceil(std::log2(ms * 1000.0)));
    if (idx < 0) idx = 0;
    if (idx > kNumBuckets) idx = kNumBuckets;  // +Inf bucket
  }
  // relaxed: independent tallies; scrape-side tolerance for torn
  // cross-counter snapshots is documented on the accessors.
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double micros = ms * 1000.0;
  constexpr double kMaxMicros = 9.0e18;
  if (micros > kMaxMicros) micros = kMaxMicros;
  sum_micros_.fetch_add(static_cast<int64_t>(micros),
                        std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  int64_t total = count();
  if (total <= 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based, ceil).
  int64_t rank = static_cast<int64_t>(std::ceil(q * total));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (int i = 0; i <= kNumBuckets; ++i) {
    int64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= rank) {
      if (i >= kNumBuckets) return BoundMs(kNumBuckets - 1);
      double hi = BoundMs(i);
      double lo = i == 0 ? 0.0 : BoundMs(i - 1);
      double frac = static_cast<double>(rank - seen) /
                    static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return BoundMs(kNumBuckets - 1);
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    Kind kind, const std::string& name, const std::string& help,
    const std::string& labels) {
  MutexLock lock(mutex_);
  for (auto& e : entries_) {
    if (e->kind == kind && e->name == name && e->labels == labels) {
      return e.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = name;
  entry->labels = labels;
  entry->help = help;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

const MetricsRegistry::Entry* MetricsRegistry::Find(
    Kind kind, const std::string& name, const std::string& labels) const {
  MutexLock lock(mutex_);
  return FindLocked(kind, name, labels);
}

const MetricsRegistry::Entry* MetricsRegistry::FindLocked(
    Kind kind, const std::string& name, const std::string& labels) const {
  for (const auto& e : entries_) {
    if (e->kind == kind && e->name == name && e->labels == labels) {
      return e.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::FindOrCreateCounter(const std::string& name,
                                              const std::string& help,
                                              const std::string& labels) {
  return FindOrCreate(Kind::kCounter, name, help, labels)->counter.get();
}

Gauge* MetricsRegistry::FindOrCreateGauge(const std::string& name,
                                          const std::string& help,
                                          const std::string& labels) {
  return FindOrCreate(Kind::kGauge, name, help, labels)->gauge.get();
}

Histogram* MetricsRegistry::FindOrCreateHistogram(const std::string& name,
                                                  const std::string& help,
                                                  const std::string& labels) {
  return FindOrCreate(Kind::kHistogram, name, help, labels)->histogram.get();
}

const Counter* MetricsRegistry::counter(const std::string& name,
                                        const std::string& labels) const {
  const Entry* e = Find(Kind::kCounter, name, labels);
  return e != nullptr ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::gauge(const std::string& name,
                                    const std::string& labels) const {
  const Entry* e = Find(Kind::kGauge, name, labels);
  return e != nullptr ? e->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::histogram(const std::string& name,
                                            const std::string& labels) const {
  const Entry* e = Find(Kind::kHistogram, name, labels);
  return e != nullptr ? e->histogram.get() : nullptr;
}

size_t MetricsRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::string MetricsRegistry::RenderText() const {
  MutexLock lock(mutex_);
  std::string out;
  auto append_sample = [&out](const std::string& name,
                              const std::string& labels,
                              const std::string& value) {
    out += name;
    if (!labels.empty()) {
      out += '{';
      out += labels;
      out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
  };
  // One HELP/TYPE header per family, emitted at its first appearance in
  // registration order; later same-name entries (other label sets) are
  // grouped under it by a second pass.
  std::vector<const Entry*> done;
  for (const auto& first : entries_) {
    bool seen = false;
    for (const Entry* d : done) {
      if (d->name == first->name) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    out += "# HELP " + first->name + " " + first->help + "\n";
    const char* type = first->kind == Kind::kCounter   ? "counter"
                       : first->kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out += "# TYPE " + first->name + " " + type + "\n";
    for (const auto& e : entries_) {
      if (e->name != first->name) continue;
      done.push_back(e.get());
      switch (e->kind) {
        case Kind::kCounter:
          append_sample(e->name, e->labels,
                        std::to_string(e->counter->value()));
          break;
        case Kind::kGauge:
          append_sample(e->name, e->labels,
                        std::to_string(e->gauge->value()));
          break;
        case Kind::kHistogram: {
          const Histogram& h = *e->histogram;
          // Hoisted out of the bucket loop: the label prefix and the
          // "_bucket" family name are the same for all 28 rows, and
          // one row-label buffer is reused across them.
          std::string label_prefix = e->labels;
          if (!label_prefix.empty()) label_prefix += ',';
          const std::string bucket_name = e->name + "_bucket";
          std::string row_labels;
          int64_t cumulative = 0;
          for (int i = 0; i < Histogram::kNumBuckets; ++i) {
            cumulative += h.bucket_count(i);
            row_labels.assign(label_prefix);
            row_labels += "le=\"";
            row_labels += FormatBound(Histogram::BucketUpperBound(i));
            row_labels += '"';
            append_sample(bucket_name, row_labels,
                          std::to_string(cumulative));
          }
          cumulative += h.bucket_count(Histogram::kNumBuckets);
          row_labels.assign(label_prefix);
          row_labels += "le=\"+Inf\"";
          append_sample(bucket_name, row_labels,
                        std::to_string(cumulative));
          append_sample(e->name + "_sum", e->labels,
                        FormatDouble(h.sum_ms()));
          append_sample(e->name + "_count", e->labels,
                        std::to_string(h.count()));
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace paleo
