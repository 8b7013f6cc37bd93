#include "engine/threshold_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "storage/zone_map.h"

namespace paleo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Refutation slack: wide enough to absorb float wobble between the
/// completion-order running bounds and the canonical-order final
/// values, narrow enough to catch any macroscopic mismatch. Never
/// tighter than the acceptance eps.
double SlackFor(double rel_eps) { return std::max(rel_eps * 16.0, 1e-7); }

/// True when x exceeds v by more than the relative slack (the same
/// scale convention as ValuesClose in engine/topk_list.h).
bool Above(double x, double v, double slack) {
  const double scale = std::max(std::abs(x), std::abs(v));
  return x - v > slack * std::max(scale, 1.0);
}

/// Per-row [lo, hi] of one column over one chunk, from its zone map.
/// Empty zones (all-NaN or legacy layouts) are unbounded.
void ColumnBounds(const Column& col, const ZoneMap& zone, double* lo,
                  double* hi) {
  if (zone.empty) {
    *lo = -kInf;
    *hi = kInf;
    return;
  }
  switch (col.type()) {
    case DataType::kInt64:
      *lo = static_cast<double>(zone.int_min);
      *hi = static_cast<double>(zone.int_max);
      return;
    case DataType::kDouble:
      *lo = zone.double_min;
      *hi = zone.double_max;
      return;
    case DataType::kString:
      // A string column cannot be a ranking operand (the executor
      // validates numeric columns); unbounded keeps this conservative.
      *lo = -kInf;
      *hi = kInf;
      return;
  }
  *lo = -kInf;
  *hi = kInf;
}

/// Per-row [lo, hi] of the ranking expression over one chunk.
void ExprBounds(const RankExpr& expr, const Table& table, const Chunk& chunk,
                double* lo, double* hi) {
  double la;
  double ha;
  const size_t col_a = static_cast<size_t>(expr.column_a());
  ColumnBounds(table.column(static_cast<int>(col_a)), chunk.zones[col_a], &la,
               &ha);
  if (expr.is_single_column()) {
    *lo = la;
    *hi = ha;
    return;
  }
  double lb;
  double hb;
  const size_t col_b = static_cast<size_t>(expr.column_b());
  ColumnBounds(table.column(static_cast<int>(col_b)), chunk.zones[col_b], &lb,
               &hb);
  if (expr.kind() == RankExpr::Kind::kAdd) {
    *lo = la + lb;
    *hi = ha + hb;
    return;
  }
  // kMul: the product range is spanned by the interval corners. Any
  // non-finite operand bound makes corner arithmetic ill-defined
  // (inf * 0 = NaN): stay conservative with unbounded.
  if (!std::isfinite(la) || !std::isfinite(ha) || !std::isfinite(lb) ||
      !std::isfinite(hb)) {
    *lo = -kInf;
    *hi = kInf;
    return;
  }
  const double c1 = la * lb;
  const double c2 = la * hb;
  const double c3 = ha * lb;
  const double c4 = ha * hb;
  *lo = std::min(std::min(c1, c2), std::min(c3, c4));
  *hi = std::max(std::max(c1, c2), std::max(c3, c4));
}

/// True when every row value of the ranking expression is an integer
/// (exactly representable in double at these magnitudes): all operand
/// columns are int64, and add/mul preserve integrality.
bool IsIntegerExpr(const RankExpr& expr, const Table& table) {
  if (table.column(expr.column_a()).type() != DataType::kInt64) return false;
  if (expr.is_single_column()) return true;
  return table.column(expr.column_b()).type() == DataType::kInt64;
}

}  // namespace

ThresholdMonitor::ThresholdMonitor(const Table& table, const TopKList& input,
                                   SortOrder order, double rel_eps)
    : order_(order), k_(input.size()), slack_(SlackFor(rel_eps)) {
  if (input.empty()) return;
  // Values must be sorted consistently with the candidate order; an
  // unsorted L can never be produced by a grouped top-k query, so
  // pruning would save nothing the ordinary rejection does not.
  const std::vector<TopKEntry>& entries = input.entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    const bool ok = order == SortOrder::kDesc
                        ? entries[i - 1].value >= entries[i].value
                        : entries[i - 1].value <= entries[i].value;
    if (!ok) return;
  }
  const StringDictionary& dict = *table.entity_column().dict();
  targets_.reserve(entries.size());
  for (const TopKEntry& e : entries) {
    const uint32_t code = dict.Lookup(e.entity);
    // An entity absent from R's dictionary (possible on mutated or
    // foreign inputs) or duplicated in L (kNone-style lists) means no
    // grouped candidate can ever be accepted; deactivate rather than
    // special-case.
    if (code == StringDictionary::kInvalidCode ||
        targets_.count(code) != 0) {
      targets_.clear();
      return;
    }
    targets_.emplace(code, e.value);
  }
  worst_value_ = entries.back().value;
  is_target_.assign(dict.size(), 0);
  for (const auto& [code, value] : targets_) {
    (void)value;
    is_target_[code] = 1;
  }
  // Tie-break order against L's k-th entry, for the integer tie-
  // displacement rule (see ThresholdState). One pass over the
  // dictionary per validation run; the per-chunk probes are bitmap
  // reads.
  const std::string& worst_name = entries.back().entity;
  precedes_worst_.assign(dict.size(), 0);
  for (uint32_t code = 0; code < dict.size(); ++code) {
    precedes_worst_[code] = dict.Get(code) < worst_name ? 1 : 0;
  }
  active_ = true;
}

ThresholdState::ThresholdState(const ThresholdMonitor* monitor,
                               const Table& table, const TopKQuery& query,
                               GroupArrayPool* group_pool)
    : monitor_(monitor),
      group_pool_(group_pool),
      agg_(query.agg),
      desc_(query.order == SortOrder::kDesc) {
  const size_t num_chunks = table.num_chunks();
  chunk_lo_.resize(num_chunks);
  chunk_hi_.resize(num_chunks);
  chunk_rows_.resize(num_chunks);
  std::vector<AggState> groups =
      group_pool->Borrow(table.entity_column().dict()->size());
  MutexLock lock(mutex_);
  groups_ = std::move(groups);
  chunk_done_.assign(num_chunks, false);
  for (size_t i = 0; i < num_chunks; ++i) {
    const Chunk& ch = table.chunk(i);
    ExprBounds(query.expr, table, ch, &chunk_lo_[i], &chunk_hi_[i]);
    chunk_rows_[i] = ch.num_rows();
    rem_rows_ += chunk_rows_[i];
    const double n = static_cast<double>(chunk_rows_[i]);
    rem_pos_ += n * std::max(0.0, chunk_hi_[i]);
    rem_neg_ += n * std::min(0.0, chunk_lo_[i]);
    rem_his_.insert(chunk_hi_[i]);
    rem_los_.insert(chunk_lo_[i]);
  }
  foreign_stat_ = desc_ ? -kInf : kInf;
  // Integer tie-displacement rule (see the header): only for the
  // aggregates whose beat-side bound is exact AND changes only when
  // the group is touched (so the inline merge-loop check is complete):
  // MAX and COUNT under desc (running lb), MIN under asc (running ub).
  // COUNT is integral regardless of the expression. Requires the
  // acceptance tolerance to be far below the integer gap at the cut's
  // magnitude, so value-closeness collapses to exact equality.
  const bool integral =
      agg_ == AggFn::kCount || IsIntegerExpr(query.expr, table);
  const bool exact_side = desc_
                              ? (agg_ == AggFn::kMax || agg_ == AggFn::kCount)
                              : agg_ == AggFn::kMin;
  const double worst = monitor->worst_value();
  int_tie_ = monitor->active() && integral && exact_side &&
             monitor->slack() * std::max(std::abs(worst), 1.0) < 0.25;
  tie_lo_ = worst - 0.5;
  tie_hi_ = worst + 0.5;
}

ThresholdState::~ThresholdState() {
  std::vector<AggState> groups;
  {
    MutexLock lock(mutex_);
    for (uint32_t code : touched_) groups_[code] = AggState{};
    groups = std::move(groups_);
  }
  group_pool_->Return(std::move(groups));
}

void ThresholdState::RetireChunkLocked(size_t chunk_index) {
  if (chunk_done_[chunk_index]) return;
  chunk_done_[chunk_index] = true;
  rem_rows_ -= chunk_rows_[chunk_index];
  const double n = static_cast<double>(chunk_rows_[chunk_index]);
  rem_pos_ -= n * std::max(0.0, chunk_hi_[chunk_index]);
  rem_neg_ -= n * std::min(0.0, chunk_lo_[chunk_index]);
  rem_his_.erase(rem_his_.find(chunk_hi_[chunk_index]));
  rem_los_.erase(rem_los_.find(chunk_lo_[chunk_index]));
}

void ThresholdState::NoteChunkSkipped(size_t chunk_index) {
  MutexLock lock(mutex_);
  RetireChunkLocked(chunk_index);
  // Dropping a chunk only tightens bounds: seen groups may now be
  // refutable even though no new rows arrived.
  CheckLocked();
}

void ThresholdState::NoteChunk(size_t chunk_index,
                               const std::vector<uint32_t>& touched,
                               const std::vector<AggState>& partials) {
  MutexLock lock(mutex_);
  RetireChunkLocked(chunk_index);
  for (size_t i = 0; i < touched.size(); ++i) {
    const uint32_t code = touched[i];
    AggState& g = groups_[code];
    // Every partial holds at least one row, so a touched group's count
    // is positive from here on.
    if (g.count == 0) touched_.push_back(code);
    // Merge order is morsel completion order, NOT the canonical chunk
    // order — fine for bounds (set semantics), absorbed by the slack
    // for float wobble.
    g.Merge(partials[i]);
    if (!monitor_->IsTarget(code)) {
      // Fold the group's refutation statistic into the foreign
      // extremum tracker (see the header note on when this is exact
      // vs merely conservative).
      double stat;
      if (!ForeignStat(g, &stat)) continue;
      foreign_stat_ = desc_ ? std::max(foreign_stat_, stat)
                            : std::min(foreign_stat_, stat);
      // Integer tie displacement: under desc the group's final value f
      // satisfies f >= stat (exact, monotone); if stat clears the cut
      // by more than the integer half-gap, f beats L's k-th entry by
      // value, and if it lands inside the half-gap (an exact tie after
      // tolerance collapse) while the group's name precedes the k-th
      // entry's, f beats it on the executor's name tie-break. Either
      // way a foreign entity enters the top-k, so no result can equal
      // L. Mirrored for asc (f <= stat).
      if (int_tie_ &&
          (desc_ ? (stat > tie_hi_ ||
                    (stat > tie_lo_ && monitor_->PrecedesWorst(code)))
                 : (stat < tie_lo_ ||
                    (stat < tie_hi_ && monitor_->PrecedesWorst(code))))) {
        // relaxed: see refuted().
        refuted_.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
  CheckLocked();
}

bool ThresholdState::ForeignStat(const AggState& s, double* stat) const {
  switch (agg_) {
    case AggFn::kMax:
    case AggFn::kMin:
      // Every row so far NaN: the group may still finish as NaN.
      if (s.max < s.min) return false;
      *stat = agg_ == AggFn::kMax ? s.max : s.min;
      return true;
    case AggFn::kSum:
      *stat = s.sum;
      return true;
    case AggFn::kCount:
      *stat = static_cast<double>(s.count);
      return true;
    case AggFn::kAvg:
    case AggFn::kNone:
      break;
  }
  return false;
}

void ThresholdState::BoundsLocked(const AggState& s, double rem_hi,
                                  double rem_lo, double* lb,
                                  double* ub) const {
  switch (agg_) {
    case AggFn::kMax:
      *lb = s.max;
      *ub = std::max(s.max, rem_hi);
      return;
    case AggFn::kMin:
      *lb = std::min(s.min, rem_lo);
      *ub = s.min;
      return;
    case AggFn::kSum:
      *lb = s.sum + rem_neg_;
      *ub = s.sum + rem_pos_;
      return;
    case AggFn::kCount:
      *lb = static_cast<double>(s.count);
      *ub = static_cast<double>(s.count + static_cast<int64_t>(rem_rows_));
      return;
    case AggFn::kAvg: {
      const double cur = s.sum / static_cast<double>(s.count);
      if (rem_rows_ == 0) {
        *lb = *ub = cur;
      } else {
        *lb = std::min(cur, rem_lo);
        *ub = std::max(cur, rem_hi);
      }
      return;
    }
    case AggFn::kNone:
      break;  // never constructed for ungrouped queries
  }
  *lb = -kInf;
  *ub = kInf;
}

void ThresholdState::CheckLocked() {
  if (refuted_.load(std::memory_order_relaxed)) return;
  const double rem_hi = rem_his_.empty() ? -kInf : *rem_his_.rbegin();
  const double rem_lo = rem_los_.empty() ? kInf : *rem_los_.begin();
  const double slack = monitor_->slack();
  // In-L groups: k of them, checked exactly every time. A target the
  // scan has not touched yet has no running value to test (its bounds
  // still span the whole remaining potential).
  for (const auto& [code, target] : monitor_->targets()) {
    const AggState& s = groups_[code];
    if (s.count == 0) continue;
    double lb;
    double ub;
    BoundsLocked(s, rem_hi, rem_lo, &lb, &ub);
    // An entity of L must finish exactly at its target value.
    if (Above(lb, target, slack) || Above(target, ub, slack)) {
      // relaxed: see refuted(); the flag is advisory and sticky.
      refuted_.store(true, std::memory_order_relaxed);
      return;
    }
  }
  // Foreign groups: O(1) on the extremum tracker. Only when the
  // tracker's (possibly stale) bound says some foreign group might
  // provably beat L's cut do we pay the exact per-group pass. For the
  // per-group-monotone statistics the tracker is exact and the verify
  // pass refutes on its first iteration; for the rest a no-refute
  // verify tightens the tracker, so repeated triggers need the bound
  // to move again. NaN-poisoned statistics fail the comparison and
  // trigger nothing (conservative).
  const double worst = monitor_->worst_value();
  bool trigger = false;
  switch (agg_) {
    case AggFn::kMax:
      trigger = desc_ ? Above(foreign_stat_, worst, slack)
                      : Above(worst, std::max(foreign_stat_, rem_hi), slack);
      break;
    case AggFn::kMin:
      trigger = desc_ ? Above(std::min(foreign_stat_, rem_lo), worst, slack)
                      : Above(worst, foreign_stat_, slack);
      break;
    case AggFn::kSum:
      trigger = desc_ ? Above(foreign_stat_ + rem_neg_, worst, slack)
                      : Above(worst, foreign_stat_ + rem_pos_, slack);
      break;
    case AggFn::kCount:
      trigger =
          desc_ ? Above(foreign_stat_, worst, slack)
                : Above(worst,
                        foreign_stat_ + static_cast<double>(rem_rows_),
                        slack);
      break;
    case AggFn::kAvg:
    case AggFn::kNone:
      trigger = false;
      break;
  }
  if (trigger) VerifyForeignLocked(rem_hi, rem_lo);
}

void ThresholdState::VerifyForeignLocked(double rem_hi, double rem_lo) {
  const double slack = monitor_->slack();
  const double worst = monitor_->worst_value();
  double tight = desc_ ? -kInf : kInf;
  for (uint32_t code : touched_) {
    if (monitor_->IsTarget(code)) continue;
    const AggState& s = groups_[code];
    double stat;
    if (!ForeignStat(s, &stat)) continue;
    double lb;
    double ub;
    BoundsLocked(s, rem_hi, rem_lo, &lb, &ub);
    // A foreign entity must not beat L's worst entry; NaN-poisoned
    // bounds fail both comparisons and refute nothing (conservative).
    if (desc_ ? Above(lb, worst, slack) : Above(worst, ub, slack)) {
      // relaxed: see refuted(); the flag is advisory and sticky.
      refuted_.store(true, std::memory_order_relaxed);
      return;
    }
    tight = desc_ ? std::max(tight, stat) : std::min(tight, stat);
  }
  foreign_stat_ = tight;
}

}  // namespace paleo
