// Threshold-style early termination for candidate-query validation.
//
// Validation executes a candidate query only to compare its result
// against the KNOWN top-k list L — so the full grouped aggregate is
// wasted work the moment the running per-group aggregates can no
// longer reproduce L's entities, order, or values. In the spirit of
// threshold / any-k ranked enumeration (Tziavelis et al.), the
// executor's chunk-canonical scan maintains per-group running
// aggregates plus BOUNDS on every group's final value derived from the
// not-yet-scanned chunks' zone maps and row counts, and aborts the
// scan with Status::QueryRefuted the instant some group provably
// cannot land where L requires it.
//
// Per aggregate kind, with s = the group's running AggState over the
// processed chunks and R = the set of remaining (unprocessed,
// non-zone-skipped) chunks, each with per-row expression bounds
// [lo_c, hi_c] (from its zone maps) and row count n_c, the final value
// f is bracketed by [lb, ub]:
//
//   SUM    lb = s.sum + sum_c n_c*min(0, lo_c)   (monotone when lo>=0)
//          ub = s.sum + sum_c n_c*max(0, hi_c)
//   COUNT  lb = s.count            ub = s.count + sum_c n_c (monotone)
//   MAX    lb = s.max              ub = max(s.max, max_c hi_c)
//   MIN    lb = min(s.min, min_c lo_c)           ub = s.min
//   AVG    lb = min(s.sum/s.count, min_c lo_c)
//          ub = max(s.sum/s.count, max_c hi_c)
//
// Refutation rules (sound: an accepted candidate is NEVER refuted):
//   - a group that is an entity of L with target value v is refuted
//     when lb > v or ub < v beyond the tolerance slack;
//   - a FOREIGN group (not in L) is refuted when it provably beats L's
//     worst entry: lb > v_k under descending order, ub < v_k under
//     ascending (a foreign entity ranking above the cut contradicts
//     result == L);
//   - integer tie displacement: when the ranking values are provably
//     integral and the tolerance is far below the integer gap, a
//     foreign group whose EXACT beat-side bound ties v_k while its
//     entity name precedes L's k-th entry's name is refuted — the
//     executor breaks exact value ties by name ascending, so the
//     foreign entity displaces the k-th entry, and acceptance compares
//     entity (multi)sets, which a foreign entity always breaks. This
//     fires on the tie populations (small integer domains saturating
//     many groups at the cut value) where value bounds alone never
//     separate.
// Empty zone maps yield infinite bounds (refute nothing). NaN row
// values are excluded from zone maps (see the zone-map NaN note in
// storage/zone_map.h); a NaN row makes a SUM/AVG group's bounds NaN,
// and NaN bounds refute nothing. A MAX/MIN group whose rows so far are all NaN
// still holds the -inf/+inf seeds, yet may finish as NaN (AggState::
// Finish), which ranks after every number: as a FOREIGN group it is
// skipped, since it can never beat the cut; as an entity of L it is
// checked by the formulas above, since a NaN result cannot equal a
// numeric target.
//
// The tolerance slack is deliberately wider than the acceptance
// rel_eps: running bounds are merged in morsel completion order, not
// the canonical chunk order, so float wobble up to a few ulps of the
// accumulation must never refute a candidate the canonical result
// would accept. Values that differ by less than the slack are simply
// not refuted — they are rejected (or accepted) by the ordinary full
// comparison instead.
//
// Thread-safety: ThresholdMonitor is immutable after construction and
// shared by every execution of one validation run. ThresholdState is
// per-execution: NoteChunk / NoteChunkSkipped are internally
// synchronized (morsel workers call them concurrently in completion
// order — the bounds above are set-of-chunks semantics, so completion
// order does not matter); refuted() is a lock-free flag cheap enough
// to poll between chunks. Its dense running aggregates are an array
// borrowed from the executor's GroupArrayPool (engine/group_pool.h)
// and handed back zeroed on destruction, refuted or not.

#ifndef PALEO_ENGINE_THRESHOLD_MONITOR_H_
#define PALEO_ENGINE_THRESHOLD_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/aggregate.h"
#include "engine/group_pool.h"
#include "engine/query.h"
#include "engine/topk_list.h"
#include "storage/table.h"

namespace paleo {

/// \brief Immutable per-validation-run refutation targets: L resolved
/// against the table's entity dictionary.
class ThresholdMonitor {
 public:
  /// Builds the monitor for reverse engineering `input` over `table`
  /// with candidate queries ordered by `order`. `rel_eps` is the
  /// acceptance tolerance; the monitor widens it into its refutation
  /// slack. The monitor deactivates itself (active() == false, prunes
  /// nothing) whenever refutation would be unsound or useless: an
  /// empty input, duplicate entities (no grouped query can produce
  /// them), an entity absent from the table's dictionary, or values
  /// not sorted consistently with `order`.
  ThresholdMonitor(const Table& table, const TopKList& input,
                   SortOrder order, double rel_eps);

  ThresholdMonitor(const ThresholdMonitor&) = delete;
  ThresholdMonitor& operator=(const ThresholdMonitor&) = delete;

  bool active() const { return active_; }

  /// True when `query`'s shape matches what the targets were built
  /// for: grouped aggregate, same k, same sort order. The executor
  /// prunes only when this holds (and the monitor is active).
  bool AppliesTo(const TopKQuery& query) const {
    return active_ && query.agg != AggFn::kNone &&
           static_cast<size_t>(query.k) == k_ && query.order == order_;
  }

  SortOrder order() const { return order_; }
  size_t k() const { return k_; }
  /// The refutation slack (relative), wider than the acceptance eps.
  double slack() const { return slack_; }
  /// L's worst (k-th) value — the cut a foreign group must not beat.
  double worst_value() const { return worst_value_; }

  /// Target value for entity code `code`, or nullptr when the code is
  /// not an entity of L (a foreign group).
  const double* TargetFor(uint32_t code) const {
    auto it = targets_.find(code);
    return it == targets_.end() ? nullptr : &it->second;
  }

  /// All k (entity code, required value) targets — the in-L groups the
  /// per-chunk check iterates directly (O(k), not O(seen groups)).
  const std::unordered_map<uint32_t, double>& targets() const {
    return targets_;
  }

  /// Dense is-an-entity-of-L test (valid codes only; built once for
  /// the whole run — the merge loop probes it per matching row's
  /// group, where a hash lookup would dominate the merge).
  bool IsTarget(uint32_t code) const {
    return code < is_target_.size() && is_target_[code] != 0;
  }

  /// True when entity `code`'s name orders before L's k-th entry's
  /// name — the executor's tie-break. A foreign group that TIES the
  /// cut value exactly and precedes the k-th name displaces it (see
  /// the integer tie rule in ThresholdState).
  bool PrecedesWorst(uint32_t code) const {
    return code < precedes_worst_.size() && precedes_worst_[code] != 0;
  }

 private:
  bool active_ = false;
  SortOrder order_ = SortOrder::kDesc;
  size_t k_ = 0;
  double slack_ = 0.0;
  double worst_value_ = 0.0;
  std::unordered_map<uint32_t, double> targets_;
  std::vector<uint8_t> is_target_;
  std::vector<uint8_t> precedes_worst_;
};

/// \brief Per-execution running aggregates + remaining-chunk bounds.
///
/// Created by the executor for one full grouped scan; morsel workers
/// feed completed chunks through NoteChunk / NoteChunkSkipped and poll
/// refuted() before claiming the next chunk.
class ThresholdState {
 public:
  /// Precomputes per-chunk expression bounds from `table`'s zone maps
  /// (O(num_chunks), trivially cheaper than scanning one chunk) and
  /// borrows a dense group array from `group_pool`.
  ThresholdState(const ThresholdMonitor* monitor, const Table& table,
                 const TopKQuery& query, GroupArrayPool* group_pool);
  /// Zeroes the touched slots and hands the array back to the pool.
  ~ThresholdState();

  ThresholdState(const ThresholdState&) = delete;
  ThresholdState& operator=(const ThresholdState&) = delete;

  /// True once some group provably cannot match L. Sticky.
  /// relaxed: advisory abort flag; workers that miss it by one chunk
  /// just scan one extra chunk. No data is published through it.
  bool refuted() const { return refuted_.load(std::memory_order_relaxed); }

  /// A zone-map-skipped chunk contributes no matching rows: drop it
  /// from the remaining potentials (which can only tighten bounds).
  void NoteChunkSkipped(size_t chunk_index);

  /// Folds one completed chunk's compact per-group partials into the
  /// running aggregates, drops the chunk from the remaining
  /// potentials, and re-checks L's k targets plus the foreign-group
  /// extremum against the tightened bounds (O(k), not O(seen groups)).
  void NoteChunk(size_t chunk_index, const std::vector<uint32_t>& touched,
                 const std::vector<AggState>& partials);

 private:
  /// Removes chunk `chunk_index` from the remaining-potential
  /// accounting. Idempotence guard: each chunk is noted at most once
  /// (the scan claims each chunk exactly once).
  void RetireChunkLocked(size_t chunk_index) REQUIRES(mutex_);
  /// [lb, ub] on group `s`'s final value given the current remaining
  /// potentials (the header formulas).
  void BoundsLocked(const AggState& s, double rem_hi, double rem_lo,
                    double* lb, double* ub) const REQUIRES(mutex_);
  /// The foreign tracker's statistic for group `s` (see
  /// `foreign_stat_`), or false when `s` has none to fold: AVG tracks
  /// nothing, and a MAX/MIN group whose rows so far are all NaN may
  /// still finish as NaN, which ranks after every number, so it has no
  /// bound on the side that beats the cut.
  bool ForeignStat(const AggState& s, double* stat) const;
  /// The incremental per-chunk check: O(k) over L's targets plus an
  /// O(1) foreign-extremum test (escalating to VerifyForeignLocked
  /// only when the tracker says a foreign group might newly beat the
  /// cut). Trips `refuted_` on the first group that provably cannot
  /// match L.
  void CheckLocked() REQUIRES(mutex_);
  /// The slow, exact foreign check: one pass over every seen foreign
  /// group. Refutes, or tightens `foreign_stat_` to the true current
  /// extremum so the O(1) trigger stays quiet until something changes.
  void VerifyForeignLocked(double rem_hi, double rem_lo) REQUIRES(mutex_);

  const ThresholdMonitor* monitor_;
  GroupArrayPool* group_pool_;
  AggFn agg_;
  bool desc_;
  /// Integer tie-displacement rule enabled (set once in the ctor):
  /// the ranking values are provably integral (int64 operand columns,
  /// or COUNT), the beat-side bound is exact and touch-monotone (MAX/
  /// COUNT under desc, MIN under asc), and the acceptance tolerance at
  /// the cut's magnitude is far below the integer gap — so "within
  /// eps" collapses to exact equality and a foreign group whose exact
  /// bound ties the cut while its name precedes L's k-th entry's name
  /// provably displaces it (the executor breaks exact value ties by
  /// entity name ascending). tie_lo_/tie_hi_ bracket the cut by the
  /// integer half-gap, absorbing a non-integral L value (then no
  /// integral result can be accepted at all, and refuting is vacuously
  /// sound).
  bool int_tie_ = false;
  double tie_lo_ = 0.0;
  double tie_hi_ = 0.0;

  /// Per-chunk per-row expression bounds and row counts (index =
  /// chunk). Infinite bounds for unsummarizable (empty) zones.
  std::vector<double> chunk_lo_;
  std::vector<double> chunk_hi_;
  std::vector<size_t> chunk_rows_;

  mutable Mutex mutex_;
  std::vector<bool> chunk_done_ GUARDED_BY(mutex_);
  /// Remaining matchable rows across unretired chunks.
  size_t rem_rows_ GUARDED_BY(mutex_) = 0;
  /// sum_c n_c * max(0, hi_c) / sum_c n_c * min(0, lo_c) over
  /// unretired chunks (SUM bounds).
  double rem_pos_ GUARDED_BY(mutex_) = 0.0;
  double rem_neg_ GUARDED_BY(mutex_) = 0.0;
  /// Multisets of per-chunk hi / lo over unretired chunks, for O(log n)
  /// max/min maintenance under chunk retirement (MAX/MIN/AVG bounds).
  std::multiset<double> rem_his_ GUARDED_BY(mutex_);
  std::multiset<double> rem_los_ GUARDED_BY(mutex_);
  /// Dense running per-group aggregates (a borrowed pool array, so a
  /// group with count 0 is untouched) and the touched codes in
  /// first-touch order.
  std::vector<AggState> groups_ GUARDED_BY(mutex_);
  std::vector<uint32_t> touched_ GUARDED_BY(mutex_);
  /// Foreign-group extremum tracker over the refutation-relevant
  /// running statistic (max under desc, min under asc): s.max / s.min /
  /// s.sum / s.count by aggregate kind. For MAX-desc, MIN-asc and
  /// COUNT-desc the statistic is monotone per group, so the tracker
  /// equals the true current extremum and the O(1) test is exact; for
  /// the rest it is a stale-but-conservative bound that only ever
  /// over-triggers VerifyForeignLocked, never under. AVG tracks
  /// nothing: a foreign average is unbounded until the scan's last
  /// chunk, where aborting saves nothing.
  double foreign_stat_ GUARDED_BY(mutex_);

  // relaxed: see refuted().
  std::atomic<bool> refuted_{false};
};

}  // namespace paleo

#endif  // PALEO_ENGINE_THRESHOLD_MONITOR_H_
