// Configuration of the PALEO pipeline.
//
// Thread-safety: a plain value type. Treat as immutable once handed to
// Run(); concurrent const access is safe.

#ifndef PALEO_PALEO_OPTIONS_H_
#define PALEO_PALEO_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/aggregate.h"

namespace paleo {

/// \brief How candidate queries are validated against R.
enum class ValidationStrategy : int {
  /// Execute candidates in descending suitability order (Section 6.3).
  kRanked = 0,
  /// Result-driven validation with skipping (Algorithm 3, Section 7).
  kSmart = 1,
};

/// \brief How a candidate query's output is accepted as matching L.
enum class MatchMode : int {
  /// Instance equivalence: identical entities, order, and values.
  kExact = 0,
  /// Partial match (Section 3.3): rank-distance and value-distance
  /// thresholds.
  kPartial = 1,
};

/// \brief All tuning knobs of the PALEO pipeline, with the paper's
/// defaults.
struct PaleoOptions {
  // ---- Candidate predicate mining (Section 4) ----
  /// Largest conjunction size mined. The paper's workloads use
  /// |P| <= 3; mining is downward-closed so this is a safety cap, not a
  /// correctness knob.
  int max_predicate_size = 3;
  /// Fraction of the input list's entities a predicate must cover to
  /// qualify as a candidate. 1.0 with a complete R'; relaxed under
  /// sampling (Section 6.4).
  double coverage_ratio = 1.0;
  /// Also offer the empty conjunction (no WHERE clause) as a candidate
  /// predicate, so lists generated without any filter are recoverable.
  /// The paper's algorithm starts at |P| = 1 and never considers it;
  /// the bench harness switches this off to match the paper's counts.
  bool include_empty_predicate = true;
  /// Extension beyond the paper (its predicates are equality-only):
  /// also mine one BETWEEN atom per numeric dimension column — the
  /// tightest interval whose rows cover the required entities — and
  /// let it conjoin with equality atoms in the apriori levels. Enables
  /// recovering queries like "d_year BETWEEN 1993 AND 1995".
  bool mine_range_predicates = false;

  // ---- Ranking criteria identification (Section 5) ----
  /// Fraction of measure columns kept as candidates by the histogram
  /// heuristic ("top 30% of the columns", Section 5.2).
  double histogram_keep_fraction = 0.3;
  /// Aggregates searched for single-column ranking criteria, in the
  /// Figure 4 pre-order.
  std::vector<AggFn> single_column_aggs = {AggFn::kMax, AggFn::kAvg,
                                           AggFn::kSum, AggFn::kNone};
  /// Two-column ranking criteria: sum(A + B) and sum(A * B).
  bool enable_sum_of_two = true;
  bool enable_product_of_two = true;
  /// Extension beyond the paper: also search min/count aggregates.
  bool enable_min_count = false;
  /// Under sampling (scored mode), keep only this many best-distance
  /// criteria per tuple set. Without a cap every group carries every
  /// criterion (hundreds), flooding validation with near-duplicate
  /// candidates; the paper's Table 7 candidate counts (~130 for max(A))
  /// imply a strong per-group selection. 0 = unlimited.
  int max_criteria_per_group = 16;

  // ---- Suitability model and validation (Sections 6, 7) ----
  ValidationStrategy validation_strategy = ValidationStrategy::kSmart;
  MatchMode match_mode = MatchMode::kExact;
  /// Partial-match acceptance thresholds (used when match_mode is
  /// kPartial): minimum entity Jaccard similarity and maximum
  /// normalized value distance.
  double partial_min_entity_jaccard = 0.6;
  double partial_max_value_distance = 0.2;
  /// Stop at the first valid query (the paper's headline metric) or
  /// enumerate all valid queries.
  bool stop_at_first_valid = true;
  /// Estimate the false-positive model's per-tuple match probability
  /// from the predicate's observed match rate in the sample (default)
  /// instead of the paper's prod 1/|Ai| uniformity assumption, which
  /// collapses under correlated tuples (see ProbModel).
  bool use_observed_match_rate = true;

  // ---- Resource governance (beyond the paper) ----
  /// Wall-clock deadline for one Paleo::Run call, in
  /// milliseconds; 0 = unlimited, the paper's behaviour (results are
  /// then bit-for-bit identical to an ungoverned run). On expiry the
  /// run winds down gracefully instead of erroring: the report keeps
  /// every query validated so far, termination is kDeadline, and the
  /// best candidates that never got executed are surfaced as
  /// near_misses.
  int64_t deadline_ms = 0;
  /// The run's one cap on candidate-query executions, counted across
  /// the main and the deepening validation; 0 = unlimited. Hitting it
  /// is reported as TerminationReason::kExecutionBudget with near
  /// misses. A RunRequest::budget cap (RunBudget::set_max_executions)
  /// is the same cap; the tighter one wins.
  int64_t max_validation_executions = 0;

  /// Validation window: with a ThreadPool (RunRequest::pool), up to
  /// this many candidate executions run ahead of the commit point,
  /// results commit in suitability-rank order, and the first validated
  /// query cancels outstanding lower-rank siblings. <= 1, a missing
  /// pool, or fewer than two candidates gives a window of one: each
  /// candidate executes on the calling thread at its commit. The
  /// committed outcome (valid queries, executions, skip events,
  /// passes) is the same at any window; speculative_executions and
  /// timings are not.
  int num_threads = 1;

  /// Morsel-parallel full scans: one candidate's table scan decomposes
  /// into chunk-granular morsels (storage/table_view.h) claimed by up
  /// to this many workers of the run's ThreadPool. <= 1, or a missing
  /// pool, keeps each scan on its calling thread. Results are
  /// byte-identical at any setting (rank-order merge of per-chunk
  /// partials); composes with num_threads — validation workers and
  /// their scan morsels share one pool via work-stealing, so
  /// num_threads * scan_threads can exceed the pool size safely.
  int scan_threads = 1;
  /// Re-chunk the base table to this many rows per chunk (rounded down
  /// to a multiple of 64) when building catalog snapshots; 0 keeps the
  /// table's existing layout (Table::kDefaultChunkRows for tables built
  /// through AppendRows). Smaller chunks sharpen zone-map skipping and
  /// morsel granularity at the cost of per-chunk overhead.
  size_t chunk_rows = 0;
  /// Byte budget of the per-run AtomSelectionCache sharing per-atom
  /// selection bitmaps across candidate executions (LRU-evicted past
  /// the budget). 0 disables the cache; results are identical either
  /// way.
  size_t atom_cache_bytes = static_cast<size_t>(32) << 20;

  /// Threshold-pruned validation (engine/threshold_monitor.h): abort a
  /// candidate execution mid-scan the instant its running per-group
  /// bounds prove the result cannot equal L. Sound — a candidate the
  /// full execution would accept is never refuted — so the set of
  /// validated queries is identical on or off (asserted by
  /// tests/threshold_validation_test.cc); refuted executions still
  /// count against every execution budget. Applies to exact-match
  /// validation over multi-chunk tables; partial-match runs ignore it
  /// (a pruned scan has no result list to score). Disable for ablation
  /// or to reproduce the paper's full-execution cost profile.
  bool threshold_pruning = true;

  /// Build secondary indexes on R's dimension columns and answer
  /// candidate-query executions by posting-list intersection instead
  /// of full scans. Results are identical; validation wall-clock drops
  /// by orders of magnitude for selective predicates. Disable to
  /// reproduce the paper's scan-based validation cost profile
  /// (Figure 7).
  bool use_dimension_index = true;

  /// Relative tolerance for value comparisons.
  double rel_eps = 1e-9;

  /// Seed for the histogram sampling inside ranking identification.
  uint64_t seed = 4242;
};

/// The paper's coverage-ratio schedule for uniform per-entity samples
/// (Section 8.1): 0.5 at 5%, 0.6 at 10%, 0.7 at 20%, 0.8 at 30%,
/// 1.0 at 100%; linear interpolation in between.
double CoverageRatioForSample(double sample_fraction);

}  // namespace paleo

#endif  // PALEO_PALEO_OPTIONS_H_
