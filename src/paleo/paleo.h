// PALEO: reverse engineering top-k database queries.
//
// This is the library's main entry point. Given a base relation R and
// a top-k input list L, PALEO finds SQL queries of the form
//
//   SELECT e, agg(expr) FROM R WHERE P1 AND P2 AND ...
//   GROUP BY e ORDER BY agg(expr) DESC LIMIT k
//
// whose result over R is (exactly or approximately) L.
//
// Typical use:
//
//   Paleo paleo(&table, PaleoOptions{});
//   RunRequest request;
//   request.input = &input_list;
//   auto report = paleo.Run(request);
//   if (report.ok() && report->found()) {
//     std::cout << report->valid[0].query.ToSql(table.schema());
//   }
//
// Construction builds the entity index and the statistics
// catalog once; Run(const RunRequest&) executes the three-step
// pipeline of Figure 2 (find predicates -> find ranking criteria ->
// validate candidate queries) for one input list. The RunRequest
// carries everything that varies per request — the input, an optional
// sample spec (Section 6.4), budget, thread pool, per-request options
// override, and observability sinks (a MetricsRegistry and a trace
// switch) — so one entry point serves sequential, sampled, and
// concurrent callers alike.

#ifndef PALEO_PALEO_PALEO_H_
#define PALEO_PALEO_PALEO_H_

#include <memory>
#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "engine/topk_list.h"
#include "index/dimension_index.h"
#include "index/entity_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "paleo/candidate_query.h"
#include "paleo/options.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"
#include "paleo/sampler.h"
#include "paleo/validator.h"
#include "stats/catalog.h"
#include "storage/table.h"

namespace paleo {

class ThreadPool;

/// \brief Wall-clock cost of the three pipeline steps (Figure 7).
struct StepTimings {
  double find_predicates_ms = 0.0;
  double find_ranking_ms = 0.0;
  double validation_ms = 0.0;
  double total_ms() const {
    return find_predicates_ms + find_ranking_ms + validation_ms;
  }
};

/// \brief Full account of one reverse-engineering run.
struct ReverseEngineerReport {
  /// Valid queries in discovery order (first entry is the paper's
  /// "first valid query").
  std::vector<ValidQuery> valid;
  bool found() const { return !valid.empty(); }

  /// Candidate counts per pipeline stage.
  int64_t candidate_predicates = 0;
  std::vector<int> predicates_by_size;  // index = |P|
  int64_t tuple_sets = 0;
  int64_t candidate_queries = 0;

  /// Validation effort. executed_queries counts committed executions
  /// and does not depend on the validation window;
  /// speculative_executions counts discarded look-ahead work (always 0
  /// with a window of one).
  int64_t executed_queries = 0;
  int64_t speculative_executions = 0;
  int64_t skip_events = 0;
  /// Passes over the candidate list (Algorithm 3 rounds; 1 per ranked
  /// validation of a non-empty list), summed over validation and
  /// progressive deepening.
  int64_t validation_passes = 0;
  /// Committed executions the threshold monitor refuted mid-scan (a
  /// subset of executed_queries; 0 with options.threshold_pruning off).
  /// A side observation only: the valid set is identical with pruning
  /// on or off.
  int64_t executions_aborted_early = 0;

  /// The run's executor and atom-cache counters, copied once when the
  /// run ends. Unlike executed_queries they include speculative
  /// executions; executor_stats.rows_saved holds the base-table rows
  /// that threshold refutation skipped.
  Executor::Stats executor_stats;
  AtomSelectionCache::Stats cache_stats;

  /// R' shape.
  int64_t rprime_rows = 0;
  size_t rprime_bytes = 0;

  StepTimings timings;
  RankingSearchInfo ranking_info;

  /// Why the run stopped. kCompleted means the pipeline ran to
  /// exhaustion (the only possible value without a RunBudget); any
  /// other value means the budget ran out and `valid` holds only what
  /// was confirmed before that.
  TerminationReason termination = TerminationReason::kCompleted;

  /// When the budget ran out mid-validation: the best candidates (in
  /// suitability order, capped) that never got executed against R.
  /// They are PALEO's ranked best guesses at the answer — unvalidated,
  /// but actionable.
  std::vector<CandidateQuery> near_misses;

  /// Graceful-degradation events observed during the run: the atom
  /// cache's memory-pressure shrinks (cache_stats.pressure_events). 0
  /// for a fully healthy run. Degraded runs produce byte-identical
  /// results — only reuse and wall-clock suffer.
  /// paleo_degraded_runs_total counts the runs where it is positive.
  int64_t degraded_events = 0;

  /// The scored candidate list (retained when
  /// RunRequest::keep_candidates is set).
  std::vector<CandidateQuery> candidates;

  /// The run's span tree (set when RunRequest::collect_trace; shared
  /// so the report stays copyable). Root span "run" with children
  /// "find_predicates" / "find_ranking" / "validate" (and "deepen"
  /// when the progressive-deepening pass ran); one "execute" span per
  /// committed candidate hangs under the validation spans, at any
  /// validation window, plus one marked "speculative" per discarded
  /// look-ahead result.
  std::shared_ptr<obs::Trace> trace;
};

/// \brief Everything that varies per reverse-engineering request.
///
/// All pointers are non-owning and must outlive the Run() call. Only
/// `input` is required; the zero-initialised remainder runs the paper's
/// pipeline over the full R' with the instance options.
struct RunRequest {
  /// The top-k list L to reverse engineer. Required.
  const TopKList* input = nullptr;

  /// Sample spec (Section 6.4): when `sample_rows` is set the pipeline
  /// runs on that sample of R's rows (sorted global row ids, e.g. from
  /// Sampler) with relaxed coverage — CoverageRatioForSample(
  /// sample_fraction) unless `coverage_ratio_override` > 0 — and the
  /// probabilistic suitability model (assume_complete = false).
  const std::vector<RowId>* sample_rows = nullptr;
  double sample_fraction = 1.0;
  double coverage_ratio_override = -1.0;

  /// Retain the scored candidate list in the report.
  bool keep_candidates = false;

  /// Caller-side resource limits layered on top of the options'
  /// deadline_ms / max_validation_executions knobs; the tighter limit
  /// wins. Budget exhaustion is not an error (see the report's
  /// `termination` / `near_misses`).
  const RunBudget* budget = nullptr;

  /// Enables parallel candidate validation when the effective options'
  /// num_threads > 1.
  ThreadPool* pool = nullptr;

  /// Replaces the instance options for this request — e.g. a
  /// per-request deadline_ms — while still using the indexes built at
  /// construction (a request cannot enable use_dimension_index if the
  /// instance was built without it). This is the only supported way to
  /// vary options per request; the instance options are immutable.
  const PaleoOptions* options_override = nullptr;

  /// Observability sinks. `metrics` (not owned) receives the paleo_*
  /// counters and histograms once, when the run ends: the report's
  /// counts for a successful run, paleo_runs_total and paleo_run_ms
  /// only for a failed one (see paleo/pipeline_metrics.h).
  /// `collect_trace` builds the report's span tree. Both default off.
  obs::MetricsRegistry* metrics = nullptr;
  bool collect_trace = false;
};

/// \brief The PALEO system bound to one base relation.
///
/// Thread safety: once built, everything the pipeline reads (table,
/// entity index, catalog, dimension index, the instance options) is
/// immutable, so any number of threads may call Run(const RunRequest&)
/// on one instance simultaneously: each call gets its own Executor and
/// leaves the instance untouched. This is the entry point the
/// DiscoveryService serves requests through.
class Paleo {
 public:
  /// `base` must outlive this object. Builds the entity index and the
  /// statistics catalog (the "computed upfront" structures).
  Paleo(const Table* base, PaleoOptions options);

  /// Binds to PREBUILT upfront structures instead of building them —
  /// the table catalog's ingestion path, where index and catalog are
  /// extended incrementally from the previous snapshot. Behaves
  /// exactly like the building constructor given equal structures.
  /// `base` must outlive this object; `dimension_index` may be null
  /// only when options.use_dimension_index is off.
  Paleo(const Table* base, PaleoOptions options, EntityIndex index,
        StatsCatalog catalog,
        std::unique_ptr<DimensionIndex> dimension_index);

  const Table& base() const { return *base_; }
  const PaleoOptions& options() const { return options_; }
  const EntityIndex& index() const { return index_; }
  const StatsCatalog& catalog() const { return catalog_; }
  /// Null unless options().use_dimension_index.
  const DimensionIndex* dimension_index() const {
    return dimension_index_.get();
  }

  /// The entry point: reverse engineers `*request.input` against the
  /// full R' (Sections 3-5, 7) or the request's sample (Section 6.4),
  /// under the request's budget/options/observability. Thread-safe.
  StatusOr<ReverseEngineerReport> Run(const RunRequest& request) const;

 private:
  StatusOr<ReverseEngineerReport> RunImpl(const RunRequest& request,
                                          const PaleoOptions& options,
                                          obs::Trace* trace) const;

  const Table* base_;
  const PaleoOptions options_;
  EntityIndex index_;
  StatsCatalog catalog_;
  // Built only when options_.use_dimension_index.
  std::unique_ptr<DimensionIndex> dimension_index_;
};

}  // namespace paleo

#endif  // PALEO_PALEO_PALEO_H_
