// The one export point from a reverse-engineering run to a metrics
// registry.
//
// Every pipeline count lives in exactly one tally — the executor's
// counters, the atom cache's, the validator's ValidationOutcome, or a
// field Paleo::Run fills — and reaches the report once, when the run
// ends. ExportRunMetrics then writes the report's values to the
// registry in one call, so the report and the registry cannot
// disagree. A failed run has no report: it exports paleo_runs_total
// and paleo_run_ms only.
//
// Thread-safety: ExportRunMetrics is safe to call from any number of
// threads on one registry (registration is internally synchronized,
// instrument updates are relaxed atomics).
//
// Metric naming scheme (documented in DESIGN.md §9), with what each
// series adds per run (`r` is the ReverseEngineerReport):
//   paleo_runs_total                      1 per run, failed runs too
//   paleo_run_ms                          the run's latency, failed runs too
//   paleo_runs_found_total                1 when r.found()
//   paleo_step_ms{step=...}               one observation per step:
//                                         r.timings.{find_predicates,
//                                         find_ranking, validation}_ms
//   paleo_candidate_predicates_total      r.candidate_predicates
//   paleo_candidate_queries_total         r.candidate_queries
//   paleo_validation_candidates_total{outcome=executed|speculative|skipped}
//                                         r.executed_queries,
//                                         r.speculative_executions,
//                                         r.skip_events
//   paleo_validation_passes_total         r.validation_passes
//   paleo_near_misses_total               r.near_misses.size()
//   paleo_executor_queries_total          r.executor_stats.queries_executed
//   paleo_executor_rows_scanned_total     r.executor_stats.rows_scanned
//   paleo_executor_index_assisted_total   r.executor_stats.index_assisted
//   paleo_chunks_skipped_total            r.executor_stats.chunks_skipped
//   paleo_morsels_total                   r.executor_stats.morsels
//   paleo_cache_hits_total                r.cache_stats.hits
//   paleo_cache_misses_total              r.cache_stats.misses
//   paleo_cache_evictions_total           r.cache_stats.evictions
//   paleo_validations_refuted_early_total r.executions_aborted_early
//   paleo_rows_saved_by_threshold_total   r.executor_stats.rows_saved
//   paleo_degraded_runs_total             1 when r.degraded_events > 0
//
// Suffix conventions (enforced by tools/paleo_lint.py): *_total is a
// Counter, *_ms is a Histogram, *_bytes is a Gauge.

#ifndef PALEO_PALEO_PIPELINE_METRICS_H_
#define PALEO_PALEO_PIPELINE_METRICS_H_

#include "obs/metrics.h"

namespace paleo {

struct ReverseEngineerReport;

/// Writes one run to `registry` (a no-op when it is null): `run_ms`
/// always, and the report's counts when `report` is non-null — pass
/// null for a run that failed.
void ExportRunMetrics(obs::MetricsRegistry* registry, double run_ms,
                      const ReverseEngineerReport* report);

}  // namespace paleo

#endif  // PALEO_PALEO_PIPELINE_METRICS_H_
