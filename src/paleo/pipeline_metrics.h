// Resolved metric handles for one reverse-engineering run.
//
// The pipeline does not talk to the MetricsRegistry directly: Bind()
// resolves every instrument once per run (a handful of mutex-guarded
// name lookups, idempotent, shared across runs on the same registry)
// and the stages report events through the nullable handles — exactly
// one branch per event when no registry is attached (all handles null),
// a relaxed atomic op when one is.
//
// Thread-safety: Bind() is safe to call from any thread (the registry
// lookups are internally synchronized); the resolved handles point at
// atomic instruments, so reporting through a bound struct is safe from
// multiple threads.
//
// Metric naming scheme (documented in DESIGN.md §9):
//   paleo_runs_total                      runs started, by outcome attrs
//   paleo_runs_found_total                runs that validated >= 1 query
//   paleo_run_ms                          end-to-end run latency
//   paleo_step_ms{step=...}               per-step latency (Figure 7)
//   paleo_candidate_predicates_total      mined candidate predicates
//   paleo_candidate_queries_total         assembled candidate queries
//   paleo_validation_candidates_total{outcome=executed|speculative|skipped}
//   paleo_validation_passes_total         validation passes (Alg. 3 rounds)
//   paleo_near_misses_total               unvalidated best guesses surfaced
//   paleo_executor_queries_total          candidate-query executions
//   paleo_executor_rows_scanned_total     rows visited by the executor
//   paleo_executor_index_assisted_total   executions answered from postings
//   paleo_chunks_skipped_total            chunks refuted by zone maps
//   paleo_morsels_total                   chunk morsels actually scanned
//   paleo_scan_parallelism                morsel workers per full scan
//   paleo_cache_hits_total                atom-selection cache hits
//   paleo_cache_misses_total              atom-selection cache misses
//   paleo_cache_evictions_total           LRU evictions (byte budget)
//   paleo_cache_resident_bytes            bitmap bytes currently retained
//   paleo_validations_refuted_early_total executions aborted mid-scan by
//                                         threshold refutation
//   paleo_rows_saved_by_threshold_total   rows never scanned thanks to
//                                         threshold refutation
//   paleo_degraded_runs_total             runs that degraded gracefully
//                                         (scalar fallback / cache shrink)
//
// Suffix conventions (enforced by tools/paleo_lint.py): *_total is a
// Counter, *_ms is a Histogram, *_bytes is a Gauge.

#ifndef PALEO_PALEO_PIPELINE_METRICS_H_
#define PALEO_PALEO_PIPELINE_METRICS_H_

#include "obs/metrics.h"

namespace paleo {

/// \brief All-null by default; Bind() fills it from a registry.
struct PipelineMetrics {
  obs::Counter* runs_total = nullptr;
  obs::Counter* runs_found = nullptr;
  obs::Histogram* run_ms = nullptr;
  obs::Histogram* step_find_predicates_ms = nullptr;
  obs::Histogram* step_find_ranking_ms = nullptr;
  obs::Histogram* step_validation_ms = nullptr;
  obs::Counter* candidate_predicates = nullptr;
  obs::Counter* candidate_queries = nullptr;
  obs::Counter* candidates_executed = nullptr;
  obs::Counter* candidates_speculative = nullptr;
  obs::Counter* candidates_skipped = nullptr;
  obs::Counter* validation_passes = nullptr;
  obs::Counter* near_misses = nullptr;
  obs::Counter* executor_queries = nullptr;
  obs::Counter* executor_rows_scanned = nullptr;
  obs::Counter* executor_index_assisted = nullptr;
  obs::Counter* chunks_skipped = nullptr;
  obs::Counter* morsels = nullptr;
  obs::Histogram* scan_parallelism = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* cache_evictions = nullptr;
  obs::Gauge* cache_resident_bytes = nullptr;
  obs::Counter* validations_refuted_early = nullptr;
  obs::Counter* rows_saved_by_threshold = nullptr;
  obs::Counter* degraded_runs = nullptr;

  /// Resolves every handle against `registry`; a null registry returns
  /// the all-null (disabled) bundle.
  static PipelineMetrics Bind(obs::MetricsRegistry* registry);
};

}  // namespace paleo

#endif  // PALEO_PALEO_PIPELINE_METRICS_H_
