#include "paleo/pipeline_metrics.h"

#include "paleo/paleo.h"

namespace paleo {

void ExportRunMetrics(obs::MetricsRegistry* registry, double run_ms,
                      const ReverseEngineerReport* report) {
  if (registry == nullptr) return;
  registry
      ->FindOrCreateCounter("paleo_runs_total",
                            "Reverse-engineering runs, failed ones included.")
      ->Add();
  registry
      ->FindOrCreateHistogram("paleo_run_ms",
                              "End-to-end run latency in milliseconds.")
      ->Observe(run_ms);
  if (report == nullptr) return;
  const ReverseEngineerReport& r = *report;

  registry
      ->FindOrCreateCounter("paleo_runs_found_total",
                            "Runs that validated at least one query.")
      ->Add(r.found() ? 1 : 0);
  const char* step_help = "Per-step pipeline latency in milliseconds.";
  registry
      ->FindOrCreateHistogram("paleo_step_ms", step_help,
                              "step=\"find_predicates\"")
      ->Observe(r.timings.find_predicates_ms);
  registry
      ->FindOrCreateHistogram("paleo_step_ms", step_help,
                              "step=\"find_ranking\"")
      ->Observe(r.timings.find_ranking_ms);
  registry
      ->FindOrCreateHistogram("paleo_step_ms", step_help,
                              "step=\"validation\"")
      ->Observe(r.timings.validation_ms);
  registry
      ->FindOrCreateCounter("paleo_candidate_predicates_total",
                            "Candidate predicates mined (Algorithm 1).")
      ->Add(r.candidate_predicates);
  registry
      ->FindOrCreateCounter("paleo_candidate_queries_total",
                            "Candidate queries assembled.")
      ->Add(r.candidate_queries);
  const char* outcome_help = "Validation candidates, by outcome.";
  registry
      ->FindOrCreateCounter("paleo_validation_candidates_total", outcome_help,
                            "outcome=\"executed\"")
      ->Add(r.executed_queries);
  registry
      ->FindOrCreateCounter("paleo_validation_candidates_total", outcome_help,
                            "outcome=\"speculative\"")
      ->Add(r.speculative_executions);
  registry
      ->FindOrCreateCounter("paleo_validation_candidates_total", outcome_help,
                            "outcome=\"skipped\"")
      ->Add(r.skip_events);
  registry
      ->FindOrCreateCounter(
          "paleo_validation_passes_total",
          "Passes over the candidate list (Algorithm 3 rounds).")
      ->Add(r.validation_passes);
  registry
      ->FindOrCreateCounter(
          "paleo_near_misses_total",
          "Unvalidated best-guess candidates surfaced on budget exhaustion.")
      ->Add(static_cast<int64_t>(r.near_misses.size()));

  const Executor::Stats& exec = r.executor_stats;
  registry
      ->FindOrCreateCounter("paleo_executor_queries_total",
                            "Queries executed by the engine.")
      ->Add(exec.queries_executed);
  registry
      ->FindOrCreateCounter(
          "paleo_executor_rows_scanned_total",
          "Rows visited by the executor's scan and group-by loops.")
      ->Add(exec.rows_scanned);
  registry
      ->FindOrCreateCounter(
          "paleo_executor_index_assisted_total",
          "Executions answered from dimension-index postings.")
      ->Add(exec.index_assisted);
  registry
      ->FindOrCreateCounter(
          "paleo_chunks_skipped_total",
          "Chunks skipped by zone-map refutation (no row can match).")
      ->Add(exec.chunks_skipped);
  registry
      ->FindOrCreateCounter(
          "paleo_morsels_total",
          "Chunk-granular scan morsels processed (skipped chunks excluded).")
      ->Add(exec.morsels);
  registry
      ->FindOrCreateCounter("paleo_cache_hits_total",
                            "Atom-selection cache hits.")
      ->Add(r.cache_stats.hits);
  registry
      ->FindOrCreateCounter("paleo_cache_misses_total",
                            "Atom-selection cache misses.")
      ->Add(r.cache_stats.misses);
  registry
      ->FindOrCreateCounter(
          "paleo_cache_evictions_total",
          "Atom-selection cache LRU evictions (byte budget exceeded).")
      ->Add(r.cache_stats.evictions);
  registry
      ->FindOrCreateCounter(
          "paleo_validations_refuted_early_total",
          "Candidate executions aborted mid-scan because threshold bounds "
          "proved the result cannot equal the target list.")
      ->Add(r.executions_aborted_early);
  registry
      ->FindOrCreateCounter(
          "paleo_rows_saved_by_threshold_total",
          "Rows never scanned thanks to threshold-refuted executions.")
      ->Add(exec.rows_saved);
  registry
      ->FindOrCreateCounter(
          "paleo_degraded_runs_total",
          "Runs whose atom cache shrank under memory pressure instead "
          "of failing.")
      ->Add(r.degraded_events > 0 ? 1 : 0);
}

}  // namespace paleo
