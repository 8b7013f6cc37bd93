// Runs one workload: set-up (repeated, one instance alive at a time),
// one untimed warm-up pass, then a fixed number of timed whole passes
// over the seeded list order. Every list is visited once per pass and
// the only budget is an execution cap, so each run does the same work
// however fast the code runs, and every count repeats exactly (up to
// which snapshot each serve-ingest list runs on).
//
// Untraced passes attach no metrics registry and collect no trace. In a
// traced run, every timed pass is followed by a traced one: it attaches
// a registry and collects the library's span trees, and the pair gives
// the tracing overhead.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/query.h"
#include "obs/trace.h"
#include "paleo/paleo.h"
#include "storage/table.h"
#include "workloads.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 0;
  /// Timed passes (each followed by a traced one in a traced run).
  int passes = 1;
  /// The span log of a traced run; null in an untraced run. Each "list"
  /// span carries the list id as its "list" attribute.
  paleo::obs::Trace* spans = nullptr;
};

/// One list visit.
struct Visit {
  size_t list = 0;  // index into the run's lists
  double ms = 0.0;  // the Run call, or Submit -> Wait
  /// Returned a report (not an error, not shed).
  bool ok = false;
  /// At least one query reported and every one passed the output check.
  bool found = false;
  /// Errored, was shed, failed the output check, or (where every list
  /// must be found) found nothing.
  bool failed = false;
  std::vector<paleo::TopKQuery> reported;
  int64_t executions = 0;
  int64_t aborted_early = 0;
  int64_t candidate_predicates = 0;
  int64_t candidate_queries = 0;
  int64_t tuple_set_evaluations = 0;
  int64_t skip_events = 0;
  int64_t rprime_rows = 0;
  int64_t degraded_events = 0;
  paleo::StepTimings timings;
  bool deepen = false;  // traced only
  // serve-ingest only:
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
};

/// Phase times of one ingest batch, from its span tree.
struct IngestSplit {
  double copy_ms = 0.0;
  double append_ms = 0.0;
  double stats_ms = 0.0;
  double index_ms = 0.0;
  double publish_ms = 0.0;
};

/// One whole pass over the list order.
struct Pass {
  bool traced = false;
  double wall_ms = 0.0;
  std::vector<Visit> visits;
  /// Registry counter deltas over the pass (traced passes only).
  std::map<std::string, int64_t> counters;
  /// serve-ingest: Ingestor::Append latencies, and their span splits in
  /// traced passes.
  std::vector<double> append_ms;
  std::vector<IngestSplit> ingest;
  int64_t full_rebuilds = 0;
  int64_t shed = 0;
  int64_t retries = 0;
};

struct SetupTimes {
  std::vector<double> setup_s;  // untraced runs
  std::vector<double> entity_build_ms;
  std::vector<double> stats_build_ms;
  std::vector<double> dimension_build_ms;
  std::vector<double> snapshot_build_ms;
};

struct RunResult {
  SetupTimes setup;
  std::vector<Pass> passes;  // timed passes, in run order
  int64_t warmup_failures = 0;
  // serve-ingest only:
  int64_t snapshots_live_max = 0;
  size_t base_rows = 0;
  size_t final_rows = 0;
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

RunResult RunPaleoWorkload(const WorkloadSpec& spec, const paleo::Table& table,
                           std::vector<BenchList>* lists,
                           const std::vector<size_t>& order,
                           const RunConfig& config);

RunResult RunServeIngest(const WorkloadSpec& spec, const paleo::Table& table,
                         const std::vector<BenchList>& lists,
                         const std::vector<size_t>& order,
                         const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
