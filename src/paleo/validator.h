// Candidate query validation against the base relation (Sections 3.2
// and 7).
//
// Validate runs one scheduler for both of the paper's step-3 schedules.
// Ranked validation (Section 6.3) executes candidates in suitability
// order until a valid query appears. Smart validation is the paper's
// Algorithm 3: it additionally learns from the first execution whose
// entity overlap with L crosses the Jaccard threshold ("first match
// query" Qfm) and skips candidates that share no predicate atoms with
// Qfm — and, once the ranking criterion is confirmed by value overlap,
// candidates with a different criterion. Skipped candidates are retried
// in later passes, so no valid query is ever lost.
//
// The scheduler COMMITS results strictly in suitability-rank order. With
// a ThreadPool, options.num_threads > 1 and at least two candidates, it
// launches up to max(2, num_threads) executions ahead of the commit
// point; otherwise its window is one and each candidate executes on the
// calling thread when its turn comes. The commit replays the paper's
// semantics bit-for-bit at any window: Qfm is the first committed result
// crossing the Jaccard threshold, a speculative execution the skip rule
// rejects at commit is discarded and retried next pass, and the first
// validated query cancels outstanding lower-rank siblings through a
// CancellationToken wired into their executions. The valid set,
// execution count, skip events, and pass count therefore do not depend
// on the window; only wall clock and speculative_executions do.
//
// Validation is resource-governed: with a RunBudget it polls the
// deadline, cancellation and execution cap before every commit (and the
// executor polls mid-scan), and on exhaustion winds down gracefully —
// the outcome keeps every query validated so far, records the
// termination reason, and lists the candidates that never got executed
// so the caller can surface them as near misses.

#ifndef PALEO_PALEO_VALIDATOR_H_
#define PALEO_PALEO_VALIDATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "paleo/candidate_query.h"
#include "paleo/options.h"

namespace paleo {

class AtomSelectionCache;
class ThreadPool;
class ThresholdMonitor;

/// \brief One validated (accepted) query.
struct ValidQuery {
  TopKQuery query;
  /// Executions performed up to and including this query's validation.
  int64_t executions_at_discovery = 0;
};

/// \brief Outcome of a validation run.
struct ValidationOutcome {
  std::vector<ValidQuery> valid;
  int64_t executions = 0;
  /// Candidates skipped at least once by the smart strategy.
  int64_t skip_events = 0;
  /// Passes over the candidate list: 1 for ranked, one more per retry
  /// of skipped candidates for smart, and 0 for an empty list under
  /// either strategy.
  int passes = 0;
  /// kCompleted when every candidate was considered; otherwise the
  /// RunBudget ran out and `unvalidated` lists the indices (into the
  /// input candidate vector, ascending = suitability order) that were
  /// never executed.
  TerminationReason termination = TerminationReason::kCompleted;
  std::vector<size_t> unvalidated;
  /// Executions launched ahead of the commit point whose results were
  /// discarded because the commit skipped (or never reached) them; 0
  /// with a window of one. Not counted in `executions`.
  int64_t speculative_executions = 0;
  /// Executions the threshold monitor aborted mid-scan (counted in
  /// `executions` too: a refuted candidate is an executed-and-rejected
  /// candidate that happened to stop early).
  int64_t refuted_early = 0;
  bool found() const { return !valid.empty(); }
};

/// \brief Executes candidate queries against R and accepts matches.
class Validator {
 public:
  /// `pool` (optional, not owned) lets validation launch executions
  /// ahead of the commit point when options.num_threads > 1; the
  /// executor also draws scan morsels from it (options.scan_threads).
  ///
  /// `trace` (null trace = off) records one "execute" span per
  /// committed or discarded execution, from the single-threaded commit
  /// loop only (a Trace is not thread-safe, so pool workers never touch
  /// it); a span whose result was discarded is marked "speculative".
  /// `cache` (optional, not owned, internally synchronized) is the
  /// run's shared AtomSelectionCache: every candidate execution —
  /// on the calling thread or on pool workers — passes it to the
  /// executor so candidates sharing predicate atoms reuse each other's
  /// selection bitmaps instead of rescanning R.
  Validator(const Table& base, Executor* executor,
            const PaleoOptions& options, ThreadPool* pool = nullptr,
            obs::TraceContext trace = {}, AtomSelectionCache* cache = nullptr)
      : base_(base),
        executor_(executor),
        options_(options),
        pool_(pool),
        trace_(trace),
        cache_(cache) {}

  /// Exact instance-equivalence or partial-match acceptance, per
  /// options.match_mode.
  bool Accepts(const TopKList& result, const TopKList& input) const;

  /// Validates `candidates` (in suitability order) under
  /// options.validation_strategy. `budget` (nullable) caps the run;
  /// `prior_executions` is the run's execution count before this call,
  /// charged against the budget's execution cap.
  StatusOr<ValidationOutcome> Validate(
      const std::vector<CandidateQuery>& candidates, const TopKList& input,
      const RunBudget* budget = nullptr,
      int64_t prior_executions = 0) const;

 private:
  /// The run's ThresholdMonitor (engine/threshold_monitor.h), or
  /// nullptr when pruning is off, the match mode is not exact (a
  /// refuted scan has no result list to partial-score), there are no
  /// candidates, or the monitor deactivated itself (unsorted /
  /// unresolvable input). All candidates of one run share one sort
  /// order (BuildCandidateQueries stamps it), so one monitor serves
  /// every execution; the executor re-checks applicability per query.
  std::unique_ptr<ThresholdMonitor> MakeMonitor(
      const std::vector<CandidateQuery>& candidates,
      const TopKList& input) const;

  const Table& base_;
  Executor* executor_;
  const PaleoOptions& options_;
  ThreadPool* pool_ = nullptr;
  obs::TraceContext trace_;
  AtomSelectionCache* cache_ = nullptr;
};

}  // namespace paleo

#endif  // PALEO_PALEO_VALIDATOR_H_
