#include "paleo/validator.h"

#include <algorithm>
#include <future>
#include <memory>
#include <numeric>
#include <utility>

#include "common/fault_points.h"
#include "common/thread_pool.h"
#include "engine/threshold_monitor.h"
#include "stats/distance.h"

namespace paleo {

namespace {

/// Maps an exhausted budget to its reason; used after the budget check
/// or the executor reported interruption. Falls back to kCancelled
/// when the budget itself no longer reports exhaustion (only possible
/// with an externally reset token).
TerminationReason ExhaustionReason(const RunBudget* budget,
                                   int64_t executions_used) {
  if (budget == nullptr) return TerminationReason::kCancelled;
  TerminationReason reason = budget->Check(executions_used);
  return reason == TerminationReason::kCompleted
             ? TerminationReason::kCancelled
             : reason;
}

}  // namespace

std::unique_ptr<ThresholdMonitor> Validator::MakeMonitor(
    const std::vector<CandidateQuery>& candidates,
    const TopKList& input) const {
  if (!options_.threshold_pruning ||
      options_.match_mode != MatchMode::kExact || candidates.empty()) {
    return nullptr;
  }
  auto monitor = std::make_unique<ThresholdMonitor>(
      base_, input, candidates.front().query.order, options_.rel_eps);
  if (!monitor->active()) return nullptr;
  return monitor;
}

bool Validator::Accepts(const TopKList& result, const TopKList& input) const {
  if (options_.match_mode == MatchMode::kExact) {
    return result.InstanceEquals(input, options_.rel_eps);
  }
  // Partial match (Section 3.3): entity-set similarity plus bounded
  // value distance.
  if (result.empty()) return false;
  double entity_sim = result.EntityJaccard(input);
  if (entity_sim < options_.partial_min_entity_jaccard) return false;
  std::vector<double> rv = result.Values();
  std::vector<double> iv = input.Values();
  double value_dist = NormalizedL1(rv, iv);
  return value_dist <= options_.partial_max_value_distance;
}

StatusOr<ValidationOutcome> Validator::RankedValidation(
    const std::vector<CandidateQuery>& candidates, const TopKList& input,
    const RunBudget* budget, int64_t prior_executions) const {
  ValidationOutcome outcome;
  outcome.passes = 1;
  const std::unique_ptr<ThresholdMonitor> monitor =
      MakeMonitor(candidates, input);
  const ExecContext exec_ctx{.budget = budget,
                             .cache = cache_,
                             .pool = pool_,
                             .scan_threads = options_.scan_threads,
                             .vectorized = options_.vectorized_execution,
                             .threshold = monitor.get()};
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (options_.max_query_executions > 0 &&
        outcome.executions >= options_.max_query_executions) {
      break;
    }
    if (outcome.termination == TerminationReason::kCompleted &&
        budget != nullptr &&
        budget->Exhausted(prior_executions + outcome.executions)) {
      outcome.termination =
          ExhaustionReason(budget, prior_executions + outcome.executions);
    }
    if (outcome.termination != TerminationReason::kCompleted) {
      // Budget gone: record the rest as unvalidated instead of
      // executing them.
      outcome.unvalidated.push_back(i);
      continue;
    }
    obs::ScopedSpan span(trace_.trace, "execute", trace_.parent);
    auto result = executor_->Execute(base_, candidates[i].query, exec_ctx);
    if (!result.ok()) {
      if (result.status().IsQueryRefuted()) {
        // The threshold monitor proved mid-scan that this candidate
        // cannot reproduce L: an executed-and-rejected candidate that
        // stopped early. Counted as an execution so budgets and the
        // paper's execution metric are identical with pruning off.
        ++outcome.executions;
        ++outcome.refuted_early;
        span.AddAttr("candidate", static_cast<int64_t>(i));
        span.AddAttr("refuted_early", int64_t{1});
        continue;
      }
      if (result.status().IsCancelled()) {
        // The deadline passed (or the token tripped) mid-scan; the
        // partial execution does not count.
        outcome.termination = ExhaustionReason(
            budget, prior_executions + outcome.executions);
        outcome.unvalidated.push_back(i);
        span.AddAttr("interrupted", int64_t{1});
        continue;
      }
      return result.status();
    }
    ++outcome.executions;
    const bool accepted = Accepts(*result, input);
    span.AddAttr("candidate", static_cast<int64_t>(i));
    span.AddAttr("accepted", static_cast<int64_t>(accepted));
    if (accepted) {
      outcome.valid.push_back(
          ValidQuery{candidates[i].query, outcome.executions});
      if (options_.stop_at_first_valid) break;
    }
  }
  return outcome;
}

StatusOr<ValidationOutcome> Validator::SmartValidation(
    const std::vector<CandidateQuery>& candidates, const TopKList& input,
    const RunBudget* budget, int64_t prior_executions) const {
  ValidationOutcome outcome;
  const double tau = options_.smart_jaccard_threshold;

  // Work queue of candidate indices; skipped candidates form the queue
  // of the next pass (Algorithm 3's tail recursion, made iterative).
  std::vector<size_t> queue(candidates.size());
  for (size_t i = 0; i < queue.size(); ++i) queue[i] = i;

  auto budget_left = [&]() {
    return options_.max_query_executions <= 0 ||
           outcome.executions < options_.max_query_executions;
  };
  // Governed check: trips the outcome's termination once the RunBudget
  // is exhausted (checked before each execution; cheap otherwise).
  auto governed_left = [&]() {
    if (outcome.termination != TerminationReason::kCompleted) return false;
    if (budget != nullptr &&
        budget->Exhausted(prior_executions + outcome.executions)) {
      outcome.termination =
          ExhaustionReason(budget, prior_executions + outcome.executions);
      return false;
    }
    return true;
  };
  // Executes candidates[idx]; kStop means the run should wind down
  // (budget exhausted mid-scan). Errors propagate via `failure`.
  Status failure = Status::OK();
  // Phase 1 executions feed Qfm detection (EntityJaccard over the full
  // result list), so they run UNPRUNED; phase 2 results only need the
  // accept/reject verdict, so they carry the threshold monitor. The
  // execution schedule — and with it executions, skip_events, passes,
  // and the valid set — is therefore identical with pruning on or off.
  const std::unique_ptr<ThresholdMonitor> monitor =
      MakeMonitor(candidates, input);
  const ExecContext unpruned_ctx{
      .budget = budget,
      .cache = cache_,
      .pool = pool_,
      .scan_threads = options_.scan_threads,
      .vectorized = options_.vectorized_execution};
  ExecContext pruned_ctx = unpruned_ctx;
  pruned_ctx.threshold = monitor.get();
  enum class Exec { kOk, kRefuted, kStop };
  auto execute = [&](size_t idx, const ExecContext& exec_ctx,
                     TopKList* result) {
    obs::ScopedSpan span(trace_.trace, "execute", trace_.parent);
    span.AddAttr("candidate", static_cast<int64_t>(idx));
    auto executed = executor_->Execute(base_, candidates[idx].query, exec_ctx);
    if (!executed.ok()) {
      if (executed.status().IsQueryRefuted()) {
        // Executed-and-rejected, just cheaper: counts as an execution.
        ++outcome.executions;
        ++outcome.refuted_early;
        span.AddAttr("refuted_early", int64_t{1});
        return Exec::kRefuted;
      }
      if (executed.status().IsCancelled()) {
        outcome.termination = ExhaustionReason(
            budget, prior_executions + outcome.executions);
        span.AddAttr("interrupted", int64_t{1});
      } else {
        failure = executed.status();
      }
      return Exec::kStop;
    }
    ++outcome.executions;
    *result = std::move(executed).value();
    return Exec::kOk;
  };

  while (!queue.empty()) {
    ++outcome.passes;
    std::vector<size_t> skipped;
    const CandidateQuery* first_match = nullptr;
    bool ranking_confirmed = false;

    size_t pos = 0;
    // Phase 1: execute in order until some result's entities overlap L
    // beyond tau — that candidate becomes Qfm.
    for (; pos < queue.size() && budget_left() && governed_left(); ++pos) {
      const CandidateQuery& cq = candidates[queue[pos]];
      TopKList result;
      const Exec e = execute(queue[pos], unpruned_ctx, &result);
      if (e == Exec::kStop) break;
      if (e == Exec::kRefuted) continue;  // no list: cannot become Qfm
      if (Accepts(result, input)) {
        outcome.valid.push_back(ValidQuery{cq.query, outcome.executions});
        if (options_.stop_at_first_valid) return outcome;
      }
      if (result.EntityJaccard(input) >= tau) {
        first_match = &cq;
        ranking_confirmed = result.ValueJaccard(input, 1e-6) > tau;
        ++pos;
        break;
      }
    }
    if (!failure.ok()) return failure;

    // Phase 2: execute the remainder, skipping candidates unrelated to
    // Qfm.
    for (; pos < queue.size() && budget_left() && governed_left(); ++pos) {
      const CandidateQuery& cq = candidates[queue[pos]];
      if (first_match != nullptr) {
        bool no_predicate_overlap =
            cq.query.predicate.OverlapWith(first_match->query.predicate) ==
            0;
        bool wrong_ranking =
            ranking_confirmed && !cq.query.SameRanking(first_match->query);
        if (no_predicate_overlap || wrong_ranking) {
          skipped.push_back(queue[pos]);
          ++outcome.skip_events;
          continue;
        }
      }
      TopKList result;
      const Exec e = execute(queue[pos], pruned_ctx, &result);
      if (e == Exec::kStop) break;
      if (e == Exec::kRefuted) continue;  // rejected without a full scan
      if (Accepts(result, input)) {
        outcome.valid.push_back(ValidQuery{cq.query, outcome.executions});
        if (options_.stop_at_first_valid) return outcome;
      }
    }
    if (!failure.ok()) return failure;

    if (outcome.termination != TerminationReason::kCompleted) {
      // Wind down: everything not yet executed this pass — the queue
      // tail plus this pass's skips — was never validated. Ascending
      // index order restores suitability order.
      outcome.unvalidated.assign(queue.begin() + static_cast<ptrdiff_t>(pos),
                                 queue.end());
      outcome.unvalidated.insert(outcome.unvalidated.end(), skipped.begin(),
                                 skipped.end());
      std::sort(outcome.unvalidated.begin(), outcome.unvalidated.end());
      return outcome;
    }
    if (!budget_left()) break;
    // Retry the skipped candidates; terminates because phase 1 always
    // executes at least the first queued candidate.
    queue = std::move(skipped);
  }
  return outcome;
}

namespace {

/// One candidate execution's outcome, carried through a pool future.
/// Default-constructed (ran == false) when the pool skipped the task
/// because the sibling-cancellation token had already tripped.
struct ExecResult {
  Status status = Status::OK();
  TopKList list;
  bool ran = false;
};

}  // namespace

StatusOr<ValidationOutcome> Validator::ParallelValidation(
    const std::vector<CandidateQuery>& candidates, const TopKList& input,
    bool smart, const RunBudget* budget, int64_t prior_executions) const {
  ValidationOutcome outcome;
  const double tau = options_.smart_jaccard_threshold;
  // In-flight window: one slot per configured validation thread. The
  // window is also the speculation depth — results past the commit
  // point may be discarded, so oversizing it wastes executions without
  // adding concurrency.
  const size_t window =
      static_cast<size_t>(std::max(2, options_.num_threads));

  // Trips when validation stops needing its outstanding executions:
  // first valid query found (stop_at_first_valid), budget exhausted, or
  // a hard execution error. Queued siblings are then skipped by the
  // pool; in-flight ones abort at their next mid-scan budget poll.
  CancellationToken stop;
  // Per-task budget: the request's deadline plus the sibling token.
  // The request's own cancellation token is polled by the commit loop
  // (which then trips `stop`), so a request cancel reaches in-flight
  // scans with at most one commit of latency.
  RunBudget task_budget;
  if (budget != nullptr) task_budget = *budget;
  task_budget.set_max_executions(0);  // cap is enforced at commit
  task_budget.set_cancellation_token(&stop);
  // Scan morsels of the speculative executions share the validation
  // pool; WaitHelping keeps the nesting deadlock-free.
  //
  // Pruning mirrors the sequential schedule: parallel-ranked tasks
  // always prune; parallel-smart tasks prune only once Qfm is known at
  // LAUNCH time (launches happen on this commit thread, so the qfm
  // snapshot is race-free). A task launched before Qfm committed may
  // run unpruned where the sequential phase 2 would have pruned it —
  // both count one execution and reject, so the committed outcome is
  // unchanged; only refuted_early / rows_saved side counters differ.
  const std::unique_ptr<ThresholdMonitor> monitor =
      MakeMonitor(candidates, input);
  const ExecContext task_ctx{.budget = &task_budget,
                             .cache = cache_,
                             .pool = pool_,
                             .scan_threads = options_.scan_threads,
                             .vectorized = options_.vectorized_execution};
  ExecContext pruned_task_ctx = task_ctx;
  pruned_task_ctx.threshold = monitor.get();

  struct Slot {
    enum class State { kPending, kLaunched, kSkipped };
    State state = State::kPending;
    std::future<ExecResult> future;
  };

  auto budget_left = [&]() {
    return options_.max_query_executions <= 0 ||
           outcome.executions < options_.max_query_executions;
  };

  std::vector<size_t> queue(candidates.size());
  std::iota(queue.begin(), queue.end(), size_t{0});

  while (!queue.empty()) {
    ++outcome.passes;
    std::vector<Slot> slots(queue.size());
    std::vector<size_t> skipped;
    const CandidateQuery* qfm = nullptr;
    bool ranking_confirmed = false;
    size_t commit_pos = 0;
    size_t launch_pos = 0;
    size_t inflight = 0;

    // Algorithm 3's skip rule, decidable only once Qfm is known.
    auto should_skip = [&](const CandidateQuery& cq) {
      if (!smart || qfm == nullptr) return false;
      bool no_predicate_overlap =
          cq.query.predicate.OverlapWith(qfm->query.predicate) == 0;
      bool wrong_ranking =
          ranking_confirmed && !cq.query.SameRanking(qfm->query);
      return no_predicate_overlap || wrong_ranking;
    };

    // Joins every outstanding execution (they finish promptly: queued
    // ones are skipped via `stop`, running ones abort at the next
    // budget poll). Required before returning — tasks reference
    // stack-local state.
    auto drain = [&]() {
      for (size_t i = commit_pos; i < slots.size(); ++i) {
        if (slots[i].state == Slot::State::kLaunched &&
            slots[i].future.valid()) {
          pool_->WaitHelping(slots[i].future);
          ExecResult r = slots[i].future.get();
          // A refuted speculative execution did real (if early-stopped)
          // work, exactly like an ok one whose result is discarded.
          if (r.ran && (r.status.ok() || r.status.IsQueryRefuted())) {
            ++outcome.speculative_executions;
          }
        }
      }
    };

    // Budget exhausted: everything uncommitted — the queue tail plus
    // this pass's skips — was never validated, exactly as in the
    // sequential wind-down. Ascending order restores suitability order.
    auto wind_down = [&]() {
      stop.Cancel();
      drain();
      outcome.unvalidated.assign(
          queue.begin() + static_cast<ptrdiff_t>(commit_pos), queue.end());
      outcome.unvalidated.insert(outcome.unvalidated.end(), skipped.begin(),
                                 skipped.end());
      std::sort(outcome.unvalidated.begin(), outcome.unvalidated.end());
    };

    while (commit_pos < queue.size()) {
      // The sequential paths stop executing once the paper's silent
      // per-pass cap is hit; mirror that before any further work.
      if (!budget_left()) {
        stop.Cancel();
        drain();
        return outcome;
      }
      if (outcome.termination == TerminationReason::kCompleted &&
          budget != nullptr &&
          budget->Exhausted(prior_executions + outcome.executions)) {
        outcome.termination = ExhaustionReason(
            budget, prior_executions + outcome.executions);
      }
      if (outcome.termination != TerminationReason::kCompleted) {
        wind_down();
        return outcome;
      }

      // Launch ahead in rank order, up to the window. Skip decisions
      // taken here are final only when Qfm is already known (launch_pos
      // is always past the Qfm commit then); otherwise the candidate is
      // launched speculatively and re-judged at commit.
      while (inflight < window && launch_pos < queue.size()) {
        if (options_.max_query_executions > 0 &&
            outcome.executions + static_cast<int64_t>(inflight) >=
                options_.max_query_executions) {
          break;  // speculating past the cap is pure waste
        }
        const CandidateQuery* cq = &candidates[queue[launch_pos]];
        if (should_skip(*cq)) {
          slots[launch_pos].state = Slot::State::kSkipped;
          ++launch_pos;
          continue;
        }
        // Qfm snapshot at launch (see the ctx comment above): smart
        // candidates launched before Qfm run unpruned, like the
        // sequential phase 1.
        const ExecContext* ctx =
            (!smart || qfm != nullptr) ? &pruned_task_ctx : &task_ctx;
        slots[launch_pos].future = pool_->Submit(
            [this, cq, ctx]() -> ExecResult {
              ExecResult r;
              r.ran = true;
              auto executed = executor_->Execute(base_, cq->query, *ctx);
              if (!executed.ok()) {
                r.status = executed.status();
              } else {
                r.list = std::move(executed).value();
              }
              return r;
            },
            /*priority=*/1, &stop);
        slots[launch_pos].state = Slot::State::kLaunched;
        ++inflight;
        ++launch_pos;
      }

      Slot& slot = slots[commit_pos];
      if (slot.state == Slot::State::kSkipped) {
        skipped.push_back(queue[commit_pos]);
        ++outcome.skip_events;
        ++commit_pos;
        continue;
      }
      // Span recorded from this (single) commit thread only; it times
      // the wait-for-result plus the commit decision.
      obs::ScopedSpan span(trace_.trace, "commit", trace_.parent);
      span.AddAttr("candidate", static_cast<int64_t>(queue[commit_pos]));
      pool_->WaitHelping(slot.future);
      ExecResult result = slot.future.get();
      --inflight;
      const CandidateQuery& cq = candidates[queue[commit_pos]];

      // Re-judge the skip rule now that every earlier result has
      // committed: a speculative execution the sequential scheduler
      // would have skipped is discarded and retried next pass.
      if (should_skip(cq)) {
        // Refuted counts like ok here: real (if early-stopped) work
        // whose result is discarded (same rule as drain()).
        if (result.ran &&
            (result.status.ok() || result.status.IsQueryRefuted())) {
          ++outcome.speculative_executions;
          span.AddAttr("speculative", int64_t{1});
        }
        skipped.push_back(queue[commit_pos]);
        ++outcome.skip_events;
        ++commit_pos;
        continue;
      }
      if (!result.ran || !result.status.ok()) {
        if (result.ran && result.status.IsQueryRefuted()) {
          // Mirrors the sequential refuted branch: an executed-and-
          // rejected candidate that stopped early. Committed in rank
          // order here, so budgets and Qfm discovery see the same
          // schedule as with pruning off.
          ++outcome.executions;
          ++outcome.refuted_early;
          span.AddAttr("refuted_early", int64_t{1});
          ++commit_pos;
          continue;
        }
        if (!result.ran || result.status.IsCancelled()) {
          // Deadline (or an externally tripped token) hit mid-scan.
          outcome.termination = ExhaustionReason(
              budget, prior_executions + outcome.executions);
          wind_down();
          return outcome;
        }
        stop.Cancel();
        drain();
        return result.status;
      }
      ++outcome.executions;
      const bool accepted = Accepts(result.list, input);
      span.AddAttr("accepted", static_cast<int64_t>(accepted));
      if (accepted) {
        outcome.valid.push_back(ValidQuery{cq.query, outcome.executions});
        if (options_.stop_at_first_valid) {
          // The paper's early termination: the first validated query
          // cancels its outstanding lower-rank siblings.
          stop.Cancel();
          drain();
          return outcome;
        }
      }
      if (smart && qfm == nullptr &&
          result.list.EntityJaccard(input) >= tau) {
        qfm = &cq;
        ranking_confirmed = result.list.ValueJaccard(input, 1e-6) > tau;
      }
      ++commit_pos;
    }

    if (!budget_left()) break;
    queue = std::move(skipped);
  }
  return outcome;
}

StatusOr<ValidationOutcome> Validator::Validate(
    const std::vector<CandidateQuery>& candidates, const TopKList& input,
    const RunBudget* budget, int64_t prior_executions) const {
  // Chaos hook: an injected Cancelled here exercises the wind-down
  // path from the validation boundary; any other code fails the run.
  FaultResult fault = PALEO_FAULT_POINT("validator.validate.begin");
  if (fault.error()) return fault.status;
  const bool parallel =
      pool_ != nullptr && options_.num_threads > 1 && candidates.size() > 1;
  switch (options_.validation_strategy) {
    case ValidationStrategy::kRanked:
      if (parallel) {
        return ParallelValidation(candidates, input, /*smart=*/false,
                                  budget, prior_executions);
      }
      return RankedValidation(candidates, input, budget, prior_executions);
    case ValidationStrategy::kSmart:
      if (parallel) {
        return ParallelValidation(candidates, input, /*smart=*/true,
                                  budget, prior_executions);
      }
      return SmartValidation(candidates, input, budget, prior_executions);
  }
  return Status::Internal("unknown validation strategy");
}

}  // namespace paleo
