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

/// Maps an interrupted execution to its reason. Falls back to
/// kCancelled when the budget itself reports no exhaustion: the sibling
/// token tripped, or an injected fault interrupted the scan.
TerminationReason ExhaustionReason(const RunBudget* budget,
                                   int64_t executions_used) {
  if (budget == nullptr) return TerminationReason::kCancelled;
  TerminationReason reason = budget->Check(executions_used);
  return reason == TerminationReason::kCompleted
             ? TerminationReason::kCancelled
             : reason;
}

/// One candidate execution's outcome. Default-constructed (ran == false)
/// when the pool skipped the task because the sibling-cancellation token
/// had already tripped.
struct ExecResult {
  Status status = Status::OK();
  TopKList list;
  bool ran = false;
};

/// Executes one candidate query.
ExecResult ExecuteCandidate(Executor* executor, const Table& base,
                            const TopKQuery& query, const ExecContext& ctx) {
  ExecResult r;
  r.ran = true;
  auto executed = executor->Execute(base, query, ctx);
  if (!executed.ok()) {
    r.status = executed.status();
  } else {
    r.list = std::move(executed).value();
  }
  return r;
}

/// The Jaccard threshold tau of Algorithm 3 (the paper's 0.5): the
/// first executed candidate whose entities overlap L's by at least tau
/// becomes the smart scheduler's Qfm.
constexpr double kSmartJaccardThreshold = 0.5;

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

StatusOr<ValidationOutcome> Validator::Validate(
    const std::vector<CandidateQuery>& candidates, const TopKList& input,
    const RunBudget* budget, int64_t prior_executions) const {
  // Chaos hook: an injected Cancelled here exercises the wind-down
  // path from the validation boundary; any other code fails the run.
  FaultResult fault = PALEO_FAULT_POINT("validator.validate.begin");
  if (fault.error()) return fault.status;

  ValidationOutcome outcome;
  const bool smart =
      options_.validation_strategy == ValidationStrategy::kSmart;
  // Speculation needs a pool, threads, and two candidates to overlap.
  // Otherwise the window is one: each candidate runs on this thread at
  // its commit.
  ThreadPool* const pool =
      options_.num_threads > 1 && candidates.size() > 1 ? pool_ : nullptr;
  // In-flight window: one slot per configured validation thread. The
  // window is also the speculation depth — results past the commit
  // point may be discarded, so oversizing it wastes executions without
  // adding concurrency.
  const size_t window =
      static_cast<size_t>(std::max(2, options_.num_threads));
  const int64_t cap = budget != nullptr ? budget->max_executions() : 0;

  // Trips when validation stops needing its speculative executions:
  // first valid query found (stop_at_first_valid), budget exhausted, or
  // a hard execution error. Queued siblings are then skipped by the
  // pool; in-flight ones abort at their next mid-scan budget poll.
  CancellationToken stop;
  // Speculative tasks run under the request's deadline plus the sibling
  // token. The request's own cancellation token is polled by the commit
  // loop (which then trips `stop`), so a request cancel reaches
  // in-flight scans with at most one commit of latency. A window of one
  // executes under the request's budget itself, so its scan sees a
  // request cancel at the next gate tick.
  RunBudget task_budget;
  if (budget != nullptr) task_budget = *budget;
  task_budget.set_max_executions(0);  // the cap is enforced at commit
  task_budget.set_cancellation_token(&stop);
  // Phase 1 of Algorithm 3 (before Qfm is known) feeds Qfm detection,
  // which needs the full result list, so it runs UNPRUNED; every other
  // execution only needs the accept/reject verdict and carries the
  // threshold monitor. A speculative smart task launched before Qfm
  // committed may run unpruned where a window of one would have pruned
  // it — both count one execution and reject, so the committed outcome
  // (executions, skip_events, passes, the valid set) is unchanged; only
  // refuted_early and rows_saved differ.
  const std::unique_ptr<ThresholdMonitor> monitor =
      MakeMonitor(candidates, input);
  const ExecContext unpruned_ctx{
      .budget = pool != nullptr ? &task_budget : budget,
      .cache = cache_,
      .pool = pool_,
      .scan_threads = options_.scan_threads};
  ExecContext pruned_ctx = unpruned_ctx;
  pruned_ctx.threshold = monitor.get();

  // Work queue of candidate indices; skipped candidates form the queue
  // of the next pass (Algorithm 3's tail recursion, made iterative).
  std::vector<size_t> queue(candidates.size());
  std::iota(queue.begin(), queue.end(), size_t{0});

  while (!queue.empty()) {
    ++outcome.passes;
    // Speculative executions by queue position; empty for a window of
    // one and for candidates skipped at launch.
    std::vector<std::future<ExecResult>> launched(queue.size());
    std::vector<size_t> skipped;
    const CandidateQuery* qfm = nullptr;
    bool ranking_confirmed = false;
    size_t commit_pos = 0;
    size_t launch_pos = 0;
    size_t inflight = 0;

    // Algorithm 3's skip rule, decidable only once Qfm is known. Qfm is
    // fixed once set, so a verdict taken at launch holds at commit.
    auto should_skip = [&](const CandidateQuery& cq) {
      if (!smart || qfm == nullptr) return false;
      bool no_predicate_overlap =
          cq.query.predicate.OverlapWith(qfm->query.predicate) == 0;
      bool wrong_ranking =
          ranking_confirmed && !cq.query.SameRanking(qfm->query);
      return no_predicate_overlap || wrong_ranking;
    };
    auto context = [&]() -> const ExecContext* {
      return !smart || qfm != nullptr ? &pruned_ctx : &unpruned_ctx;
    };
    // Waits for a speculative execution, counting it as speculative when
    // it did real (if early-stopped) work whose result is discarded.
    auto discard = [&](std::future<ExecResult>& future) {
      pool->WaitHelping(future);
      ExecResult r = future.get();
      --inflight;
      const bool wasted =
          r.ran && (r.status.ok() || r.status.IsQueryRefuted());
      if (wasted) ++outcome.speculative_executions;
      return wasted;
    };
    // Joins every outstanding execution (they finish promptly: queued
    // ones are skipped via `stop`, running ones abort at the next
    // budget poll). Required before returning — tasks reference
    // stack-local state.
    auto drain = [&]() {
      stop.Cancel();
      for (size_t i = commit_pos; i < launched.size(); ++i) {
        if (launched[i].valid()) discard(launched[i]);
      }
    };
    // Budget exhausted: everything uncommitted — the queue tail plus
    // this pass's skips — was never validated. Ascending order restores
    // suitability order.
    auto wind_down = [&]() {
      drain();
      outcome.unvalidated.assign(
          queue.begin() + static_cast<ptrdiff_t>(commit_pos), queue.end());
      outcome.unvalidated.insert(outcome.unvalidated.end(), skipped.begin(),
                                 skipped.end());
      std::sort(outcome.unvalidated.begin(), outcome.unvalidated.end());
    };

    while (commit_pos < queue.size()) {
      const TerminationReason reason =
          budget != nullptr
              ? budget->Check(prior_executions + outcome.executions)
              : TerminationReason::kCompleted;
      if (reason != TerminationReason::kCompleted) {
        outcome.termination = reason;
        wind_down();
        return outcome;
      }

      // Launch ahead in rank order, up to the window. Candidates the
      // skip rule already rejects are not launched.
      while (pool != nullptr && inflight < window &&
             launch_pos < queue.size()) {
        // Speculating past the execution cap is pure waste.
        const int64_t reserved = prior_executions + outcome.executions +
                                 static_cast<int64_t>(inflight);
        if (cap > 0 && reserved >= cap) break;
        const CandidateQuery* cq = &candidates[queue[launch_pos]];
        if (!should_skip(*cq)) {
          // Qfm snapshot at launch (launches happen on this commit
          // thread, so reading qfm is race-free).
          const ExecContext* ctx = context();
          launched[launch_pos] = pool->Submit(
              [this, cq, ctx] {
                return ExecuteCandidate(executor_, base_, cq->query, *ctx);
              },
              /*priority=*/1, &stop);
          ++inflight;
        }
        ++launch_pos;
      }

      const size_t idx = queue[commit_pos];
      const CandidateQuery& cq = candidates[idx];
      std::future<ExecResult>& future = launched[commit_pos];
      if (should_skip(cq)) {
        // Every earlier result has committed, so the skip rule decides
        // here exactly as with a window of one. A speculative result is
        // discarded and the candidate retried next pass.
        if (future.valid()) {
          obs::ScopedSpan span(trace_.trace, "execute", trace_.parent);
          span.AddAttr("candidate", static_cast<int64_t>(idx));
          if (discard(future)) span.AddAttr("speculative", int64_t{1});
        }
        skipped.push_back(idx);
        ++outcome.skip_events;
        ++commit_pos;
        continue;
      }
      // Recorded from this (single) commit thread only: a Trace is not
      // thread-safe, so pool workers never touch it.
      obs::ScopedSpan span(trace_.trace, "execute", trace_.parent);
      span.AddAttr("candidate", static_cast<int64_t>(idx));
      ExecResult result;
      if (future.valid()) {
        pool->WaitHelping(future);
        result = future.get();
        --inflight;
      } else {
        result = ExecuteCandidate(executor_, base_, cq.query, *context());
      }
      if (result.status.IsQueryRefuted()) {
        // The threshold monitor proved mid-scan that this candidate
        // cannot reproduce L: an executed-and-rejected candidate that
        // stopped early. Counted as an execution so budgets and the
        // paper's execution metric are identical with pruning off.
        ++outcome.executions;
        ++outcome.refuted_early;
        span.AddAttr("refuted_early", int64_t{1});
        ++commit_pos;
        continue;
      }
      if (!result.ran || result.status.IsCancelled()) {
        // The deadline passed (or a token tripped) mid-scan; the
        // partial execution does not count.
        span.AddAttr("interrupted", int64_t{1});
        outcome.termination = ExhaustionReason(
            budget, prior_executions + outcome.executions);
        wind_down();
        return outcome;
      }
      if (!result.status.ok()) {
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
          drain();
          return outcome;
        }
      }
      if (smart && qfm == nullptr &&
          result.list.EntityJaccard(input) >= kSmartJaccardThreshold) {
        qfm = &cq;
        ranking_confirmed =
            result.list.ValueJaccard(input, 1e-6) > kSmartJaccardThreshold;
      }
      ++commit_pos;
    }
    queue = std::move(skipped);
  }
  return outcome;
}

}  // namespace paleo
