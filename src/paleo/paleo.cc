#include "paleo/paleo.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "engine/atom_cache.h"
#include "paleo/pipeline_metrics.h"
#include "paleo/rprime.h"

namespace paleo {

namespace {

/// Near misses surfaced on budget exhaustion are capped: they are best
/// guesses for a human (or a retry with a larger budget), not an
/// exhaustive dump of the candidate space.
constexpr size_t kMaxNearMisses = 16;

/// Byte budget of the per-run atom-selection cache (LRU-evicted past
/// it).
constexpr size_t kAtomCacheBytes = size_t{32} << 20;

/// Copies the unvalidated candidates (ascending index = suitability
/// order) into the report's near-miss list, up to the cap.
void AppendNearMisses(const std::vector<CandidateQuery>& candidates,
                      const std::vector<size_t>& unvalidated,
                      ReverseEngineerReport* report) {
  for (size_t idx : unvalidated) {
    if (report->near_misses.size() >= kMaxNearMisses) break;
    report->near_misses.push_back(candidates[idx]);
  }
}

}  // namespace

Paleo::Paleo(const Table* base, PaleoOptions options)
    : base_(base),
      options_(std::move(options)),
      index_(EntityIndex::Build(*base)),
      catalog_(StatsCatalog::Build(*base)) {
  if (options_.use_dimension_index) {
    dimension_index_ =
        std::make_unique<DimensionIndex>(DimensionIndex::Build(*base));
  }
}

Paleo::Paleo(const Table* base, PaleoOptions options, EntityIndex index,
             StatsCatalog catalog,
             std::unique_ptr<DimensionIndex> dimension_index)
    : base_(base),
      options_(std::move(options)),
      index_(std::move(index)),
      catalog_(std::move(catalog)),
      dimension_index_(std::move(dimension_index)) {}

StatusOr<ReverseEngineerReport> Paleo::Run(const RunRequest& request) const {
  if (request.input == nullptr) {
    return Status::InvalidArgument("RunRequest.input must be set");
  }
  const PaleoOptions& options = request.options_override != nullptr
                                    ? *request.options_override
                                    : options_;

  std::shared_ptr<obs::Trace> trace;
  if (request.collect_trace) trace = std::make_shared<obs::Trace>();

  Timer run_timer;
  auto result = RunImpl(request, options, trace.get());
  ExportRunMetrics(request.metrics, run_timer.ElapsedMillis(),
                   result.ok() ? &*result : nullptr);
  if (result.ok()) result->trace = std::move(trace);
  return result;
}

StatusOr<ReverseEngineerReport> Paleo::RunImpl(const RunRequest& request,
                                               const PaleoOptions& options,
                                               obs::Trace* trace) const {
  const TopKList& input = *request.input;
  const std::vector<RowId>* sample_rows = request.sample_rows;
  const bool assume_complete = sample_rows == nullptr;
  const double coverage_ratio =
      assume_complete ? options.coverage_ratio
      : request.coverage_ratio_override > 0.0
          ? request.coverage_ratio_override
          : CoverageRatioForSample(request.sample_fraction);
  const bool keep_candidates = request.keep_candidates;

  ReverseEngineerReport report;

  obs::ScopedSpan run_span(trace, "run");
  run_span.AddAttr("k", static_cast<int64_t>(input.size()));
  run_span.AddAttr("sampled", static_cast<int64_t>(!assume_complete));

  // ---- Resource governance ----
  // The effective budget is the intersection of the options' knobs
  // (deadline_ms anchored at this call, max_validation_executions) and
  // the caller's external budget (deadline, cap, cancellation token).
  // With neither configured, `governed` stays nullptr and every stage
  // runs exactly as the ungoverned paper pipeline.
  RunBudget budget;
  budget.SetDeadlineAfterMillis(options.deadline_ms);
  budget.set_max_executions(options.max_validation_executions);
  if (request.budget != nullptr) budget.Tighten(*request.budget);
  const RunBudget* governed = budget.IsUnlimited() ? nullptr : &budget;
  // The first stage to exhaust the budget names the reason; later
  // stages are skipped or wound down and cannot overwrite it.
  auto note_termination = [&report](TerminationReason reason) {
    if (report.termination == TerminationReason::kCompleted) {
      report.termination = reason;
    }
  };

  // ---- Step 1: retrieve R' and mine candidate predicates ----
  Timer step_timer;
  obs::ScopedSpan mine_span(trace, "find_predicates", run_span.id());
  PALEO_ASSIGN_OR_RETURN(RPrime rprime,
                         RPrime::Build(*base_, index_, input, sample_rows));
  report.rprime_rows = static_cast<int64_t>(rprime.num_rows());
  report.rprime_bytes = rprime.table().MemoryUsage();

  PaleoOptions step_options = options;
  step_options.coverage_ratio = coverage_ratio;
  PredicateMiner miner(rprime, step_options);
  PALEO_ASSIGN_OR_RETURN(MiningResult mining, miner.Mine(governed));
  note_termination(mining.termination);
  report.candidate_predicates =
      static_cast<int64_t>(mining.predicates.size());
  report.predicates_by_size = mining.predicates_by_size;
  report.tuple_sets = static_cast<int64_t>(mining.groups.size());
  report.timings.find_predicates_ms = step_timer.ElapsedMillis();
  mine_span.AddAttr("rprime_rows", report.rprime_rows);
  mine_span.AddAttr("candidate_predicates", report.candidate_predicates);
  mine_span.AddAttr("tuple_sets", report.tuple_sets);
  mine_span.End();

  // ---- Step 2: identify ranking criteria ----
  step_timer.Reset();
  obs::ScopedSpan rank_span(trace, "find_ranking", run_span.id());
  RankingFinder finder(rprime, &catalog_, step_options);
  PALEO_ASSIGN_OR_RETURN(
      std::vector<GroupRanking> rankings,
      finder.Find(mining.groups, input, assume_complete,
                  &report.ranking_info, /*exhaustive=*/false, governed));
  note_termination(report.ranking_info.termination);

  // ORDER BY direction: ascending only when the input values are
  // non-decreasing with at least one increase (matching the ranking
  // finder's detection).
  std::vector<double> input_values = input.Values();
  const SortOrder order =
      std::is_sorted(input_values.begin(), input_values.end()) &&
              !std::is_sorted(input_values.rbegin(), input_values.rend())
          ? SortOrder::kAsc
          : SortOrder::kDesc;

  ProbModel model(catalog_, rprime);
  model.set_use_observed_match_rate(options.use_observed_match_rate);
  std::vector<CandidateQuery> candidates = BuildCandidateQueries(
      mining, rankings, model, static_cast<int>(input.size()), order);
  report.candidate_queries = static_cast<int64_t>(candidates.size());
  report.timings.find_ranking_ms = step_timer.ElapsedMillis();
  rank_span.AddAttr("tuple_set_evaluations",
                    report.ranking_info.tuple_set_evaluations);
  rank_span.AddAttr("candidate_queries", report.candidate_queries);
  rank_span.End();

  // ---- Step 3: validate candidate queries against R ----
  // A request-private executor is what makes Run thread-safe.
  Executor executor;
  if (dimension_index_ != nullptr && options.use_dimension_index) {
    executor.SetDimensionIndex(dimension_index_.get(), base_);
  }
  // One atom-selection cache per run, shared by the main validation and
  // the progressive-deepening retry below (and across all pool workers
  // within them): the candidates share almost all of their predicate
  // atoms, so each distinct atom is scanned once per run instead of
  // once per candidate. Scoped to the run because the cache pins bitmap
  // memory and the candidate sets of different runs rarely overlap.
  AtomSelectionCache atom_cache(kAtomCacheBytes);
  // One validation step, for the first-pass candidates and again for
  // the fresh candidates of progressive deepening: validates `list`
  // unless the budget already ran out (then nothing is executed and
  // every candidate is a near miss), and folds the outcome into the
  // report.
  auto validate = [&](const std::vector<CandidateQuery>& list,
                      obs::Trace::SpanId parent) -> Status {
    Timer timer;
    obs::ScopedSpan span(trace, "validate", parent);
    ValidationOutcome outcome;
    if (report.termination == TerminationReason::kCompleted) {
      Validator validator(*base_, &executor, options, request.pool,
                          obs::TraceContext{trace, span.id()},
                          &atom_cache);
      PALEO_ASSIGN_OR_RETURN(
          outcome, validator.Validate(list, input, governed,
                                      report.executed_queries));
      note_termination(outcome.termination);
      AppendNearMisses(list, outcome.unvalidated, &report);
    } else {
      for (size_t i = 0;
           i < list.size() && report.near_misses.size() < kMaxNearMisses;
           ++i) {
        report.near_misses.push_back(list[i]);
      }
    }
    span.AddAttr("executed", outcome.executions);
    span.AddAttr("skipped", outcome.skip_events);
    span.AddAttr("valid", static_cast<int64_t>(outcome.valid.size()));
    for (ValidQuery& vq : outcome.valid) {
      vq.executions_at_discovery += report.executed_queries;
      report.valid.push_back(std::move(vq));
    }
    report.executed_queries += outcome.executions;
    report.speculative_executions += outcome.speculative_executions;
    report.skip_events += outcome.skip_events;
    report.validation_passes += outcome.passes;
    report.executions_aborted_early += outcome.refuted_early;
    report.timings.validation_ms += timer.ElapsedMillis();
    return Status::OK();
  };
  PALEO_RETURN_NOT_OK(validate(candidates, run_span.id()));

  // ---- Progressive deepening (complete R' only) ----
  // The Figure 4 walk stops at the first technique with exact criteria,
  // which is usually right but can be shadowed by a coincidental exact
  // match (e.g. max == avg == sum over one-row tuple sets). If nothing
  // validated against R, redo the ranking search exhaustively and
  // validate only the criteria the first pass did not try. Skipped
  // when the budget is already exhausted — the near misses above are
  // the best answer the budget affords.
  if (assume_complete && report.valid.empty() &&
      report.termination == TerminationReason::kCompleted) {
    obs::ScopedSpan deepen_span(trace, "deepen", run_span.id());
    step_timer.Reset();
    obs::ScopedSpan deep_rank_span(trace, "find_ranking",
                                   deepen_span.id());
    RankingSearchInfo deep_info;
    PALEO_ASSIGN_OR_RETURN(
        std::vector<GroupRanking> all_rankings,
        finder.Find(mining.groups, input, /*assume_complete=*/true,
                    &deep_info, /*exhaustive=*/true, governed));
    note_termination(deep_info.termination);
    std::vector<CandidateQuery> all_candidates = BuildCandidateQueries(
        mining, all_rankings, model, static_cast<int>(input.size()), order);
    std::unordered_set<uint64_t> already_tried;
    for (const CandidateQuery& cq : candidates) {
      already_tried.insert(cq.query.Hash());
    }
    std::vector<CandidateQuery> fresh;
    for (CandidateQuery& cq : all_candidates) {
      if (already_tried.count(cq.query.Hash()) == 0) {
        fresh.push_back(std::move(cq));
      }
    }
    report.candidate_queries =
        static_cast<int64_t>(candidates.size() + fresh.size());
    report.timings.find_ranking_ms += step_timer.ElapsedMillis();
    deep_rank_span.AddAttr("fresh_candidates",
                           static_cast<int64_t>(fresh.size()));
    deep_rank_span.End();

    PALEO_RETURN_NOT_OK(validate(fresh, deepen_span.id()));
    if (keep_candidates) {
      for (CandidateQuery& cq : fresh) candidates.push_back(std::move(cq));
    }
  }

  // Every execution has joined: the snapshots are the run's totals.
  report.executor_stats = executor.stats();
  report.cache_stats = atom_cache.stats();
  report.degraded_events = report.cache_stats.pressure_events;
  run_span.AddAttr("termination",
                   TerminationReasonToString(report.termination));
  run_span.AddAttr("valid", static_cast<int64_t>(report.valid.size()));

  if (keep_candidates) report.candidates = std::move(candidates);
  return report;
}

}  // namespace paleo
