// Ranking criteria identification (paper Section 5) with the sampled
// approximations of Section 6.2.
//
// Search order follows Figure 4's pre-order walk: for max(A) first try
// the per-column top-entity lists, then histogram sampling, then
// direct validation over R'; same for avg(A); the sum family and
// no-aggregation criteria are validated over R' directly (the stats
// shortcuts do not apply to them — top entities under sum depend on
// the predicate, and histograms would need convolutions).
//
// With a complete R' a criterion qualifies only if its ranked result
// over the tuple set is *identical* to L (Definition 2), and the walk
// stops at the first technique producing valid criteria. A grouped
// criterion is aggregated entity by entity over the tuple set's rows
// partitioned by R' entity (once per Find), visiting L's entities in
// list order, and is rejected at the first entity with no row or with
// a value more than four ValuesClose steps from its value in L: inside
// a tied run InstanceEquals keeps an entity within three steps, given
// ValuesClose's rule that a non-finite value is close only to itself
// (DESIGN.md §4). A criterion passing every entity, or an unaggregated
// one whose ranked length and leading value match L's, is sorted and
// takes the full InstanceEquals test. Under sampling every criterion
// is scored by the normalized L1 distance between its (approximated)
// per-entity values and L's values, from the same per-entity
// aggregation without the early stop; sums are scaled per entity by
// total/seen tuple counts (Section 6.2).
//
// Thread-safety: reads const inputs (R', stats, histograms) and writes
// only its own outputs; concurrent calls over the same inputs are safe.

#ifndef PALEO_PALEO_RANKING_FINDER_H_
#define PALEO_PALEO_RANKING_FINDER_H_

#include <vector>

#include "common/run_budget.h"
#include "common/status.h"
#include "engine/rank_expr.h"
#include "engine/topk_list.h"
#include "paleo/options.h"
#include "paleo/predicate_miner.h"
#include "paleo/rprime.h"
#include "stats/catalog.h"

namespace paleo {

/// \brief One candidate ranking criterion for a tuple set.
struct RankingCandidate {
  RankExpr expr;
  AggFn agg = AggFn::kMax;
  /// Normalized L1 distance to the input values (0 = exact).
  double distance = 0.0;
  /// Result over the tuple set is instance-identical to L.
  bool exact = false;
};

/// \brief Candidate ranking criteria of one predicate group.
struct GroupRanking {
  int group_id = -1;
  std::vector<RankingCandidate> candidates;
};

/// \brief Which techniques of the Figure 4 walk ran (Figure 7 /
/// ablation accounting).
struct RankingSearchInfo {
  bool used_top_entities = false;
  bool used_histograms = false;
  bool used_fallback = false;
  int top_entity_candidate_columns = 0;
  int histogram_candidate_columns = 0;
  /// Criteria evaluations performed over R' tuple sets.
  int64_t tuple_set_evaluations = 0;
  /// kCompleted when the Figure 4 walk finished; otherwise the search
  /// stopped early on a RunBudget and the rankings are partial.
  TerminationReason termination = TerminationReason::kCompleted;
};

/// \brief Figure 4 search driver.
class RankingFinder {
 public:
  /// `catalog` may be null, in which case the stats-guided shortcuts
  /// are skipped and everything is validated over R' (the ablation
  /// baseline).
  RankingFinder(const RPrime& rprime, const StatsCatalog* catalog,
                const PaleoOptions& options)
      : rprime_(rprime), catalog_(catalog), options_(options) {}

  /// Finds candidate ranking criteria for every predicate group.
  /// `input` is the list R' was built from (InvalidArgument when one of
  /// its entities is not an R' entity).
  /// `assume_complete` selects exact matching (true) vs. distance
  /// scoring with sum approximation (false). Groups that end up with
  /// no candidates are returned with an empty list (the caller drops
  /// their predicates, Section 5.3).
  ///
  /// With `exhaustive`, the walk does not stop at the first technique
  /// producing exact criteria. The facade uses this as a second pass
  /// when no candidate from the cheap walk validates against R: a
  /// coincidental exact match on R' (e.g. max == avg over one-row
  /// tuple sets) can otherwise shadow the true criterion.
  ///
  /// When `budget` is set, the walk polls it between criterion
  /// evaluations and stops early on exhaustion, returning the criteria
  /// found so far (each individually complete) with
  /// info->termination recording the reason.
  StatusOr<std::vector<GroupRanking>> Find(
      const std::vector<PredicateGroup>& groups, const TopKList& input,
      bool assume_complete, RankingSearchInfo* info = nullptr,
      bool exhaustive = false, const RunBudget* budget = nullptr) const;

 private:
  const RPrime& rprime_;
  const StatsCatalog* catalog_;
  const PaleoOptions& options_;
};

}  // namespace paleo

#endif  // PALEO_PALEO_RANKING_FINDER_H_
