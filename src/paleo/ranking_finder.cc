#include "paleo/ranking_finder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "stats/distance.h"

namespace paleo {

namespace {

/// One stage of the Figure 4 walk: an aggregate plus the technique
/// used to pre-select candidate columns.
enum class Technique { kTopEntities, kHistogram, kRPrimeFallback };

struct Stage {
  AggFn agg;
  Technique technique;
  bool two_column = false;  // sum(A+B) / sum(A*B) stage
};

}  // namespace

StatusOr<std::vector<GroupRanking>> RankingFinder::Find(
    const std::vector<PredicateGroup>& groups, const TopKList& input,
    bool assume_complete, RankingSearchInfo* info, bool exhaustive,
    const RunBudget* budget) const {
  RankingSearchInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = RankingSearchInfo();
  // Polled between criterion evaluations (each evaluation scans a
  // whole tuple set, so a small stride keeps the reaction prompt).
  BudgetGate gate(budget, /*stride=*/8);

  const Table& slice = rprime_.table();
  const Schema& schema = slice.schema();
  const std::vector<int>& measures = schema.measure_indices();
  const int m = rprime_.num_entities();
  const size_t k = input.size();

  std::vector<GroupRanking> rankings(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    rankings[g].group_id = static_cast<int>(g);
  }
  if (measures.empty() || input.empty()) return rankings;

  // The input's sort direction: DESC unless the values are strictly
  // non-decreasing with at least one increase (an ORDER BY ... ASC
  // list). Criteria are ranked in the detected direction.
  std::vector<double> raw_values = input.Values();
  const bool ascending =
      std::is_sorted(raw_values.begin(), raw_values.end()) &&
      !std::is_sorted(raw_values.rbegin(), raw_values.rend());

  // Input values in list order (for rank-aligned distances) and sorted
  // (for the histogram heuristic and min/max checks).
  const std::vector<double> input_values_in_order = input.Values();
  std::vector<double> input_values_sorted = std::move(raw_values);
  std::sort(input_values_sorted.begin(), input_values_sorted.end(),
            std::greater<double>());
  double input_max = input_values_sorted.front();
  double input_min = input_values_sorted.back();
  std::unordered_set<double> distinct_input(input_values_sorted.begin(),
                                            input_values_sorted.end());

  // Base-dictionary codes of the input entities (for top-entity
  // intersection); kInvalidCode for entities absent from R.
  const StringDictionary& entity_dict = *slice.entity_column().dict();
  std::vector<uint32_t> input_entity_codes;
  input_entity_codes.reserve(rprime_.entity_names().size());
  for (const std::string& name : rprime_.entity_names()) {
    input_entity_codes.push_back(entity_dict.Lookup(name));
  }

  // ---- Candidate column pre-selection (catalog-based) ----

  // The distinct-count check is sound only where every value of L is a
  // value the column holds: max, min and unaggregated criteria. An
  // average, like a sum, takes values the column never holds. A
  // measure's count saturates at ColumnStats::kDistinctCap, so the
  // check runs only when L has at most that many distinct values:
  // there a count below the cap is exact, and a saturated one is at
  // least L's.
  const int64_t input_distinct = static_cast<int64_t>(distinct_input.size());
  auto too_few_distinct = [&](AggFn agg, const ColumnStats& stats) {
    bool sound =
        agg == AggFn::kMax || agg == AggFn::kMin || agg == AggFn::kNone;
    return sound && input_distinct <= ColumnStats::kDistinctCap &&
           stats.distinct_count < input_distinct;
  };

  // A kept criterion's values need only be InstanceEquals to L's,
  // which inside a tied run lets an entity's value sit up to three
  // ValuesClose steps from its value in L (DESIGN.md §4). Four steps
  // cover that, with room for the rounding of the steps themselves;
  // both the entity check below and the range checks use them.
  const double range_eps = 4 * options_.rel_eps;
  // The min/max checks compare L's values with a column's range, which
  // an aggregate can also round past (an average of equal values by an
  // ulp). So a value counts as outside the range only when it is
  // farther from it than four steps, and never when either side is
  // non-finite: an average of finite values can overflow to +-inf.
  auto above = [range_eps](double value, double bound) {
    return value > bound && std::isfinite(value) && std::isfinite(bound) &&
           !ValuesClose(value, bound, range_eps);
  };

  // Algorithm 2: min/max/distinct checks, then top-entity intersection.
  auto top_entity_columns = [&](AggFn agg) {
    std::vector<int> out;
    if (catalog_ == nullptr) return out;
    for (int c : measures) {
      const ColumnStats& stats = catalog_->column_stats(c);
      if (above(input_max, stats.max)) continue;
      if (above(stats.min, input_min)) continue;
      if (too_few_distinct(agg, stats)) continue;
      if (catalog_->top_entities(c).CountIntersection(input_entity_codes) >
          0) {
        out.push_back(c);
      }
    }
    return out;
  };

  // Section 5.2: rank columns by the L1 distance between values sampled
  // from their histograms and the input values; keep the best fraction.
  auto histogram_columns = [&]() {
    std::vector<int> out;
    if (catalog_ == nullptr) return out;
    Rng rng(options_.seed);
    int sample_n = options_.histogram_sample_size > 0
                       ? options_.histogram_sample_size
                       : static_cast<int>(k);
    std::vector<std::pair<double, int>> scored;
    for (int c : measures) {
      const Histogram& hist = catalog_->histogram(c);
      if (hist.total_count() == 0) continue;
      std::vector<double> sample = hist.Sample(&rng, sample_n);
      std::sort(sample.begin(), sample.end(), std::greater<double>());
      scored.emplace_back(L1Distance(sample, input_values_sorted), c);
    }
    std::sort(scored.begin(), scored.end());
    size_t keep = static_cast<size_t>(
        std::ceil(options_.histogram_keep_fraction *
                  static_cast<double>(measures.size())));
    keep = std::min(keep, scored.size());
    for (size_t i = 0; i < keep; ++i) out.push_back(scored[i].second);
    std::sort(out.begin(), out.end());
    return out;
  };

  // Fallback column set: all measures passing the simple checks. The
  // min/max filters are sound for max/avg/none criteria but not for
  // sums (aggregated values exceed single-tuple ranges), so sums skip
  // them; the distinct filter applies where it is sound (above).
  auto fallback_columns = [&](AggFn agg) {
    std::vector<int> out;
    bool filter = agg == AggFn::kMax || agg == AggFn::kAvg ||
                  agg == AggFn::kMin || agg == AggFn::kNone;
    for (int c : measures) {
      if (filter && catalog_ != nullptr) {
        const ColumnStats& stats = catalog_->column_stats(c);
        if (agg != AggFn::kMin && above(input_max, stats.max)) continue;
        if (agg != AggFn::kMin && above(stats.min, input_min)) continue;
        if (too_few_distinct(agg, stats)) continue;
      }
      out.push_back(c);
    }
    return out;
  };

  // ---- Criterion evaluation over one tuple set ----

  // Scaling for sum criteria under sampling (Section 6.2): per entity,
  // scale the sampled sum by total/seen tuples of the entity.
  std::vector<double> sum_scale(static_cast<size_t>(m), 1.0);
  if (!assume_complete) {
    for (int e = 0; e < m; ++e) {
      int64_t seen = rprime_.entity_row_counts()[static_cast<size_t>(e)];
      int64_t total = rprime_.entity_total_counts()[static_cast<size_t>(e)];
      if (seen > 0 && total > seen) {
        sum_scale[static_cast<size_t>(e)] =
            static_cast<double>(total) / static_cast<double>(seen);
      }
    }
  }

  const std::vector<uint32_t>& row_entity = rprime_.row_entity();
  const std::vector<std::string>& names = rprime_.entity_names();
  // The executor's value order (RanksBefore: NaN last either way).
  auto precedes = [ascending](double a, double b) {
    return RanksBefore(a, b, /*desc=*/!ascending);
  };

  // L's entities as R' entity indexes, in list order, and whether a
  // position is its entity's first in L. R' holds exactly L's distinct
  // entities, so a pass over L's positions reaches each of them.
  std::vector<uint32_t> list_entity(k);
  std::vector<bool> first_in_list(k);
  {
    std::unordered_map<std::string_view, uint32_t> index_of;
    for (size_t e = 0; e < names.size(); ++e) {
      index_of.emplace(names[e], static_cast<uint32_t>(e));
    }
    std::vector<bool> seen(names.size(), false);
    for (size_t i = 0; i < k; ++i) {
      auto it = index_of.find(input.entry(i).entity);
      if (it == index_of.end()) {
        return Status::InvalidArgument("entity '" + input.entry(i).entity +
                                       "' of the input list is not in R'");
      }
      list_entity[i] = it->second;
      first_in_list[i] = !seen[it->second];
      seen[it->second] = true;
    }
  }

  // A tuple set's rows grouped by R' entity: entity e's rows are
  // rows[begin[e], begin[e + 1]), ascending like the tuple set, so an
  // entity's aggregate folds its rows in the order a pass over the
  // whole set does and comes out bit-identical. Built on a group's
  // first grouped evaluation and kept for the rest of the walk.
  struct EntityRows {
    std::vector<RowId> rows;
    std::vector<uint32_t> begin;  // m + 1 offsets; empty until built
  };
  std::vector<EntityRows> partitions(groups.size());
  std::vector<uint32_t> next_slot(static_cast<size_t>(m));
  auto entity_rows = [&](size_t g) -> const EntityRows& {
    EntityRows& part = partitions[g];
    if (!part.begin.empty()) return part;
    const TupleSet& rows = groups[g].rows;
    part.begin.assign(static_cast<size_t>(m) + 1, 0);
    for (RowId r : rows) ++part.begin[row_entity[r] + 1];
    for (size_t e = 0; e < static_cast<size_t>(m); ++e) {
      part.begin[e + 1] += part.begin[e];
    }
    std::copy(part.begin.begin(), part.begin.end() - 1, next_slot.begin());
    part.rows.resize(rows.size());
    for (RowId r : rows) part.rows[next_slot[row_entity[r]]++] = r;
    return part;
  };

  // Per-evaluation buffers, allocated once for the whole walk.
  std::vector<double> per_entity(static_cast<size_t>(m));
  std::vector<int64_t> counts(static_cast<size_t>(m));
  std::vector<std::pair<double, int>> ranked_entities;
  std::vector<std::pair<double, RowId>> ranked_rows;
  // The two-column stage's column-wise copy of one tuple set, in the
  // partition's order, and its per-entity column sums.
  std::vector<std::vector<double>> vals(measures.size());
  std::vector<std::vector<double>> col_sums(measures.size());

  // Fills per_entity and counts entity by entity, visiting L's entities
  // in list order and each once; `value_of(e)` aggregates entity e's
  // rows of `part`. In complete mode it stops at the first entity the
  // criterion cannot place where L does: one with no row in the tuple
  // set, or whose value lies more than range_eps from its value in L
  // (a ranked list InstanceEquals to L keeps each entity's value within
  // three steps of it; see range_eps). Returns false on such a stop;
  // every per-entity value is then left unused.
  auto aggregate_entities = [&](const EntityRows& part, auto&& value_of) {
    for (size_t i = 0; i < k; ++i) {
      const uint32_t e = list_entity[i];
      if (first_in_list[i]) {
        counts[e] = part.begin[e + 1] - part.begin[e];
        per_entity[e] = counts[e] > 0 ? value_of(e) : 0.0;
      }
      if (assume_complete &&
          (counts[e] == 0 || !ValuesClose(per_entity[e],
                                          input_values_in_order[i],
                                          range_eps))) {
        return false;
      }
    }
    return true;
  };

  // Ranks the covered entities (counts[e] > 0) by per_entity[e] and
  // compares the ranking with L; uncovered entities rank nowhere.
  auto rank_entities = [&](RankingCandidate* cand) {
    ranked_entities.clear();
    for (int e = 0; e < m; ++e) {
      if (counts[static_cast<size_t>(e)] == 0) continue;
      ranked_entities.emplace_back(per_entity[static_cast<size_t>(e)], e);
    }
    std::sort(ranked_entities.begin(), ranked_entities.end(),
              [&](const auto& a, const auto& b) {
                if (precedes(a.first, b.first)) return true;
                if (precedes(b.first, a.first)) return false;
                return names[static_cast<size_t>(a.second)] <
                       names[static_cast<size_t>(b.second)];
              });
    TopKList ranked;
    for (const auto& [v, e] : ranked_entities) {
      ranked.Append(names[static_cast<size_t>(e)], v);
    }
    cand->exact = ranked.InstanceEquals(input, options_.rel_eps);
    // Entity-aligned distance: uncovered entities keep value 0 and pay
    // their full input value.
    cand->distance = NormalizedL1(per_entity, rprime_.entity_values());
    return assume_complete ? cand->exact : true;
  };

  // Evaluates (expr, agg) over group g's tuple set; returns the
  // candidate if it qualifies (exact in complete mode, scored
  // otherwise).
  auto evaluate = [&](size_t g, const RankExpr& expr, AggFn agg)
      -> std::pair<bool, RankingCandidate> {
    ++info->tuple_set_evaluations;
    RankingCandidate cand;
    cand.expr = expr;
    cand.agg = agg;

    if (agg == AggFn::kNone) {
      // Rank individual tuples. Complete mode keeps the criterion only
      // when its top k rows are InstanceEquals to L, and that test
      // begins by comparing the lengths and then the leading values.
      // Both are known in O(n) before the sort (the length falls short
      // when the tuple set has fewer than k rows; the leading value is
      // the first row under `precedes`, which is what the sort puts
      // first), so a criterion failing either is rejected here.
      ranked_rows.clear();
      double lead = 0.0;
      for (RowId r : groups[g].rows) {
        double v = expr.Eval(slice, r);
        if (ranked_rows.empty() || precedes(v, lead)) lead = v;
        ranked_rows.emplace_back(v, r);
      }
      if (assume_complete &&
          (ranked_rows.size() < k ||
           !ValuesClose(lead, input_values_in_order[0], options_.rel_eps))) {
        return {false, cand};
      }
      std::sort(ranked_rows.begin(), ranked_rows.end(),
                [&](const auto& a, const auto& b) {
                  if (precedes(a.first, b.first)) return true;
                  if (precedes(b.first, a.first)) return false;
                  const std::string& na = names[row_entity[a.second]];
                  const std::string& nb = names[row_entity[b.second]];
                  if (na != nb) return na < nb;
                  return a.second < b.second;
                });
      if (ranked_rows.size() > k) ranked_rows.resize(k);
      TopKList ranked;
      for (const auto& [v, r] : ranked_rows) {
        ranked.Append(names[row_entity[r]], v);
      }
      cand.exact = ranked.InstanceEquals(input, options_.rel_eps);
      // Unlike grouped criteria (whose values are entity-aligned), row
      // ranking has no entity alignment built in: a wrong tuple set can
      // produce L-like VALUES from the wrong entities. Blend the value
      // distance with Fagin's footrule over the entity sequences so
      // such impostors score poorly.
      std::vector<double> top_values = ranked.Values();
      double value_distance =
          NormalizedL1(top_values, input_values_in_order);
      double rank_distance =
          NormalizedFootrule(ranked.Entities(), input.Entities());
      cand.distance = (value_distance + rank_distance) / 2.0;
      bool keep = assume_complete ? cand.exact : true;
      return {keep, cand};
    }

    const EntityRows& part = entity_rows(g);
    auto value_of = [&](uint32_t e) {
      AggState st;
      for (uint32_t t = part.begin[e]; t < part.begin[e + 1]; ++t) {
        st.Add(expr.Eval(slice, part.rows[t]));
      }
      double v = st.Finish(agg);
      return agg == AggFn::kSum ? v * sum_scale[e] : v;
    };
    bool keep = aggregate_entities(part, value_of) && rank_entities(&cand);
    return {keep, cand};
  };

  // Runs one stage over all groups; returns true if any exact
  // candidate was produced (early-stop signal in complete mode).
  auto run_stage = [&](const Stage& stage, const std::vector<int>& columns)
      -> bool {
    bool any_exact = false;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (gate.exhausted()) break;
      auto already_have = [&](const RankExpr& expr) {
        for (const RankingCandidate& existing : rankings[g].candidates) {
          if (existing.expr == expr && existing.agg == stage.agg)
            return true;
        }
        return false;
      };
      auto emit = [&](std::pair<bool, RankingCandidate> scored) {
        if (scored.first) {
          any_exact |= scored.second.exact;
          rankings[g].candidates.push_back(std::move(scored.second));
        }
      };
      if (stage.two_column) {
        // Materialize the tuple set column-wise once, entity by entity:
        // an entity's values are then contiguous, and its per-column
        // sums come out of the same pass. sum(A+B) takes an entity's
        // value from two sums in O(1); sum(A*B) sums the products of
        // the entity's own rows (products do not decompose).
        const EntityRows& part = entity_rows(g);
        const size_t n_rows = part.rows.size();
        for (size_t ci = 0; ci < measures.size(); ++ci) {
          const Column& col = slice.column(measures[ci]);
          std::vector<double>& v = vals[ci];
          std::vector<double>& s = col_sums[ci];
          v.resize(n_rows);
          s.assign(static_cast<size_t>(m), 0.0);
          for (size_t e = 0; e < static_cast<size_t>(m); ++e) {
            for (uint32_t t = part.begin[e]; t < part.begin[e + 1]; ++t) {
              v[t] = col.NumericAt(part.rows[t]);
              s[e] += v[t];
            }
          }
        }
        // Scores a sum(A+B) / sum(A*B) pair from its per-entity values.
        auto emit_pair = [&](const RankExpr& expr, auto&& value_of) {
          ++info->tuple_set_evaluations;
          RankingCandidate cand;
          cand.expr = expr;
          cand.agg = AggFn::kSum;
          bool keep =
              aggregate_entities(part, value_of) && rank_entities(&cand);
          emit({keep, std::move(cand)});
        };
        for (size_t i = 0; i < measures.size() && !gate.exhausted(); ++i) {
          for (size_t j = i + 1; j < measures.size(); ++j) {
            if (gate.Tick() != TerminationReason::kCompleted) break;
            if (options_.enable_sum_of_two) {
              RankExpr expr = RankExpr::Add(measures[i], measures[j]);
              if (!already_have(expr)) {
                emit_pair(expr, [&](uint32_t e) {
                  return (col_sums[i][e] + col_sums[j][e]) * sum_scale[e];
                });
              }
            }
            if (options_.enable_product_of_two) {
              RankExpr expr = RankExpr::Mul(measures[i], measures[j]);
              if (!already_have(expr)) {
                const std::vector<double>& va = vals[i];
                const std::vector<double>& vb = vals[j];
                emit_pair(expr, [&](uint32_t e) {
                  double sum = 0.0;
                  for (uint32_t t = part.begin[e]; t < part.begin[e + 1];
                       ++t) {
                    sum += va[t] * vb[t];
                  }
                  return sum * sum_scale[e];
                });
              }
            }
          }
        }
      } else {
        for (int c : columns) {
          if (gate.Tick() != TerminationReason::kCompleted) break;
          RankExpr expr = RankExpr::Column(c);
          if (!already_have(expr)) emit(evaluate(g, expr, stage.agg));
        }
      }
    }
    return any_exact;
  };

  // ---- Figure 4 pre-order walk ----
  std::vector<AggFn> single_aggs = options_.single_column_aggs;
  if (options_.enable_min_count) {
    single_aggs.push_back(AggFn::kMin);
    single_aggs.push_back(AggFn::kCount);
  }
  bool two_column_pending =
      options_.enable_sum_of_two || options_.enable_product_of_two;

  std::vector<Stage> plan;
  for (AggFn agg : single_aggs) {
    if (agg == AggFn::kNone && two_column_pending) {
      plan.push_back({AggFn::kSum, Technique::kRPrimeFallback, true});
      two_column_pending = false;
    }
    if (agg == AggFn::kMax || agg == AggFn::kAvg) {
      plan.push_back({agg, Technique::kTopEntities, false});
      plan.push_back({agg, Technique::kHistogram, false});
    }
    plan.push_back({agg, Technique::kRPrimeFallback, false});
  }
  if (two_column_pending) {
    plan.push_back({AggFn::kSum, Technique::kRPrimeFallback, true});
  }

  // Lazily computed histogram column set (unlike the top-entity
  // columns, it does not depend on the aggregate).
  std::vector<int> hist_cols;
  bool hist_cols_ready = false;

  for (const Stage& stage : plan) {
    if (gate.exhausted()) break;
    std::vector<int> columns;
    switch (stage.technique) {
      case Technique::kTopEntities:
        columns = top_entity_columns(stage.agg);
        if (columns.empty()) continue;
        info->used_top_entities = true;
        info->top_entity_candidate_columns =
            static_cast<int>(columns.size());
        break;
      case Technique::kHistogram:
        if (!hist_cols_ready) {
          hist_cols = histogram_columns();
          hist_cols_ready = true;
        }
        if (hist_cols.empty()) continue;
        info->used_histograms = true;
        info->histogram_candidate_columns =
            static_cast<int>(hist_cols.size());
        columns = hist_cols;
        break;
      case Technique::kRPrimeFallback:
        info->used_fallback = true;
        if (!stage.two_column) columns = fallback_columns(stage.agg);
        break;
    }
    bool any_exact = run_stage(stage, columns);
    // Early exit only in complete mode: the first technique producing a
    // valid criterion terminates the walk (Figure 4's shaded subtree).
    if (assume_complete && !exhaustive && any_exact) break;
  }

  // Scored mode keeps only the most plausible criteria per tuple set;
  // otherwise every group carries every criterion and the candidate
  // list explodes with near-duplicates (see PaleoOptions).
  if (!assume_complete && options_.max_criteria_per_group > 0) {
    size_t cap = static_cast<size_t>(options_.max_criteria_per_group);
    for (GroupRanking& gr : rankings) {
      if (gr.candidates.size() <= cap) continue;
      std::stable_sort(gr.candidates.begin(), gr.candidates.end(),
                       [](const RankingCandidate& a,
                          const RankingCandidate& b) {
                         return a.distance < b.distance;
                       });
      gr.candidates.resize(cap);
    }
  }
  info->termination = gate.reason();
  return rankings;
}

}  // namespace paleo
