// Differential test of RankingFinder::Find against a reference that
// evaluates every criterion in full: per-entity aggregation, a sort of
// every ranked item, a TopKList and InstanceEquals. Find rejects most
// complete-mode criteria from their covered count and leading value
// before sorting and shares its buffers across the walk; its output
// must still equal the reference's, criterion by criterion.
//
// Relations are drawn from a seed: ties at the k-th value, values 1-3
// rel_eps apart, -0.0/+0.0, +-inf and NaN, ascending and descending
// lists, unaggregated lists with repeated entities, and lists perturbed
// off every criterion. PALEO_RANKING_SEED=<seed> replays a run (the seed
// is printed at startup).
//
// No stats catalog is used: the walk then evaluates every measure at
// every stage, which is the most evaluations per tuple set; column
// pre-selection is covered by ranking_finder_test, and the catalog's
// histograms are not defined for NaN or infinite values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"
#include "paleo/predicate_miner.h"
#include "paleo/ranking_finder.h"
#include "stats/distance.h"

namespace paleo {
namespace {

uint64_t BaseSeed() {
  if (const char* env = std::getenv("PALEO_RANKING_SEED")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<uint64_t>(v);
  }
  return 20261018ULL;
}

constexpr double kEps = 1e-9;  // PaleoOptions::rel_eps default

// ---- Reference: the Figure 4 walk without a catalog, every criterion
// evaluated in full ----

struct Reference {
  std::vector<GroupRanking> rankings;
  int64_t evaluations = 0;
};

Reference ReferenceFind(const RPrime& rp, const PaleoOptions& options,
                        const std::vector<PredicateGroup>& groups,
                        const TopKList& input, bool assume_complete,
                        bool exhaustive) {
  Reference ref;
  ref.rankings.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    ref.rankings[g].group_id = static_cast<int>(g);
  }
  const Table& slice = rp.table();
  const std::vector<int>& measures = slice.schema().measure_indices();
  if (measures.empty() || input.empty()) return ref;
  const size_t m = static_cast<size_t>(rp.num_entities());
  const size_t k = input.size();
  const std::vector<std::string>& names = rp.entity_names();
  const std::vector<uint32_t>& row_entity = rp.row_entity();

  std::vector<double> values = input.Values();
  const bool ascending = std::is_sorted(values.begin(), values.end()) &&
                         !std::is_sorted(values.rbegin(), values.rend());
  // The executor's value order: NaN ranks last either way.
  auto precedes = [ascending](double a, double b) {
    return RanksBefore(a, b, /*desc=*/!ascending);
  };
  std::vector<double> scale(m, 1.0);
  for (size_t e = 0; e < m && !assume_complete; ++e) {
    int64_t seen = rp.entity_row_counts()[e];
    int64_t total = rp.entity_total_counts()[e];
    if (seen > 0 && total > seen) {
      scale[e] = static_cast<double>(total) / static_cast<double>(seen);
    }
  }

  // Ranks the covered entities by their per-entity values.
  auto rank = [&](const std::vector<double>& per_entity,
                  const std::vector<int64_t>& counts, RankingCandidate* c) {
    std::vector<std::pair<double, size_t>> items;
    for (size_t e = 0; e < m; ++e) {
      if (counts[e] > 0) items.emplace_back(per_entity[e], e);
    }
    std::sort(items.begin(), items.end(), [&](const auto& a, const auto& b) {
      if (precedes(a.first, b.first)) return true;
      if (precedes(b.first, a.first)) return false;
      return names[a.second] < names[b.second];
    });
    TopKList ranked;
    for (const auto& [v, e] : items) ranked.Append(names[e], v);
    c->exact = ranked.InstanceEquals(input, options.rel_eps);
    c->distance = NormalizedL1(per_entity, rp.entity_values());
  };

  auto evaluate = [&](const TupleSet& rows, const RankExpr& expr,
                      AggFn agg) {
    ++ref.evaluations;
    RankingCandidate c;
    c.expr = expr;
    c.agg = agg;
    if (agg == AggFn::kNone) {
      std::vector<std::pair<double, RowId>> items;
      for (RowId r : rows) items.emplace_back(expr.Eval(slice, r), r);
      std::sort(items.begin(), items.end(), [&](const auto& a,
                                                const auto& b) {
        if (precedes(a.first, b.first)) return true;
        if (precedes(b.first, a.first)) return false;
        const std::string& na = names[row_entity[a.second]];
        const std::string& nb = names[row_entity[b.second]];
        if (na != nb) return na < nb;
        return a.second < b.second;
      });
      if (items.size() > k) items.resize(k);
      TopKList ranked;
      for (const auto& [v, r] : items) ranked.Append(names[row_entity[r]], v);
      c.exact = ranked.InstanceEquals(input, options.rel_eps);
      c.distance = (NormalizedL1(ranked.Values(), values) +
                    NormalizedFootrule(ranked.Entities(), input.Entities())) /
                   2.0;
      return c;
    }
    std::vector<AggState> states(m);
    for (RowId r : rows) states[row_entity[r]].Add(expr.Eval(slice, r));
    std::vector<double> per_entity(m, 0.0);
    std::vector<int64_t> counts(m, 0);
    for (size_t e = 0; e < m; ++e) {
      counts[e] = states[e].count;
      if (counts[e] == 0) continue;
      per_entity[e] = states[e].Finish(agg);
      if (agg == AggFn::kSum) per_entity[e] *= scale[e];
    }
    rank(per_entity, counts, &c);
    return c;
  };

  // sum(A+B) adds the per-entity sums of A and B; sum(A*B) sums the row
  // products. Both accumulate in row order.
  auto evaluate_pair = [&](const TupleSet& rows, int a, int b, bool sum) {
    ++ref.evaluations;
    RankingCandidate c;
    c.expr = sum ? RankExpr::Add(a, b) : RankExpr::Mul(a, b);
    c.agg = AggFn::kSum;
    std::vector<double> sum_a(m, 0.0), sum_b(m, 0.0), per_entity(m, 0.0);
    std::vector<int64_t> counts(m, 0);
    for (RowId r : rows) {
      size_t e = row_entity[r];
      double va = slice.column(a).NumericAt(r);
      double vb = slice.column(b).NumericAt(r);
      ++counts[e];
      sum_a[e] += va;
      sum_b[e] += vb;
      per_entity[e] += va * vb;
    }
    for (size_t e = 0; e < m; ++e) {
      per_entity[e] = (sum ? sum_a[e] + sum_b[e] : per_entity[e]) * scale[e];
    }
    rank(per_entity, counts, &c);
    return c;
  };

  // Stages: (aggregate, two-column). Without a catalog only the R'
  // fallback stage of each aggregate runs.
  std::vector<AggFn> aggs = options.single_column_aggs;
  if (options.enable_min_count) {
    aggs.push_back(AggFn::kMin);
    aggs.push_back(AggFn::kCount);
  }
  bool pairs_pending = options.enable_sum_of_two ||
                       options.enable_product_of_two;
  std::vector<std::pair<AggFn, bool>> plan;
  for (AggFn agg : aggs) {
    if (agg == AggFn::kNone && pairs_pending) {
      plan.emplace_back(AggFn::kSum, true);
      pairs_pending = false;
    }
    plan.emplace_back(agg, false);
  }
  if (pairs_pending) plan.emplace_back(AggFn::kSum, true);

  for (const auto& [agg, two_column] : plan) {
    bool any_exact = false;
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<RankingCandidate>& out = ref.rankings[g].candidates;
      auto have = [&](const RankExpr& expr) {
        for (const RankingCandidate& c : out) {
          if (c.expr == expr && c.agg == agg) return true;
        }
        return false;
      };
      auto emit = [&](RankingCandidate c) {
        if (assume_complete && !c.exact) return;
        any_exact |= c.exact;
        out.push_back(std::move(c));
      };
      const TupleSet& rows = groups[g].rows;
      if (two_column) {
        for (size_t i = 0; i < measures.size(); ++i) {
          for (size_t j = i + 1; j < measures.size(); ++j) {
            int a = measures[i], b = measures[j];
            if (options.enable_sum_of_two && !have(RankExpr::Add(a, b))) {
              emit(evaluate_pair(rows, a, b, /*sum=*/true));
            }
            if (options.enable_product_of_two &&
                !have(RankExpr::Mul(a, b))) {
              emit(evaluate_pair(rows, a, b, /*sum=*/false));
            }
          }
        }
      } else {
        for (int c : measures) {
          if (!have(RankExpr::Column(c))) {
            emit(evaluate(rows, RankExpr::Column(c), agg));
          }
        }
      }
    }
    if (assume_complete && !exhaustive && any_exact) break;
  }

  if (!assume_complete && options.max_criteria_per_group > 0) {
    size_t cap = static_cast<size_t>(options.max_criteria_per_group);
    for (GroupRanking& gr : ref.rankings) {
      if (gr.candidates.size() <= cap) continue;
      std::stable_sort(gr.candidates.begin(), gr.candidates.end(),
                       [](const RankingCandidate& a,
                          const RankingCandidate& b) {
                         return a.distance < b.distance;
                       });
      gr.candidates.resize(cap);
    }
  }
  return ref;
}

// ---- Random relations and lists ----

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// One measure value. Small pools make ties (at the k-th value too);
// the pool holds values 1-3 rel_eps apart, and with probability
// `special` a value is -0.0, +0.0, +-inf or NaN.
double DrawValue(Rng* rng, bool integral, double special) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (rng->Bernoulli(special)) {
    const double specials[] = {-0.0, 0.0, kInf, -kInf,
                               std::numeric_limits<double>::quiet_NaN()};
    return specials[rng->Uniform(5)];
  }
  if (integral) return static_cast<double>(rng->UniformInt(0, 4));
  const double pool[] = {0.5,
                         1.0,
                         1.0 * (1 + kEps),
                         1.0 * (1 + 2 * kEps),
                         1.0 * (1 + 3 * kEps),
                         2.0,
                         3.0,
                         1e6,
                         1e6 * (1 + 2 * kEps)};
  return pool[rng->Uniform(sizeof(pool) / sizeof(pool[0]))];
}

Table RandomTable(Rng* rng, double special) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d1", DataType::kString, FieldRole::kDimension},
      {"d2", DataType::kInt64, FieldRole::kDimension},
      {"i", DataType::kInt64, FieldRole::kMeasure},
      {"x", DataType::kDouble, FieldRole::kMeasure},
      {"y", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  Table table(*schema);
  const int64_t entities = rng->UniformInt(2, 12);
  for (int64_t e = 0; e < entities; ++e) {
    const int64_t rows = rng->UniformInt(1, 6);
    for (int64_t r = 0; r < rows; ++r) {
      // Integer measures cannot hold NaN or infinities.
      double i = DrawValue(rng, /*integral=*/true, 0.0);
      EXPECT_TRUE(
          table
              .AppendRow({Value::String("E" + std::to_string(e)),
                          Value::String(rng->Bernoulli(0.7) ? "p" : "q"),
                          Value::Int64(rng->UniformInt(0, 1)),
                          Value::Int64(static_cast<int64_t>(i)),
                          Value::Double(DrawValue(rng, false, special)),
                          Value::Double(DrawValue(rng, false, special))})
              .ok());
    }
  }
  return table;
}

// L: the result of a random hidden query, then at times perturbed so
// that no criterion reproduces it exactly (or one barely does).
TopKList RandomList(Rng* rng, const Table& table) {
  const AggFn aggs[] = {AggFn::kMax, AggFn::kAvg, AggFn::kSum,
                        AggFn::kNone, AggFn::kMin, AggFn::kCount};
  TopKQuery q;
  q.agg = aggs[rng->Uniform(6)];
  int a = 3 + static_cast<int>(rng->Uniform(3));
  int b = 3 + static_cast<int>(rng->Uniform(3));
  q.expr = (q.agg == AggFn::kSum && a != b && rng->Bernoulli(0.3))
               ? (rng->Bernoulli(0.5) ? RankExpr::Add(a, b)
                                      : RankExpr::Mul(a, b))
               : RankExpr::Column(a);
  if (rng->Bernoulli(0.5)) {
    q.predicate = Predicate({AtomicPredicate(1, Value::String("p"))});
  }
  q.order = rng->Bernoulli(0.3) ? SortOrder::kAsc : SortOrder::kDesc;
  q.k = static_cast<int>(rng->UniformInt(1, 8));
  Executor ex;
  auto list = ex.Execute(table, q, ExecContext{});
  EXPECT_TRUE(list.ok());
  std::vector<TopKEntry> entries = list->entries();
  if (entries.empty()) return TopKList();
  switch (rng->Uniform(6)) {
    case 0: {  // off by 1-3 rel_eps, often at the leading value
      size_t at = rng->Bernoulli(0.5) ? 0 : rng->Uniform(entries.size());
      double step = 1.0 + static_cast<double>(rng->UniformInt(1, 3)) * kEps;
      entries[at].value *= step;
      break;
    }
    case 1: {  // a sign flip: -0.0 for +0.0, or a wrong sign
      size_t at = rng->Uniform(entries.size());
      entries[at].value = -entries[at].value;
      break;
    }
    case 2:  // two entities swapped
      if (entries.size() > 1) {
        std::swap(entries[0].entity, entries[entries.size() - 1].entity);
      }
      break;
    default:  // exact
      break;
  }
  return TopKList(std::move(entries));
}

void ExpectSameRankings(const std::vector<GroupRanking>& got,
                        const Reference& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.rankings.size()) << where;
  for (size_t g = 0; g < got.size(); ++g) {
    const std::vector<RankingCandidate>& a = got[g].candidates;
    const std::vector<RankingCandidate>& b = want.rankings[g].candidates;
    EXPECT_EQ(got[g].group_id, want.rankings[g].group_id) << where;
    ASSERT_EQ(a.size(), b.size()) << where << " group " << g;
    for (size_t i = 0; i < a.size(); ++i) {
      std::string at = where + " group " + std::to_string(g) + " #" +
                       std::to_string(i);
      EXPECT_TRUE(a[i].expr == b[i].expr) << at;
      EXPECT_EQ(a[i].agg, b[i].agg) << at;
      EXPECT_EQ(a[i].exact, b[i].exact) << at;
      EXPECT_TRUE(SameBits(a[i].distance, b[i].distance))
          << at << ": " << a[i].distance << " vs " << b[i].distance;
    }
  }
}

TEST(RankingDifferentialTest, FindMatchesFullEvaluation) {
  const uint64_t seed = BaseSeed();
  std::printf("ranking: PALEO_RANKING_SEED=%llu (export to replay)\n",
              static_cast<unsigned long long>(seed));
  int lists = 0, with_exact = 0, with_special = 0;
  int64_t evaluations = 0;
  for (int iter = 0; iter < 400; ++iter) {
    Rng rng(seed * 1000003ULL + static_cast<uint64_t>(iter));
    const double special = iter % 3 == 0 ? 0.15 : 0.0;
    Table table = RandomTable(&rng, special);
    TopKList list = RandomList(&rng, table);
    if (list.empty()) continue;
    ++lists;
    for (const TopKEntry& e : list.entries()) {
      if (!std::isfinite(e.value) || (e.value == 0 && std::signbit(e.value))) {
        ++with_special;
        break;
      }
    }
    // Complete mode sees all of R'; scored mode a 70% sample, so sums
    // are scaled per entity.
    EntityIndex index = EntityIndex::Build(table);
    auto full = RPrime::Build(table, index, list);
    ASSERT_TRUE(full.ok());
    std::vector<RowId> sample;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (rng.Bernoulli(0.7)) sample.push_back(static_cast<RowId>(r));
    }
    auto sampled = RPrime::Build(table, index, list, &sample);
    ASSERT_TRUE(sampled.ok());

    PaleoOptions options;
    options.max_predicate_size = 2;
    options.enable_min_count = rng.Bernoulli(0.5);
    options.enable_product_of_two = rng.Bernoulli(0.5);
    options.max_criteria_per_group = rng.Bernoulli(0.5) ? 4 : 16;
    for (int mode = 0; mode < 3; ++mode) {
      const bool complete = mode < 2;
      const bool exhaustive = mode == 1;
      const RPrime& rp = complete ? *full : *sampled;
      PaleoOptions mined = options;
      mined.coverage_ratio = complete ? 1.0 : 0.6;
      auto mining = PredicateMiner(rp, mined).Mine();
      ASSERT_TRUE(mining.ok());

      RankingFinder finder(rp, /*catalog=*/nullptr, options);
      RankingSearchInfo info;
      auto got = finder.Find(mining->groups, list, complete, &info,
                             exhaustive);
      ASSERT_TRUE(got.ok());
      Reference want = ReferenceFind(rp, options, mining->groups, list,
                                     complete, exhaustive);
      std::string where = "seed " + std::to_string(seed) + " iter " +
                          std::to_string(iter) + " mode " +
                          std::to_string(mode);
      EXPECT_EQ(info.tuple_set_evaluations, want.evaluations) << where;
      ExpectSameRankings(*got, want, where);
      evaluations += want.evaluations;
      if (complete) {
        for (const GroupRanking& gr : want.rankings) {
          if (!gr.candidates.empty()) {
            ++with_exact;
            break;
          }
        }
      }
      if (HasFailure()) return;
    }
  }
  // The draw must exercise both outcomes and the special values.
  EXPECT_GT(lists, 300);
  EXPECT_GT(with_exact, 100);
  EXPECT_GT(with_special, 10);
  EXPECT_GT(evaluations, 50000);
}

// NaN ranks last in both directions, so a tuple set whose first row is
// NaN can still lead with a number: an unaggregated list whose k rows
// are all numbers matches although the tuple set holds a NaN. The
// pre-check must take its leading value in the same order as the sort.
TEST(RankingDifferentialTest, LeadingNanRowRanksLast) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d1", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  // E0's first row, the first row of R', is NaN. E0 also holds the two
  // largest and the two smallest numbers, so L repeats E0 in both
  // directions and no grouped criterion can reproduce it.
  const std::pair<const char*, double> rows[] = {
      {"E0", std::numeric_limits<double>::quiet_NaN()},
      {"E0", 0.5},
      {"E0", 0.7},
      {"E0", 9.0},
      {"E0", 8.0},
      {"E1", 3.0},
      {"E2", 4.0},
      {"E3", 1.0},
      {"E4", 2.0},
  };
  for (const auto& [entity, x] : rows) {
    ASSERT_TRUE(table
                    .AppendRow({Value::String(entity), Value::String("p"),
                                Value::Double(x)})
                    .ok());
  }
  EntityIndex index = EntityIndex::Build(table);
  for (SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
    TopKQuery q;
    q.expr = RankExpr::Column(2);
    q.agg = AggFn::kNone;
    q.order = order;
    q.k = 3;
    auto list = Executor().Execute(table, q, ExecContext{});
    ASSERT_TRUE(list.ok());
    ASSERT_EQ(list->size(), 3u);
    EXPECT_EQ(list->entry(0).entity, "E0");
    auto rp = RPrime::Build(table, index, *list);
    ASSERT_TRUE(rp.ok());
    PaleoOptions options;
    auto mining = PredicateMiner(*rp, options).Mine();
    ASSERT_TRUE(mining.ok());
    RankingSearchInfo info;
    auto got = RankingFinder(*rp, /*catalog=*/nullptr, options)
                   .Find(mining->groups, *list, /*assume_complete=*/true,
                         &info, /*exhaustive=*/false);
    ASSERT_TRUE(got.ok());
    const std::string where =
        order == SortOrder::kDesc ? "DESC" : "ASC";
    ExpectSameRankings(*got,
                       ReferenceFind(*rp, options, mining->groups, *list,
                                     /*assume_complete=*/true,
                                     /*exhaustive=*/false),
                       where);
    bool kept = false;
    for (const GroupRanking& gr : *got) {
      for (const RankingCandidate& c : gr.candidates) {
        kept |= c.expr == q.expr && c.agg == AggFn::kNone && c.exact;
      }
    }
    EXPECT_TRUE(kept) << where << ": x unaggregated reproduces L";
  }
}

}  // namespace
}  // namespace paleo
