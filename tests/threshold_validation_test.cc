// Differential tests for threshold-pruned validation: randomized
// chunked tables x candidate queries asserting that the pruned executor
// path (ExecContext::threshold) accepts and rejects EXACTLY the same
// candidates as the unpruned full scan — sequentially and
// morsel-parallel, with and without NaN measures — plus unit tests of
// the ThresholdMonitor's deactivation rules, budget-interrupt
// precedence over refutation, concurrent shared-cache stress, and
// full-pipeline equivalence with pruning on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_points.h"
#include "common/random.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "datagen/tpch_gen.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "engine/threshold_monitor.h"
#include "oracle/naive_executor.h"
#include "paleo/paleo.h"
#include "workload/workload.h"

namespace paleo {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// ---- Randomized workload generation -------------------------------------

Schema DiffSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s1", DataType::kString, FieldRole::kDimension},
      {"s2", DataType::kString, FieldRole::kDimension},
      {"d1", DataType::kInt64, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

const char* kStates[] = {"CA", "NY", "TX", "WA"};

/// Random MULTI-CHUNK table: pruning only engages past one chunk, so
/// the layout straddles several small chunks (and bitmap words). With
/// `nan_measures`, w trends up or down with the row position, so the
/// later chunks' zone maps bound the groups seen early, and w is NaN on
/// every row of e0 and on about one other row in eight: sums turn NaN,
/// and some max/min groups finish NaN.
Table RandomChunkedTable(Rng& rng, size_t num_rows,
                         bool nan_measures = false) {
  Table t(DiffSchema());
  const int num_entities = static_cast<int>(rng.UniformInt(3, 40));
  const bool trend_up = nan_measures && rng.Uniform(2) == 0;
  for (size_t r = 0; r < num_rows; ++r) {
    const int64_t id = rng.UniformInt(0, num_entities - 1);
    std::string s1 = kStates[rng.Uniform(4)];
    std::string s2 = "g" + std::to_string(rng.Uniform(8));
    const int64_t d1 = rng.UniformInt(0, 10);
    const int64_t v = rng.UniformInt(-100, 100);
    double w = rng.UniformDouble(0.0, 100.0);
    if (nan_measures) {
      const double pos = static_cast<double>(r) / static_cast<double>(num_rows);
      w = w / 10.0 + 100.0 * (trend_up ? pos : 1.0 - pos);
      if (id == 0 || rng.Uniform(8) == 0) {
        w = std::numeric_limits<double>::quiet_NaN();
      }
    }
    EXPECT_TRUE(t.AppendRow({Value::String("e" + std::to_string(id)),
                             Value::String(s1), Value::String(s2),
                             Value::Int64(d1), Value::Int64(v),
                             Value::Double(w)})
                    .ok());
  }
  const size_t chunk_sizes[] = {64, 128, 256};
  t.SetChunkRows(chunk_sizes[rng.Uniform(3)]);
  return t;
}

/// Random grouped candidate: 0-3 predicate atoms (sometimes one no row
/// matches), random ranking expression, aggregate, order, and k.
TopKQuery RandomQuery(Rng& rng) {
  TopKQuery q;
  std::vector<AtomicPredicate> atoms;
  const int num_atoms = static_cast<int>(rng.Uniform(4));
  bool used[3] = {false, false, false};
  for (int i = 0; i < num_atoms; ++i) {
    const int pick = static_cast<int>(rng.Uniform(3));
    if (used[pick]) continue;
    used[pick] = true;
    switch (pick) {
      case 0:
        atoms.emplace_back(1, rng.Uniform(8) == 0
                                  ? Value::String("ZZ")
                                  : Value::String(kStates[rng.Uniform(4)]));
        break;
      case 1:
        atoms.emplace_back(
            2, Value::String("g" + std::to_string(rng.Uniform(8))));
        break;
      case 2:
        if (rng.Uniform(2) == 0) {
          atoms.emplace_back(3, Value::Int64(rng.UniformInt(0, 10)));
        } else {
          const int64_t lo = rng.UniformInt(0, 8);
          atoms.push_back(AtomicPredicate::Range(
              3, Value::Int64(lo), Value::Int64(rng.UniformInt(lo, 10))));
        }
        break;
    }
  }
  q.predicate = Predicate(std::move(atoms));
  switch (rng.Uniform(4)) {
    case 0: q.expr = RankExpr::Column(4); break;
    case 1: q.expr = RankExpr::Column(5); break;
    case 2: q.expr = RankExpr::Add(4, 5); break;
    default: q.expr = RankExpr::Mul(4, 5); break;
  }
  const AggFn aggs[] = {AggFn::kMax, AggFn::kMin, AggFn::kSum,
                        AggFn::kAvg, AggFn::kCount};
  q.agg = aggs[rng.Uniform(5)];
  q.order = rng.Uniform(2) == 0 ? SortOrder::kDesc : SortOrder::kAsc;
  q.k = static_cast<int>(rng.UniformInt(1, 15));
  return q;
}

/// A candidate "near" the truth: same k/order (so the monitor applies)
/// with a perturbed predicate, aggregate, or expression — the
/// population where an unsound refutation would actually flip an
/// accept.
TopKQuery PerturbQuery(Rng& rng, const TopKQuery& truth) {
  TopKQuery q = RandomQuery(rng);
  q.k = truth.k;
  q.order = truth.order;
  if (rng.Uniform(3) == 0) {
    q.predicate = truth.predicate;  // same rows, different criterion
  } else if (rng.Uniform(2) == 0) {
    q.expr = truth.expr;
    q.agg = truth.agg;  // same criterion, different rows
  }
  return q;
}

// ---- ThresholdMonitor unit tests ----------------------------------------

TopKList ListOf(std::vector<std::pair<std::string, double>> rows) {
  TopKList l;
  for (auto& [e, v] : rows) l.Append(std::move(e), v);
  return l;
}

TEST(ThresholdMonitorTest, DeactivatesOnUnusableInput) {
  Rng rng(1);
  Table t = RandomChunkedTable(rng, 400);
  // Empty input: nothing to refute against.
  EXPECT_FALSE(ThresholdMonitor(t, TopKList{}, SortOrder::kDesc, 1e-9)
                   .active());
  // Duplicate entities: no grouped query can produce them.
  EXPECT_FALSE(ThresholdMonitor(t, ListOf({{"e0", 5.0}, {"e0", 3.0}}),
                                SortOrder::kDesc, 1e-9)
                   .active());
  // Values sorted against the claimed order.
  EXPECT_FALSE(ThresholdMonitor(t, ListOf({{"e0", 1.0}, {"e1", 9.0}}),
                                SortOrder::kDesc, 1e-9)
                   .active());
  // An entity absent from the table's dictionary: the list can never
  // be reproduced, but refutation targets cannot be resolved either.
  EXPECT_FALSE(ThresholdMonitor(t, ListOf({{"nosuch", 5.0}, {"e0", 3.0}}),
                                SortOrder::kDesc, 1e-9)
                   .active());
}

TEST(ThresholdMonitorTest, ResolvesTargetsAndScopesApplicability) {
  Rng rng(2);
  Table t = RandomChunkedTable(rng, 400);
  const TopKList input = ListOf({{"e0", 9.0}, {"e1", 4.0}, {"e2", 1.5}});
  ThresholdMonitor m(t, input, SortOrder::kDesc, 1e-9);
  ASSERT_TRUE(m.active());
  EXPECT_EQ(m.k(), 3u);
  EXPECT_DOUBLE_EQ(m.worst_value(), 1.5);
  EXPECT_GT(m.slack(), 1e-9) << "slack must be wider than the eps";

  TopKQuery q;
  q.agg = AggFn::kMax;
  q.expr = RankExpr::Column(4);
  q.k = 3;
  q.order = SortOrder::kDesc;
  EXPECT_TRUE(m.AppliesTo(q));
  q.k = 4;
  EXPECT_FALSE(m.AppliesTo(q)) << "k mismatch";
  q.k = 3;
  q.order = SortOrder::kAsc;
  EXPECT_FALSE(m.AppliesTo(q)) << "order mismatch";
  q.order = SortOrder::kDesc;
  q.agg = AggFn::kNone;
  EXPECT_FALSE(m.AppliesTo(q)) << "ungrouped queries have no groups";
}

// ---- Differential accept/reject equivalence -----------------------------

/// The soundness + equivalence contract for one (table, input,
/// candidate) triple on one execution path: the pruned run either
/// reproduces the unpruned result byte-identically or refutes — and it
/// refutes ONLY candidates the unpruned run rejects.
void ExpectPrunedEquivalent(Executor& ex, const Table& t,
                            const TopKQuery& candidate,
                            const TopKList& input,
                            const ThresholdMonitor& monitor,
                            const ExecContext& base_ctx, int workload) {
  auto unpruned = ex.Execute(t, candidate, base_ctx);
  ASSERT_TRUE(unpruned.ok()) << "workload " << workload;
  const bool accept_unpruned = unpruned->InstanceEquals(input);

  ExecContext pruned_ctx = base_ctx;
  pruned_ctx.threshold = &monitor;
  auto pruned = ex.Execute(t, candidate, pruned_ctx);
  if (pruned.ok()) {
    EXPECT_EQ(oracle::BitwiseDiff(*pruned, *unpruned), "")
        << "workload " << workload
        << ": a non-refuted pruned run must be byte-identical";
  } else {
    ASSERT_TRUE(pruned.status().IsQueryRefuted())
        << "workload " << workload << ": " << pruned.status().ToString();
    EXPECT_FALSE(accept_unpruned)
        << "workload " << workload
        << ": refuted a candidate the full execution accepts (UNSOUND)";
  }
  const bool accept_pruned = pruned.ok() && pruned->InstanceEquals(input);
  EXPECT_EQ(accept_unpruned, accept_pruned) << "workload " << workload;
}

/// Draws `num_tables` random tables, a truth query per table and 8
/// candidates around it, and checks each on the sequential and the
/// 4-worker path. Counts the workloads, and those the pruner refutes.
void RunPrunedDifferential(uint64_t seed, int num_tables, bool nan_measures,
                           int* workloads, int* refuted_somewhere) {
  Rng rng(seed);
  ThreadPool pool(4);
  Executor ex;
  for (int ti = 0; ti < num_tables; ++ti) {
    const size_t sizes[] = {200, 500, 1000, 2048, 3000};
    Table t = RandomChunkedTable(rng, sizes[rng.Uniform(5)], nan_measures);
    // The input list L to validate against: a random truth query's
    // genuine result over the table.
    const TopKQuery truth = RandomQuery(rng);
    auto input = ex.Execute(t, truth, ExecContext{});
    ASSERT_TRUE(input.ok());
    if (input->empty()) continue;
    ThresholdMonitor monitor(t, *input, truth.order, 1e-9);

    const ExecContext vec_ctx{};
    const ExecContext par_ctx{.pool = &pool, .scan_threads = 4};
    for (int ci = 0; ci < 8; ++ci) {
      // First candidate is the truth itself: it must NEVER be refuted
      // on any path (soundness), the rest perturb around it.
      const TopKQuery cand = ci == 0 ? truth : PerturbQuery(rng, truth);
      ExpectPrunedEquivalent(ex, t, cand, *input, monitor, vec_ctx,
                             *workloads);
      ExpectPrunedEquivalent(ex, t, cand, *input, monitor, par_ctx,
                             *workloads);
      ExecContext probe_ctx = vec_ctx;
      probe_ctx.threshold = &monitor;
      if (!ex.Execute(t, cand, probe_ctx).ok()) ++*refuted_somewhere;
      ++*workloads;
    }
  }
}

TEST(ThresholdValidationTest, DifferentialPrunedVsUnprunedAcceptSets) {
  int workloads = 0;
  int refuted_somewhere = 0;
  RunPrunedDifferential(20260809, 70, false, &workloads, &refuted_somewhere);
  // The acceptance bar: at least 500 distinct randomized workloads,
  // and the pruner actually fired (the suite is vacuous otherwise).
  EXPECT_GE(workloads, 500);
  EXPECT_GT(refuted_somewhere, 0) << "no workload ever refuted";
}

// The same contract where max/min groups can finish NaN and rank last:
// a foreign group still all NaN mid-scan must not refute the truth.
TEST(ThresholdValidationTest, DifferentialPrunedVsUnprunedWithNanMeasures) {
  int workloads = 0;
  int refuted_somewhere = 0;
  RunPrunedDifferential(20261019, 150, true, &workloads, &refuted_somewhere);
  EXPECT_GE(workloads, 1000);
  EXPECT_GT(refuted_somewhere, 0) << "no workload ever refuted";
}

// ---- All-NaN foreign groups ---------------------------------------------

/// Two 64-row chunks: chunk 0 holds entity X with every w NaN plus A
/// and B at w = a0 / b0; chunk 1 holds only A and B, at w = rest. X's
/// max/min finishes as NaN and ranks last, but after chunk 0 its raw
/// state still holds the -inf/+inf seeds.
Table AllNanForeignTable(double a0, double b0, double rest) {
  Table t(DiffSchema());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const char* const names[] = {"X", "A", "B"};
  for (int r = 0; r < 128; ++r) {
    // Chunk 0 cycles X, A, B; chunk 1 alternates A, B.
    const int id = r < 64 ? r % 3 : 1 + r % 2;
    const double w = r >= 64 ? rest : id == 0 ? nan : id == 1 ? a0 : b0;
    EXPECT_TRUE(t.AppendRow({Value::String(names[id]), Value::String("CA"),
                             Value::String("g0"), Value::Int64(0),
                             Value::Int64(0), Value::Double(w)})
                    .ok());
  }
  t.SetChunkRows(64);
  return t;
}

TEST(ThresholdValidationTest, AllNanForeignGroupNeverRefutesTheTruth) {
  struct Case {
    AggFn agg;
    SortOrder order;
    double a0, b0, rest;
  };
  // With chunk 1 left, X's seed bound (max ASC: ub = max(-inf, 2);
  // min DESC: lb = min(+inf, 8)) beats L's cut (10; 1), yet X finishes
  // as NaN and stays out of the top 2.
  const Case cases[] = {{AggFn::kMax, SortOrder::kAsc, 5.0, 10.0, 2.0},
                        {AggFn::kMin, SortOrder::kDesc, 5.0, 1.0, 8.0}};
  ThreadPool pool(2);
  Executor ex;
  for (const Case& c : cases) {
    const Table t = AllNanForeignTable(c.a0, c.b0, c.rest);
    TopKQuery q;
    q.expr = RankExpr::Column(5);
    q.agg = c.agg;
    q.order = c.order;
    q.k = 2;
    auto input = ex.Execute(t, q, ExecContext{});
    ASSERT_TRUE(input.ok());
    ASSERT_TRUE(*input == ListOf({{"A", c.a0}, {"B", c.b0}}));
    ThresholdMonitor monitor(t, *input, q.order, 1e-9);
    ASSERT_TRUE(monitor.active());
    for (const ExecContext& base :
         {ExecContext{}, ExecContext{.pool = &pool, .scan_threads = 2}}) {
      ExecContext pruned_ctx = base;
      pruned_ctx.threshold = &monitor;
      auto pruned = ex.Execute(t, q, pruned_ctx);
      ASSERT_TRUE(pruned.ok())
          << AggFnToString(c.agg) << ": " << pruned.status().ToString();
      EXPECT_TRUE(*pruned == *input) << AggFnToString(c.agg);
      ExpectPrunedEquivalent(ex, t, q, *input, monitor, base, 0);
    }
  }
}

// ---- Refutation rules at their exact edges ------------------------------

constexpr double kEdgeEps = 1e-9;

/// The refutation comparison of threshold_monitor.cc (`Above`): x
/// exceeds v by more than `slack` relative to max(|x|, |v|, 1).
bool BeyondSlack(double x, double v, double slack) {
  return x - v > slack * std::max({std::abs(x), std::abs(v), 1.0});
}

/// The double nearest `v` on the side `dir` (+-inf) that lies beyond
/// the slack from it; one ulp back toward `v` lies inside.
double FirstBeyondSlack(double v, double dir, double slack) {
  const bool above = dir > v;
  auto beyond = [&](double x) {
    return above ? BeyondSlack(x, v, slack) : BeyondSlack(v, x, slack);
  };
  double x = v + (above ? 1 : -1) * slack * std::max(std::abs(v), 1.0);
  while (beyond(x)) x = std::nextafter(x, v);
  while (!beyond(x)) x = std::nextafter(x, dir);
  return x;
}

/// One row of an edge table: entity, w (DOUBLE measure), v (INT64)
/// and the dimension s1.
struct EdgeRow {
  std::string entity;
  double w;
  int64_t v;
  std::string s1 = "CA";
};

/// Four 64-row chunks: `first` opens chunk 0, `later` opens chunk 2,
/// and every other row belongs to one of eight filler entities "z<i>"
/// (named after every other entity) at w = filler_w, v = filler_v. A
/// group seen in chunk 0 is judged while three chunks remain.
Table EdgeTable(const std::vector<EdgeRow>& first,
                const std::vector<EdgeRow>& later, double filler_w,
                int64_t filler_v) {
  Table t(DiffSchema());
  for (int r = 0; r < 256; ++r) {
    EdgeRow row{"z" + std::to_string(r % 8), filler_w, filler_v};
    if (r < static_cast<int>(first.size())) {
      row = first[static_cast<size_t>(r)];
    } else if (r >= 128 && r - 128 < static_cast<int>(later.size())) {
      row = later[static_cast<size_t>(r - 128)];
    }
    EXPECT_TRUE(t.AppendRow({Value::String(row.entity), Value::String(row.s1),
                             Value::String("g0"), Value::Int64(0),
                             Value::Int64(row.v), Value::Double(row.w)})
                    .ok());
  }
  t.SetChunkRows(64);
  return t;
}

/// Runs `q` against `input` with and without the threshold monitor,
/// sequentially and on 2 workers: each verdict (a result that
/// InstanceEquals `input`) must be the naive oracle's. Sequentially the
/// monitor must refute exactly when `refutes`, which pins the edge.
void ExpectEdgeVerdicts(const Table& t, const TopKQuery& q,
                        const TopKList& input, bool refutes,
                        const std::string& label) {
  SCOPED_TRACE(label);
  const bool oracle_accepts =
      oracle::NaiveExecute(t, q).InstanceEquals(input, kEdgeEps);
  ThresholdMonitor monitor(t, input, q.order, kEdgeEps);
  ASSERT_TRUE(monitor.active());
  ASSERT_TRUE(monitor.AppliesTo(q));
  ThreadPool pool(2);
  Executor ex;
  for (const ExecContext& base_ctx :
       {ExecContext{}, ExecContext{.pool = &pool, .scan_threads = 2}}) {
    const bool sequential = base_ctx.pool == nullptr;
    auto unpruned = ex.Execute(t, q, base_ctx);
    ASSERT_TRUE(unpruned.ok());
    EXPECT_EQ(unpruned->InstanceEquals(input, kEdgeEps), oracle_accepts)
        << "unpruned, sequential " << sequential;
    ExecContext pruned_ctx = base_ctx;
    pruned_ctx.threshold = &monitor;
    auto pruned = ex.Execute(t, q, pruned_ctx);
    if (!pruned.ok()) {
      ASSERT_TRUE(pruned.status().IsQueryRefuted())
          << pruned.status().ToString();
    }
    EXPECT_EQ(pruned.ok() && pruned->InstanceEquals(input, kEdgeEps),
              oracle_accepts)
        << "pruned, sequential " << sequential;
    if (sequential) {
      EXPECT_EQ(!pruned.ok(), refutes) << "sequential refutation";
    }
  }
}

// Target-excluded: an entity of L whose running value already lies
// beyond the slack from its L value cannot finish there. One ulp inside
// the slack must not refute; one ulp outside must.
TEST(ThresholdValidationTest, TargetRuleRefutesExactlyPastTheSlack) {
  const double slack = std::max(16 * kEdgeEps, 1e-7);
  ASSERT_EQ(ThresholdMonitor(EdgeTable({}, {}, 1.0, 1),
                             ListOf({{"z0", 1.0}}), SortOrder::kDesc,
                             kEdgeEps)
                .slack(),
            slack);
  // max DESC: A's running max (its lower bound) passes 100 from above.
  // min ASC: A's running min (its upper bound) passes 10 from below.
  struct Case {
    AggFn agg;
    SortOrder order;
    TopKList input;
    double filler;
  };
  const Case cases[] = {
      {AggFn::kMax, SortOrder::kDesc, ListOf({{"A", 100.0}, {"B", 50.0}}),
       1.0},
      {AggFn::kMin, SortOrder::kAsc, ListOf({{"A", 10.0}, {"B", 50.0}}),
       1000.0},
  };
  for (const Case& c : cases) {
    const double target = c.input.entries()[0].value;
    const double dir = c.agg == AggFn::kMax ? kInfinity : -kInfinity;
    const double outside = FirstBeyondSlack(target, dir, slack);
    const double inside = std::nextafter(outside, target);
    for (const double x : {inside, outside}) {
      const Table t = EdgeTable(
          {{"A", x, 0}},
          {{"A", target, 0}, {"B", c.input.entries()[1].value, 0}},
          c.filler, 0);
      TopKQuery q;
      q.expr = RankExpr::Column(5);
      q.agg = c.agg;
      q.order = c.order;
      q.k = 2;
      ExpectEdgeVerdicts(t, q, c.input, x == outside,
                         std::string(AggFnToString(c.agg)) +
                             (x == outside ? " outside" : " inside"));
    }
  }
}

// Foreign-beats-cut: an entity outside L whose running value beats L's
// k-th value by more than the slack enters the top k. One ulp inside
// the slack must not refute; one ulp outside must.
TEST(ThresholdValidationTest, ForeignRuleRefutesExactlyPastTheSlack) {
  const double slack = std::max(16 * kEdgeEps, 1e-7);
  struct Case {
    AggFn agg;
    SortOrder order;
    TopKList input;
    double filler;
  };
  const Case cases[] = {
      {AggFn::kMax, SortOrder::kDesc, ListOf({{"A", 100.0}, {"B", 50.0}}),
       1.0},
      {AggFn::kMin, SortOrder::kAsc, ListOf({{"A", 10.0}, {"B", 50.0}}),
       1000.0},
  };
  for (const Case& c : cases) {
    const double worst = c.input.entries()[1].value;
    const double dir = c.agg == AggFn::kMax ? kInfinity : -kInfinity;
    const double outside = FirstBeyondSlack(worst, dir, slack);
    const double inside = std::nextafter(outside, worst);
    for (const double x : {inside, outside}) {
      const Table t = EdgeTable(
          {{"F", x, 0}},
          {{"A", c.input.entries()[0].value, 0}, {"B", worst, 0}},
          c.filler, 0);
      TopKQuery q;
      q.expr = RankExpr::Column(5);
      q.agg = c.agg;
      q.order = c.order;
      q.k = 2;
      ExpectEdgeVerdicts(t, q, c.input, x == outside,
                         std::string(AggFnToString(c.agg)) +
                             (x == outside ? " outside" : " inside"));
    }
  }
}

// Integer tie displacement: a foreign group that ties L's k-th value
// exactly takes its place when its name sorts first (the executor's
// tie-break), so the rule refutes; sorting after, it stays out and L is
// reproduced, so the rule must not fire.
TEST(ThresholdValidationTest, TieRuleRefutesOnlyANameBeforeTheCut) {
  struct Case {
    AggFn agg;
    SortOrder order;
    TopKList input;
    int64_t filler;
  };
  const Case cases[] = {
      {AggFn::kMax, SortOrder::kDesc, ListOf({{"A", 100}, {"B1", 50}}), 1},
      {AggFn::kMin, SortOrder::kAsc, ListOf({{"A", 10}, {"B1", 50}}), 1000},
  };
  for (const Case& c : cases) {
    const auto cut = static_cast<int64_t>(c.input.entries()[1].value);
    for (const char* foreign : {"B0", "B2"}) {
      const bool before = std::string(foreign) < "B1";
      const Table t = EdgeTable(
          {{foreign, 0.0, cut}},
          {{"A", 0.0, static_cast<int64_t>(c.input.entries()[0].value)},
           {"B1", 0.0, cut}},
          0.0, c.filler);
      TopKQuery q;
      q.expr = RankExpr::Column(4);
      q.agg = c.agg;
      q.order = c.order;
      q.k = 2;
      EXPECT_EQ(oracle::NaiveExecute(t, q).InstanceEquals(c.input, kEdgeEps),
                !before);
      ExpectEdgeVerdicts(t, q, c.input, before,
                         std::string(AggFnToString(c.agg)) + " " + foreign);
    }
  }
}

// A one-entry list [X NaN], which max(w) gives when X is the only group
// and all its rows are NaN, is reproduced, and the monitor refutes
// nothing: every comparison with the NaN target or cut is false.
TEST(ThresholdValidationTest, OneEntryNanListRefutesNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Table t = EdgeTable({{"X", nan, 0, "TX"}, {"Y", 7.0, 0}},
                            {{"X", nan, 0, "TX"}, {"Y", 9.0, 0}}, 1.0, 0);
  for (const AggFn agg : {AggFn::kMax, AggFn::kMin}) {
    for (const SortOrder order : {SortOrder::kDesc, SortOrder::kAsc}) {
      TopKQuery q;
      q.predicate = Predicate::Atom(1, Value::String("TX"));
      q.expr = RankExpr::Column(5);
      q.agg = agg;
      q.order = order;
      q.k = 1;
      const TopKList input = ListOf({{"X", nan}});
      ASSERT_TRUE(oracle::NaiveExecute(t, q).InstanceEquals(input, kEdgeEps));
      ExpectEdgeVerdicts(t, q, input, /*refutes=*/false,
                         std::string(AggFnToString(agg)) +
                             (order == SortOrder::kDesc ? " desc" : " asc"));
    }
  }
}

// ---- Budget interruption vs refutation ----------------------------------

TEST(ThresholdValidationTest, CancellationOutranksRefutation) {
  Rng rng(91);
  Table t = RandomChunkedTable(rng, 2048);
  TopKQuery truth = RandomQuery(rng);
  Executor vec;
  auto input = vec.Execute(t, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  ASSERT_FALSE(input->empty());
  // A list no candidate can reproduce: inflate the values far past any
  // zone-map bound, so every grouped execution refutes quickly.
  TopKList impossible;
  for (const TopKEntry& e : input->entries()) {
    impossible.Append(e.entity, e.value + 1e12);
  }
  ThresholdMonitor monitor(t, impossible, truth.order, 1e-9);
  ASSERT_TRUE(monitor.active());
  ASSERT_TRUE(monitor.AppliesTo(truth));
  auto refuted =
      vec.Execute(t, truth, ExecContext{.threshold = &monitor});
  ASSERT_FALSE(refuted.ok());
  EXPECT_TRUE(refuted.status().IsQueryRefuted());

  // The same execution under a tripped budget winds down as Cancelled:
  // budget interruption outranks refutation (a refuted verdict from an
  // interrupted scan could depend on which morsels happened to finish).
  CancellationToken token;
  token.Cancel();
  RunBudget budget;
  budget.set_cancellation_token(&token);
  auto cancelled = vec.Execute(
      t, truth, ExecContext{.budget = &budget, .threshold = &monitor});
  ASSERT_FALSE(cancelled.ok());
  EXPECT_TRUE(cancelled.status().IsCancelled());
  EXPECT_FALSE(cancelled.status().IsQueryRefuted());
}

TEST(ThresholdValidationTest, InjectedMidScanInterruptNeverMisaccepts) {
  FaultPoints::DisarmAll();
  Rng rng(92);
  Table t = RandomChunkedTable(rng, 2048);
  TopKQuery truth = RandomQuery(rng);
  Executor vec;
  auto input = vec.Execute(t, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  ASSERT_FALSE(input->empty());
  ThresholdMonitor monitor(t, *input, truth.order, 1e-9);
  // Inject a simulated mid-scan budget interruption into every second
  // execution: whatever the interleaving with chunk refutation, the
  // outcome is Cancelled, QueryRefuted, or a byte-identical result —
  // never a wrong accept.
  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kCancelled;
  spec.probability = 0.5;
  spec.seed = 17;
  FaultPoints::Arm("executor.execute.scan", spec);
  for (int i = 0; i < 32; ++i) {
    const TopKQuery cand = i == 0 ? truth : PerturbQuery(rng, truth);
    auto pruned =
        vec.Execute(t, cand, ExecContext{.threshold = &monitor});
    if (!pruned.ok()) {
      EXPECT_TRUE(pruned.status().IsCancelled() ||
                  pruned.status().IsQueryRefuted())
          << pruned.status().ToString();
      continue;
    }
    FaultPoints::DisarmAll();
    auto ref = vec.Execute(t, cand, ExecContext{});
    FaultPoints::Arm("executor.execute.scan", spec);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(*pruned == *ref);
  }
  FaultPoints::DisarmAll();
}

// ---- Concurrent shared-cache stress -------------------------------------

TEST(ThresholdValidationTest, ConcurrentSharingAndPruningStaySound) {
  Rng rng(4321);
  Table t = RandomChunkedTable(rng, 3000);
  const TopKQuery truth = RandomQuery(rng);
  Executor vec;
  auto input = vec.Execute(t, truth, ExecContext{});
  ASSERT_TRUE(input.ok());
  if (input->empty()) GTEST_SKIP() << "degenerate draw";
  ThresholdMonitor monitor(t, *input, truth.order, 1e-9);

  std::vector<TopKQuery> queries{truth};
  std::vector<TopKList> refs{*input};
  for (int i = 0; i < 5; ++i) {
    queries.push_back(PerturbQuery(rng, truth));
    auto ref = vec.Execute(t, queries.back(), ExecContext{});
    ASSERT_TRUE(ref.ok());
    refs.push_back(*std::move(ref));
  }
  // Two atoms' bitmaps over the whole table: small enough to force
  // evictions mid-run, large enough that workers still hit.
  AtomSelectionCache cache(2 * SelectionBitmap(3000).MemoryUsage());
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 40; ++iter) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          auto r = vec.Execute(t, queries[qi],
                               ExecContext{.cache = &cache,
                                           .threshold = &monitor});
          const bool accept_ref = refs[qi].InstanceEquals(*input);
          if (r.ok()) {
            if (!(*r == refs[qi])) {
              violations.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (!r.status().IsQueryRefuted() || accept_ref) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_LE(cache.stats().resident_bytes, cache.byte_budget());
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_GT(cache.stats().hits, 0);
}

// ---- Full-pipeline equivalence ------------------------------------------

TEST(ThresholdValidationTest, PipelineValidSetIdenticalPruningOnOff) {
  TpchGenOptions gen;
  gen.scale_factor = 0.003;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  // Small chunks so pruning actually engages.
  table->SetChunkRows(2048);

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA, QueryFamily::kSumA,
                 QueryFamily::kAvgA};
  wl.predicate_sizes = {1, 2};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());

  auto run = [&](const WorkloadQuery& wq,
                 bool pruning) -> ReverseEngineerReport {
    PaleoOptions options;
    options.use_dimension_index = false;  // force scanned validation
    options.threshold_pruning = pruning;
    options.stop_at_first_valid = false;  // compare the FULL valid set
    Paleo paleo(&*table, options);
    auto report = paleo.Run({.input = &wq.list});
    EXPECT_TRUE(report.ok());
    return *std::move(report);
  };
  auto hashes = [](const ReverseEngineerReport& r) {
    std::vector<uint64_t> h;
    for (const ValidQuery& vq : r.valid) h.push_back(vq.query.Hash());
    std::sort(h.begin(), h.end());
    return h;
  };

  int64_t total_refuted = 0;
  for (const WorkloadQuery& wq : *workload) {
    const ReverseEngineerReport off = run(wq, false);
    const ReverseEngineerReport on = run(wq, true);
    ASSERT_FALSE(off.valid.empty()) << wq.name;
    EXPECT_EQ(hashes(off), hashes(on)) << wq.name;
    // Refuted executions count as executions: the schedule — and with
    // it every execution and skip count — is identical pruning on/off.
    EXPECT_EQ(off.executed_queries, on.executed_queries) << wq.name;
    EXPECT_EQ(off.skip_events, on.skip_events) << wq.name;
    EXPECT_EQ(off.executions_aborted_early, 0) << wq.name;
    EXPECT_GE(on.executor_stats.rows_saved, 0) << wq.name;
    total_refuted += on.executions_aborted_early;
  }
  EXPECT_GT(total_refuted, 0)
      << "pruning never fired across the whole workload";
}

TEST(ThresholdValidationTest, PipelineParallelValidationIdentical) {
  TpchGenOptions gen;
  gen.scale_factor = 0.002;
  auto table = TpchGen::Generate(gen);
  ASSERT_TRUE(table.ok());
  table->SetChunkRows(2048);

  WorkloadOptions wl;
  wl.families = {QueryFamily::kMaxA};
  wl.predicate_sizes = {2};
  wl.ks = {10};
  wl.queries_per_config = 1;
  auto workload = WorkloadGen::Generate(*table, wl);
  ASSERT_TRUE(workload.ok());
  ASSERT_FALSE(workload->empty());
  const TopKList& input = (*workload)[0].list;

  PaleoOptions options;
  options.use_dimension_index = false;
  auto run = [&](int num_threads, ThreadPool* pool) {
    PaleoOptions o = options;
    o.num_threads = num_threads;
    Paleo paleo(&*table, o);
    auto report = paleo.Run({.input = &input, .pool = pool});
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report->found());
    return report->valid[0].query.Hash();
  };
  const uint64_t seq = run(1, nullptr);
  ThreadPool pool(4);
  const uint64_t par = run(4, &pool);
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace paleo
