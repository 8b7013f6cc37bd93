// The executor against the naive oracle (tests/oracle/naive_executor.h):
// one randomized sweep over adversarial tables that checks every
// execution context, and the dimension-index path, bit for bit; and a
// check that executions stopped early leave no state behind for the
// next one.
//
// Tables are 1-5000 rows in 64-, 128- and 256-row chunks or the default
// single chunk, so sums fold across many chunk boundaries. The double
// measure holds NaN, +-inf, -0.0, denormals and 1e8 / 1e-3 mixes whose
// sum depends on the order; some entities hold only NaN, and the sweep
// also filters on it. The int measure has few distinct values, so ranks
// tie at the k-th value and names break the ties, and k ranges past the
// number of groups.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/run_budget.h"
#include "common/thread_pool.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
#include "engine/threshold_monitor.h"
#include "index/dimension_index.h"
#include "oracle/naive_executor.h"

namespace paleo {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Schema SweepSchema() {
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

/// A value of the double measure for an entity of the given flavour.
double AdversarialDouble(Rng& rng, int flavour) {
  switch (flavour) {
    case 0:  // every row NaN
      return kNaN;
    case 1:  // a sum whose value depends on the order of its terms
      return rng.Bernoulli(0.5) ? 1e8 + rng.UniformDouble(0.0, 1.0)
                                : 1e-3 * rng.UniformDouble(0.0, 1.0);
    case 2:  // signed zeros and denormals
      switch (rng.Uniform(3)) {
        case 0: return -0.0;
        case 1: return 0.0;
        default:
          return std::numeric_limits<double>::denorm_min() *
                 static_cast<double>(rng.UniformInt(-1000, 1000));
      }
    default:  // ordinary values with a few specials
      switch (rng.Uniform(40)) {
        case 0: return kNaN;
        case 1: return kInf;
        case 2: return -kInf;
        case 3: return -0.0;
        default: return rng.UniformDouble(-100.0, 100.0);
      }
  }
}

/// Entity i has flavour i % 6 (0-2 adversarial, the rest ordinary).
Table AdversarialTable(Rng& rng, size_t num_rows, int num_entities) {
  Table t(SweepSchema());
  for (size_t r = 0; r < num_rows; ++r) {
    const int e = static_cast<int>(rng.UniformInt(0, num_entities - 1));
    EXPECT_TRUE(
        t.AppendRow({Value::String("e" + std::to_string(e)),
                     Value::String(kStates[rng.Uniform(4)]),
                     Value::String("g" + std::to_string(rng.Uniform(8))),
                     Value::Int64(rng.UniformInt(0, 10)),
                     Value::Int64(rng.UniformInt(0, 4)),
                     Value::Double(AdversarialDouble(rng, e % 6))})
            .ok());
  }
  return t;
}

/// A constant for an atom over the double measure: a signed zero, NaN,
/// an infinity, or a value some row of `t` holds.
double DoubleConstant(Rng& rng, const Table& t) {
  switch (rng.Uniform(6)) {
    case 0: return -0.0;
    case 1: return 0.0;
    case 2: return kNaN;
    case 3: return kInf;
    case 4: return -kInf;
    default:
      return t.column(5).DoubleAt(
          static_cast<RowId>(rng.Uniform(t.num_rows())));
  }
}

/// 0-4 atoms (equality on the string dims, equality or BETWEEN on the
/// int dim, sometimes a value no row holds, and equality or BETWEEN on
/// the double measure with signed zeros, NaN, infinities, held values
/// and infinite bounds), any ranking expression, aggregate and order,
/// and k up to past the number of groups.
TopKQuery RandomQuery(Rng& rng, const Table& t, int num_entities) {
  TopKQuery q;
  std::vector<AtomicPredicate> atoms;
  bool used[4] = {false, false, false, false};
  const int num_atoms = static_cast<int>(rng.Uniform(5));
  for (int i = 0; i < num_atoms; ++i) {
    const int pick = static_cast<int>(rng.Uniform(4));
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
        if (rng.Bernoulli(0.5)) {
          atoms.emplace_back(3, Value::Int64(rng.UniformInt(0, 10)));
        } else {
          const int64_t lo = rng.UniformInt(0, 8);
          atoms.push_back(AtomicPredicate::Range(
              3, Value::Int64(lo), Value::Int64(rng.UniformInt(lo, 10))));
        }
        break;
      case 3:
        if (rng.Bernoulli(0.5)) {
          atoms.emplace_back(5, Value::Double(DoubleConstant(rng, t)));
        } else {
          // Bounds drawn like the constants: held values, signed
          // zeros, NaN or infinities.
          double lo = DoubleConstant(rng, t);
          double hi = DoubleConstant(rng, t);
          if (hi < lo) std::swap(lo, hi);
          atoms.push_back(AtomicPredicate::Range(5, Value::Double(lo),
                                                 Value::Double(hi)));
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
                        AggFn::kAvg, AggFn::kCount, AggFn::kNone};
  q.agg = aggs[rng.Uniform(6)];
  q.order = rng.Bernoulli(0.5) ? SortOrder::kDesc : SortOrder::kAsc;
  q.k = static_cast<int>(rng.UniformInt(1, num_entities + 5));
  return q;
}

TEST(ExecutorOracleTest, EveryContextMatchesOracleBitForBit) {
  ThreadPool pool(4);
  const size_t sizes[] = {1, 63, 64, 65, 129, 500, 2047, 2048, 2049, 5000};
  const size_t chunk_sizes[] = {64, 128, 256, Table::kDefaultChunkRows};
  int draws = 0;
  int64_t index_assisted = 0;
  int64_t cache_hits = 0;
  int nan_values = 0;
  int inf_values = 0;
  int signed_zeros = 0;
  int short_lists = 0;  // fewer groups than k
  int tied_cuts = 0;    // the k-th value ties the first value cut off
  for (uint64_t table_seed = 1; table_seed <= 200; ++table_seed) {
    Rng rng(20261019 + table_seed);
    const int num_entities = static_cast<int>(rng.UniformInt(3, 40));
    Table t = AdversarialTable(rng, sizes[rng.Uniform(10)], num_entities);
    t.SetChunkRows(chunk_sizes[rng.Uniform(4)]);
    const DimensionIndex index = DimensionIndex::Build(t);
    Executor indexed;
    indexed.SetDimensionIndex(&index, &t);
    Executor ex;
    AtomSelectionCache cache(static_cast<size_t>(4) << 20);
    struct Variant {
      const char* name;
      Executor* executor;
      ExecContext ctx;
    };
    const Variant variants[] = {
        {"default", &ex, {}},
        {"no zone skipping", &ex, {.zone_map_skipping = false}},
        {"cache", &ex, {.cache = &cache}},
        {"pool, 2 threads", &ex, {.pool = &pool, .scan_threads = 2}},
        {"pool, 4 threads", &ex, {.pool = &pool, .scan_threads = 4}},
        {"cache, pool, 4 threads",
         &ex,
         {.cache = &cache, .pool = &pool, .scan_threads = 4}},
        {"dimension index", &indexed, {}},
    };
    for (int qi = 0; qi < 4; ++qi) {
      const TopKQuery q = RandomQuery(rng, t, num_entities);
      const TopKList want = oracle::NaiveExecute(t, q);
      const size_t want_count = oracle::NaiveCountMatching(t, q.predicate);
      const std::string where =
          "table seed " + std::to_string(table_seed) + ", " +
          std::to_string(t.num_rows()) + " rows in chunks of " +
          std::to_string(t.chunk_rows()) + ", query " + std::to_string(qi) +
          ": " + q.ToSql(t.schema()) + " -- ";
      for (const Variant& v : variants) {
        auto got = v.executor->Execute(t, q, v.ctx);
        ASSERT_TRUE(got.ok()) << where << v.name;
        EXPECT_EQ(oracle::BitwiseDiff(*got, want), "") << where << v.name;
        EXPECT_EQ(v.executor->CountMatching(t, q.predicate, v.ctx),
                  want_count)
            << where << v.name;
      }
      for (const TopKEntry& e : want.entries()) {
        nan_values += std::isnan(e.value) ? 1 : 0;
        inf_values += std::isinf(e.value) ? 1 : 0;
        signed_zeros += e.value == 0.0 && std::signbit(e.value) ? 1 : 0;
      }
      const size_t k = static_cast<size_t>(q.k);
      short_lists += want.size() < k ? 1 : 0;
      TopKQuery one_more = q;
      ++one_more.k;
      const TopKList longer = oracle::NaiveExecute(t, one_more);
      if (longer.size() > k &&
          longer.entry(k - 1).value == longer.entry(k).value) {
        ++tied_cuts;
      }
      ++draws;
    }
    index_assisted += indexed.stats().index_assisted;
    cache_hits += cache.stats().hits;
  }
  EXPECT_EQ(draws, 800);
  // The adversarial inputs reach the compared lists, and the index
  // path and warm cache entries really ran: otherwise the sweep proves
  // less than it says.
  EXPECT_GT(index_assisted, 0);
  EXPECT_GT(cache_hits, 0);
  EXPECT_GT(nan_values, 0);
  EXPECT_GT(inf_values, 0);
  EXPECT_GT(signed_zeros, 0);
  EXPECT_GT(short_lists, 0);
  EXPECT_GT(tied_cuts, 0);
}

// The executor's dense group arrays (engine/group_pool.h) come back
// zeroed from every early stop. On one executor, grouped executions that
// a token interrupts mid-scan (sequential and morsel-parallel full scans
// under a threshold monitor, and index-assisted posting loops) or that
// threshold bounds refute alternate with clean executions of both paths.
// A slot an early stop left dirty would corrupt the next execution that
// borrows its array, so every clean execution must equal the oracle bit
// for bit.
TEST(ExecutorOracleTest, EarlyStopsHandBackZeroedGroupArrays) {
  Rng rng(20261020);
  constexpr int kEntities = 30;
  // Chunks of 8192 rows: a chunk's group-by pass spans four 2048-row
  // batches, so the scan's budget polls also land after a chunk's first
  // rows were folded. s1 = 'CA' holds ~25,000 rows, many 4096-row poll
  // strides of the posting loop.
  Table t = AdversarialTable(rng, 100000, kEntities);
  t.SetChunkRows(8192);
  const DimensionIndex index = DimensionIndex::Build(t);
  Executor ex;
  ex.SetDimensionIndex(&index, &t);
  ThreadPool pool(4);

  auto grouped = [](std::vector<AtomicPredicate> atoms, RankExpr expr,
                    AggFn agg, int k) {
    TopKQuery q;
    q.predicate = Predicate(std::move(atoms));
    q.expr = expr;
    q.agg = agg;
    q.k = k;
    return q;
  };
  // The range atom keeps a query off the dimension index.
  const AtomicPredicate all_rows =
      AtomicPredicate::Range(3, Value::Int64(0), Value::Int64(10));
  const AtomicPredicate ca(1, Value::String("CA"));
  const TopKQuery scan_q = grouped({all_rows}, RankExpr::Column(4),
                                   AggFn::kSum, 10);
  const TopKQuery index_q = grouped({ca}, RankExpr::Column(4), AggFn::kSum,
                                    10);
  // Clean checks list every group (k past the number of entities).
  const TopKQuery clean[] = {
      grouped({all_rows}, RankExpr::Column(5), AggFn::kSum, kEntities + 5),
      grouped({ca}, RankExpr::Add(4, 5), AggFn::kMax, kEntities + 5),
      grouped({}, RankExpr::Column(4), AggFn::kCount, kEntities + 5)};
  std::vector<TopKList> want;
  for (const TopKQuery& q : clean) want.push_back(oracle::NaiveExecute(t, q));

  // A monitor of the scan query's own list never refutes it but keeps a
  // threshold state, with its borrowed array, on every scan; one of a
  // list far past any reachable sum refutes after the first chunk.
  const TopKList truth = oracle::NaiveExecute(t, scan_q);
  ASSERT_EQ(truth.size(), 10u);
  ThresholdMonitor truth_monitor(t, truth, scan_q.order, 1e-9);
  TopKList impossible;
  for (const TopKEntry& e : truth.entries()) {
    impossible.Append(e.entity, e.value + 1e12);
  }
  ThresholdMonitor impossible_monitor(t, impossible, scan_q.order, 1e-9);
  ASSERT_TRUE(truth_monitor.AppliesTo(scan_q));
  ASSERT_TRUE(impossible_monitor.AppliesTo(scan_q));

  int clean_checks = 0;
  auto check_clean = [&](const std::string& after) {
    for (size_t i = 0; i < std::size(clean); ++i) {
      for (const ExecContext& ctx :
           {ExecContext{}, ExecContext{.pool = &pool, .scan_threads = 4}}) {
        auto got = ex.Execute(t, clean[i], ctx);
        ASSERT_TRUE(got.ok()) << after;
        EXPECT_EQ(oracle::BitwiseDiff(*got, want[i]), "")
            << "clean query " << i << " after " << after;
        ++clean_checks;
      }
    }
  };

  struct Stop {
    const char* name;
    const TopKQuery* query;
    ExecContext ctx;
  };
  const Stop interrupted[] = {
      {"interrupted full scan", &scan_q, {.threshold = &truth_monitor}},
      {"interrupted morsel-parallel scan",
       &scan_q,
       {.pool = &pool, .scan_threads = 4, .threshold = &truth_monitor}},
      {"interrupted posting loop", &index_q, {}},
  };
  const Stop refuted[] = {
      {"refuted full scan", &scan_q, {.threshold = &impossible_monitor}},
      {"refuted morsel-parallel scan",
       &scan_q,
       {.pool = &pool, .scan_threads = 4, .threshold = &impossible_monitor}},
  };

  // Runs `stop` with a token another thread trips `delay` after the
  // execution starts. Returns the rows it scanned when the token stopped
  // it, or -1 when it finished first.
  using Clock = std::chrono::steady_clock;
  auto run_tripped = [&](const Stop& stop, Clock::duration delay) {
    CancellationToken token;
    RunBudget budget;
    budget.set_cancellation_token(&token);
    ExecContext ctx = stop.ctx;
    ctx.budget = &budget;
    // The tripper spins from its own start, not its creation, so the
    // delay counts from the execution's start.
    std::atomic<bool> ready{false};
    std::atomic<bool> started{false};
    std::thread tripper([&] {
      ready.store(true);
      while (!started.load()) {
      }
      const Clock::time_point until = Clock::now() + delay;
      while (Clock::now() < until) {
      }
      token.Cancel();
    });
    while (!ready.load()) {
    }
    const int64_t before = ex.stats().rows_scanned;
    started.store(true);
    auto got = ex.Execute(t, *stop.query, ctx);
    tripper.join();
    if (got.ok()) return int64_t{-1};
    EXPECT_TRUE(got.status().IsCancelled()) << got.status().ToString();
    return ex.stats().rows_scanned - before;
  };

  // Trip each interruptible stop at several points of its clean running
  // time, until each has been stopped after folding rows a few times.
  constexpr int kFoldedStops = 3;
  int folded[std::size(interrupted)] = {};
  for (int round = 0; round < 20; ++round) {
    bool done = true;
    for (size_t s = 0; s < std::size(interrupted); ++s) {
      const Stop& stop = interrupted[s];
      if (folded[s] >= kFoldedStops) continue;
      done = false;
      const Clock::time_point t0 = Clock::now();
      ASSERT_TRUE(ex.Execute(t, *stop.query, stop.ctx).ok()) << stop.name;
      const Clock::duration full = Clock::now() - t0;
      for (int eighth = 1; eighth < 8; ++eighth) {
        const int64_t rows = run_tripped(stop, full * eighth / 8);
        if (rows > 0) ++folded[s];
        check_clean(std::string(stop.name) + " at " +
                    std::to_string(eighth) + "/8 of its time");
      }
    }
    if (done) break;
  }
  for (size_t s = 0; s < std::size(interrupted); ++s) {
    EXPECT_GE(folded[s], kFoldedStops) << interrupted[s].name;
  }
  for (const Stop& stop : refuted) {
    const int64_t before = ex.stats().rows_scanned;
    auto got = ex.Execute(t, *stop.query, stop.ctx);
    ASSERT_FALSE(got.ok()) << stop.name;
    EXPECT_TRUE(got.status().IsQueryRefuted()) << stop.name;
    EXPECT_GT(ex.stats().rows_scanned, before) << stop.name;
    check_clean(stop.name);
  }
  EXPECT_GT(ex.stats().executions_aborted_early, 0);
  EXPECT_GT(clean_checks, 0);
}

// An equality atom on a DOUBLE column takes an INT64 constant, widened,
// in the scan, the dimension index and the oracle alike.
TEST(ExecutorOracleTest, IntConstantMatchesDoubleColumn) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  Table t(*schema);
  ASSERT_TRUE(
      t.AppendRow({Value::String("A"), Value::Double(2.0), Value::Int64(1)})
          .ok());
  ASSERT_TRUE(
      t.AppendRow({Value::String("B"), Value::Double(3.0), Value::Int64(2)})
          .ok());
  const DimensionIndex index = DimensionIndex::Build(t);
  Executor indexed;
  indexed.SetDimensionIndex(&index, &t);
  Executor scan;
  struct Case {
    Value constant;
    size_t rows;
  };
  const Case cases[] = {{Value::Int64(2), 1},
                        {Value::Double(2.0), 1},
                        {Value::Int64(4), 0},
                        {Value::String("2"), 0}};
  for (const Case& c : cases) {
    const Predicate p = Predicate::Atom(1, c.constant);
    SCOPED_TRACE(p.ToSql(t.schema()));
    TopKQuery q;
    q.predicate = p;
    q.expr = RankExpr::Column(2);
    q.agg = AggFn::kSum;
    q.k = 2;
    const TopKList want = oracle::NaiveExecute(t, q);
    EXPECT_EQ(want.size(), c.rows);
    EXPECT_EQ(oracle::NaiveCountMatching(t, p), c.rows);
    for (Executor* ex : {&scan, &indexed}) {
      auto got = ex->Execute(t, q, ExecContext{});
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(oracle::BitwiseDiff(*got, want), "");
      EXPECT_EQ(ex->CountMatching(t, p, ExecContext{}), c.rows);
    }
  }
  // The numeric lookups were answered from postings, not by a scan.
  EXPECT_GE(indexed.stats().index_assisted, 3);
}

}  // namespace
}  // namespace paleo
