// The executor against the naive oracle (tests/oracle/naive_executor.h):
// one randomized sweep over adversarial tables that checks every
// execution context, and the dimension-index path, bit for bit.
//
// Tables are 1-5000 rows in 64-, 128- and 256-row chunks or the default
// single chunk, so sums fold across many chunk boundaries. The double
// measure holds NaN, +-inf, -0.0, denormals and 1e8 / 1e-3 mixes whose
// sum depends on the order; some entities hold only NaN. The int
// measure has few distinct values, so ranks tie at the k-th value and
// names break the ties, and k ranges past the number of groups.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/atom_cache.h"
#include "engine/executor.h"
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

/// 0-3 atoms (equality on the string dims, equality or BETWEEN on the
/// int dim, sometimes a value no row holds), any ranking expression,
/// aggregate and order, and k up to past the number of groups.
TopKQuery RandomQuery(Rng& rng, int num_entities) {
  TopKQuery q;
  std::vector<AtomicPredicate> atoms;
  bool used[3] = {false, false, false};
  const int num_atoms = static_cast<int>(rng.Uniform(4));
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
        if (rng.Bernoulli(0.5)) {
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
      const TopKQuery q = RandomQuery(rng, num_entities);
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

}  // namespace
}  // namespace paleo
