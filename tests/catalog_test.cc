// TableCatalog / Ingestor unit tests: publication ordering, snapshot
// pinning and last-release teardown, incremental-vs-full build
// equality (and ingested snapshots against the naive oracle), and the
// all-or-nothing ingest contract under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "datagen/traffic_gen.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "oracle/naive_executor.h"
#include "paleo/paleo.h"

namespace paleo {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto table = TrafficGen::PaperExample();
    ASSERT_TRUE(table.ok());
    table_ = new Table(std::move(*table));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  void SetUp() override { FaultPoints::DisarmAll(); }
  void TearDown() override { FaultPoints::DisarmAll(); }

  static const Table& table() { return *table_; }

  /// The paper's Table 2 input list — the engine-level probe every
  /// version of the relation that still contains the original rows
  /// must answer identically.
  static TopKList PaperInput() {
    TopKList input;
    input.Append("Lara Ellis", 784);
    input.Append("Jane O'Neal", 699);
    input.Append("John Smith", 654);
    input.Append("Richard Fox", 596);
    input.Append("Jack Stiles", 586);
    return input;
  }

  static std::shared_ptr<TableCatalog> MakeCatalog(
      obs::MetricsRegistry* metrics = nullptr) {
    return std::make_shared<TableCatalog>(Table(table()), PaleoOptions{},
                                          metrics);
  }

  /// One row of the fixture table boxed for re-ingestion.
  static std::vector<Value> RowAt(RowId r) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(table().num_columns()));
    for (int c = 0; c < table().num_columns(); ++c) {
      row.push_back(table().GetValue(r, c));
    }
    return row;
  }

  /// A batch of `n` fixture rows starting at `first` (wrapping).
  static std::vector<std::vector<Value>> Batch(size_t first, size_t n) {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(RowAt(static_cast<RowId>(
          (first + i) % table().num_rows())));
    }
    return rows;
  }

  /// Byte-level equality of everything the engine consumes from a
  /// stats catalog: per-column basic stats, dimension value counts,
  /// histogram cells, and top-entity lists.
  static void ExpectStatsEqual(const StatsCatalog& a, const StatsCatalog& b,
                               int num_columns) {
    ASSERT_EQ(a.table_rows(), b.table_rows());
    for (int c = 0; c < num_columns; ++c) {
      const ColumnStats& sa = a.column_stats(c);
      const ColumnStats& sb = b.column_stats(c);
      // By bits: a NaN in a column's first row makes both NaN.
      EXPECT_EQ(std::bit_cast<uint64_t>(sa.min),
                std::bit_cast<uint64_t>(sb.min))
          << "column " << c;
      EXPECT_EQ(std::bit_cast<uint64_t>(sa.max),
                std::bit_cast<uint64_t>(sb.max))
          << "column " << c;
      EXPECT_EQ(sa.distinct_count, sb.distinct_count) << "column " << c;
      EXPECT_EQ(sa.row_count, sb.row_count) << "column " << c;

      const StatsCatalog::ValueCountMap& va = a.value_counts(c);
      const StatsCatalog::ValueCountMap& vb = b.value_counts(c);
      ASSERT_EQ(va.size(), vb.size()) << "column " << c;
      for (const auto& [value, rows] : va) {
        auto it = vb.find(value);
        ASSERT_NE(it, vb.end()) << "column " << c << ": " << value.ToSql();
        EXPECT_EQ(it->second, rows) << "column " << c << ": " << value.ToSql();
      }

      const Histogram& ha = a.histogram(c);
      const Histogram& hb = b.histogram(c);
      ASSERT_EQ(ha.num_cells(), hb.num_cells()) << "column " << c;
      EXPECT_EQ(ha.min(), hb.min()) << "column " << c;
      EXPECT_EQ(ha.max(), hb.max()) << "column " << c;
      EXPECT_EQ(ha.total_count(), hb.total_count()) << "column " << c;
      for (int cell = 0; cell < ha.num_cells(); ++cell) {
        ASSERT_EQ(ha.cell_count(cell), hb.cell_count(cell))
            << "column " << c << " cell " << cell;
      }

      const TopEntityList& ta = a.top_entities(c);
      const TopEntityList& tb = b.top_entities(c);
      ASSERT_EQ(ta.size(), tb.size()) << "column " << c;
      EXPECT_EQ(ta.entity_codes(), tb.entity_codes()) << "column " << c;
      EXPECT_EQ(ta.values(), tb.values()) << "column " << c;
    }
  }

  /// The relation the oracle tests grow: string, DOUBLE (holding -0.0,
  /// 0.0 and NaN) and INT64 dimensions, a key column and two measures.
  static Schema MixedSchema() {
    auto schema = Schema::Make({
        {"e", DataType::kString, FieldRole::kEntity},
        {"s", DataType::kString, FieldRole::kDimension},
        {"d", DataType::kDouble, FieldRole::kDimension},
        {"y", DataType::kInt64, FieldRole::kDimension},
        {"k", DataType::kInt64, FieldRole::kKey},
        {"v", DataType::kInt64, FieldRole::kMeasure},
        {"w", DataType::kDouble, FieldRole::kMeasure},
    });
    EXPECT_TRUE(schema.ok());
    return *schema;
  }

  /// One MixedSchema row of entity "e<entity>", dimension string `s`
  /// and key `k`; the other values are drawn from `rng`.
  static std::vector<Value> MixedRow(Rng* rng, int entity,
                                     const std::string& s, int64_t k) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double dims[] = {-0.0, 0.0, nan, 1.5, -2.25};
    const double w = rng->Uniform(16) == 0   ? nan
                     : rng->Uniform(16) == 0 ? -0.0
                                             : rng->UniformDouble(-50.0, 50.0);
    return {Value::String("e" + std::to_string(entity)), Value::String(s),
            Value::Double(dims[rng->Uniform(5)]),
            Value::Int64(rng->UniformInt(2000, 2003)), Value::Int64(k),
            Value::Int64(rng->UniformInt(0, 9)), Value::Double(w)};
  }

  /// The oracle sweep's predicates over MixedSchema: on the zeros, NaN,
  /// a batch's new string "new1", and conjunctions of them.
  static std::vector<Predicate> MixedPredicates() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {
        Predicate(),
        Predicate::Atom(1, Value::String("CA")),
        Predicate::Atom(1, Value::String("new1")),
        Predicate::Atom(2, Value::Double(0.0)),
        Predicate::Atom(2, Value::Double(-0.0)),
        Predicate::Atom(2, Value::Double(nan)),
        Predicate::Atom(2, Value::Double(1.5)),
        Predicate::Atom(3, Value::Int64(2001)),
        Predicate({{1, Value::String("NY")}, {2, Value::Double(-0.0)}}),
        Predicate({{2, Value::Double(0.0)}, {3, Value::Int64(2002)}}),
    };
  }

  /// 120 queries over MixedSchema: every aggregate over both measures
  /// under each of MixedPredicates, alternating the order, with k = 100
  /// (more than the number of groups) on every third.
  static std::vector<TopKQuery> MixedQueries() {
    const AggFn aggs[] = {AggFn::kMax, AggFn::kMin,   AggFn::kSum,
                          AggFn::kAvg, AggFn::kCount, AggFn::kNone};
    std::vector<TopKQuery> queries;
    for (const Predicate& p : MixedPredicates()) {
      for (AggFn agg : aggs) {
        for (int expr_col : {5, 6}) {
          const size_t qi = queries.size();
          TopKQuery q;
          q.predicate = p;
          q.expr = RankExpr::Column(expr_col);
          q.agg = agg;
          q.order = qi % 2 == 0 ? SortOrder::kDesc : SortOrder::kAsc;
          q.k = qi % 3 == 0 ? 100 : 5;
          queries.push_back(std::move(q));
        }
      }
    }
    return queries;
  }

  /// Expects every MixedQueries query on `t` to answer bit for bit like
  /// the naive oracle over `reference`, a table of the same rows and
  /// chunk size, both by scan and through `index`.
  static void ExpectAnswersLikeOracle(const Table& t,
                                      const DimensionIndex* index,
                                      const Table& reference) {
    ASSERT_NE(index, nullptr);
    Executor scan;
    Executor indexed;
    indexed.SetDimensionIndex(index, &t);
    for (const TopKQuery& q : MixedQueries()) {
      const TopKList want = oracle::NaiveExecute(reference, q);
      for (Executor* ex : {&scan, &indexed}) {
        const char* path = ex == &scan ? "scan" : "index";
        auto got = ex->Execute(t, q, ExecContext{});
        ASSERT_TRUE(got.ok()) << path << ": " << q.ToSql(t.schema());
        EXPECT_EQ(oracle::BitwiseDiff(*got, want), "")
            << path << ", " << t.num_rows() << " rows: " << q.ToSql(t.schema());
      }
    }
    for (const Predicate& p : MixedPredicates()) {
      const size_t want = oracle::NaiveCountMatching(reference, p);
      EXPECT_EQ(scan.CountMatching(t, p, ExecContext{}), want)
          << p.ToSql(t.schema());
      EXPECT_EQ(indexed.CountMatching(t, p, ExecContext{}), want)
          << p.ToSql(t.schema());
    }
    EXPECT_GT(indexed.stats().index_assisted, 0);
  }

  /// Expects `index` to post every entity of `t` exactly as a full
  /// build over `reference`, a table of the same rows, does.
  static void ExpectEntityIndexEqual(const EntityIndex& index,
                                     const Table& t,
                                     const Table& reference) {
    const EntityIndex rebuilt = EntityIndex::Build(reference);
    const StringDictionary& names = *t.entity_column().dict();
    for (uint32_t code = 0; code < names.size(); ++code) {
      const std::span<const RowId> got = index.Lookup(names.Get(code));
      const std::span<const RowId> want = rebuilt.Lookup(names.Get(code));
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << names.Get(code);
    }
    EXPECT_TRUE(index.Lookup("absent").empty());
    EXPECT_EQ(index.num_entities(), rebuilt.num_entities());
  }

 private:
  static Table* table_;
};

Table* CatalogTest::table_ = nullptr;

TEST_F(CatalogTest, ConstructPublishesVersionOne) {
  auto catalog = MakeCatalog();
  auto snapshot = catalog->Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 1u);
  EXPECT_EQ(catalog->CurrentVersion(), 1u);
  EXPECT_EQ(snapshot->num_rows(), table().num_rows());
  EXPECT_EQ(snapshot->epoch(), snapshot->table().epoch());

  // The snapshot's engine answers exactly like a standalone Paleo
  // over the same frozen table.
  Paleo standalone(&table(), PaleoOptions{});
  TopKList input = PaperInput();
  RunRequest request;
  request.input = &input;
  auto expected = standalone.Run(request);
  auto got = snapshot->engine().Run(request);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(expected->found());
  ASSERT_TRUE(got->found());
  EXPECT_TRUE(got->valid[0].query == expected->valid[0].query);
  EXPECT_EQ(got->executed_queries, expected->executed_queries);
}

TEST_F(CatalogTest, IngestPublishesMonotonicVersionsAndOldPinsSurvive) {
  auto catalog = MakeCatalog();
  Ingestor ingestor(catalog.get());

  // Pin v1 before any ingest.
  auto v1 = catalog->Current();
  const size_t v1_rows = v1->num_rows();

  uint64_t last_version = 1;
  size_t expected_rows = v1_rows;
  for (int batch = 0; batch < 3; ++batch) {
    auto rows = Batch(static_cast<size_t>(batch), 2 + static_cast<size_t>(batch));
    ASSERT_TRUE(ingestor.Append(rows).ok());
    expected_rows += rows.size();
    // Publication is immediate: the very next Current() observes the
    // new version with the appended rows (release store / acquire
    // load pairing).
    auto now = catalog->Current();
    EXPECT_GT(now->version(), last_version);
    last_version = now->version();
    EXPECT_EQ(now->num_rows(), expected_rows);
    EXPECT_NE(now->epoch(), v1->epoch());
  }
  auto stats = ingestor.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.rows, expected_rows - v1_rows);
  EXPECT_EQ(stats.failed_batches, 0u);

  // The pinned v1 is untouched: same row count, and its engine still
  // answers as the original frozen table did.
  EXPECT_EQ(v1->num_rows(), v1_rows);
  Paleo standalone(&table(), PaleoOptions{});
  TopKList input = PaperInput();
  RunRequest request;
  request.input = &input;
  auto expected = standalone.Run(request);
  auto got = v1->engine().Run(request);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->executed_queries, expected->executed_queries);
  EXPECT_TRUE(got->valid[0].query == expected->valid[0].query);
}

TEST_F(CatalogTest, IncrementalMatchesFullRebuild) {
  auto catalog = MakeCatalog();
  Ingestor ingestor(catalog.get());

  // Batch 1: rows inside the existing value ranges (pure fast path).
  // Batch 2: a row whose measures exceed every existing max — the
  // histograms cannot be extended in place and must fall back to
  // per-column rebuilds, still yielding byte-identical summaries.
  std::vector<std::vector<std::vector<Value>>> batches;
  batches.push_back(Batch(0, 4));
  auto outlier = RowAt(0);
  const int minutes_col = table().schema().FieldIndex("minutes");
  ASSERT_GE(minutes_col, 0);
  outlier[static_cast<size_t>(minutes_col)] = Value::Int64(1000000);
  batches.push_back({outlier});

  for (const auto& rows : batches) {
    ASSERT_TRUE(ingestor.Append(rows).ok());
  }
  EXPECT_EQ(ingestor.stats().batches, 2u);
  EXPECT_GE(ingestor.stats().full_rebuilds, 1u);  // range growth fell back

  auto snapshot = catalog->Current();
  const Table& t = snapshot->table();
  ASSERT_EQ(t.num_rows(), table().num_rows() + 5);
  ExpectStatsEqual(snapshot->engine().catalog(), StatsCatalog::Build(t),
                   table().num_columns());

  // And the engine agrees end to end with one built from scratch over
  // the same table, on a list the grown table reproduces (the paper's
  // list no longer does: the batches repeat rows of its entities).
  TopKQuery hidden;
  hidden.expr = RankExpr::Column(minutes_col);
  hidden.agg = AggFn::kMax;
  hidden.k = 5;
  auto input = Executor().Execute(t, hidden, ExecContext{});
  ASSERT_TRUE(input.ok());
  Paleo rebuilt(&t, PaleoOptions{});
  RunRequest request;
  request.input = &*input;
  auto ra = snapshot->engine().Run(request);
  auto rb = rebuilt.Run(request);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rb->found());
  ASSERT_TRUE(ra->found());
  EXPECT_EQ(ra->executed_queries, rb->executed_queries);
  EXPECT_EQ(ra->valid.size(), rb->valid.size());
  EXPECT_TRUE(ra->valid[0].query == rb->valid[0].query);
}

// The shapes incremental ingest must carry exactly: a DOUBLE dimension
// holding -0.0, 0.0 and NaN; batches that straddle 64-row chunks and
// bring new entities and new dictionary strings; and a key column whose
// distinct count climbs from 1020 through ColumnStats::kDistinctCap.
// Each published snapshot must equal a full rebuild, and its table must
// answer like the naive oracle with and without its dimension index.
TEST_F(CatalogTest, IngestedSnapshotsMatchFullBuildAndOracle) {
  const Schema schema = MixedSchema();
  const int k_col = schema.FieldIndex("k");
  Rng rng(20);
  const char* states[] = {"CA", "NY", "TX"};
  Table base(schema, /*chunk_rows=*/64);
  for (int i = 0; i < 1100; ++i) {
    const int entity = static_cast<int>(rng.Uniform(30));
    const std::string s = states[rng.Uniform(3)];
    ASSERT_TRUE(base.AppendRow(MixedRow(&rng, entity, s, i % 1020)).ok());
  }
  PaleoOptions options;
  options.use_dimension_index = true;
  auto catalog = std::make_shared<TableCatalog>(std::move(base), options);
  Ingestor ingestor(catalog.get());

  auto check_snapshot = [&](int64_t want_k_distinct) {
    auto snapshot = catalog->Current();
    const Table& t = snapshot->table();
    ASSERT_EQ(t.chunk_rows(), 64u);
    const StatsCatalog& stats = snapshot->engine().catalog();
    EXPECT_EQ(stats.column_stats(k_col).distinct_count, want_k_distinct);
    ExpectStatsEqual(stats, StatsCatalog::Build(t), t.num_columns());
    ExpectEntityIndexEqual(snapshot->engine().index(), t, t);
    ExpectAnswersLikeOracle(t, snapshot->engine().dimension_index(), t);
  };

  check_snapshot(1020);
  // Batch b brings two new k values (1022, then 1024 = the cap, then
  // past it), new entities and the new string "new<b>".
  const size_t sizes[] = {37, 90, 64, 130};
  for (int b = 0; b < 4; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::vector<std::vector<Value>> rows;
    for (size_t j = 0; j < sizes[b]; ++j) {
      const int entity = j % 4 == 0 ? 30 + 5 * b + static_cast<int>(j % 5)
                                    : static_cast<int>(rng.Uniform(30));
      const std::string s = j % 3 == 0 ? "new" + std::to_string(b)
                                       : states[rng.Uniform(3)];
      const int64_t k = j < 2 ? 1020 + 2 * b + static_cast<int64_t>(j)
                              : rng.UniformInt(0, 1019);
      rows.push_back(MixedRow(&rng, entity, s, k));
    }
    ASSERT_TRUE(ingestor.Append(rows).ok());
    check_snapshot(std::min<int64_t>(1022 + 2 * b, ColumnStats::kDistinctCap));
  }
  EXPECT_EQ(ingestor.stats().batches, 4u);
}

/// Capacity of a PrefixArray grown one append at a time to `n`
/// elements (storage/prefix_array.h: a full buffer of c forks to
/// 2(c + 1)), so appending past it forks.
size_t CapacityForAppends(size_t n) {
  size_t capacity = 8;
  while (capacity < n) capacity = 2 * (capacity + 1);
  return capacity;
}

/// Capacity of a column's buffer, from its footprint.
size_t ColumnCapacity(const Column& col) {
  return col.MemoryUsage() /
         (col.type() == DataType::kString ? sizeof(uint32_t) : sizeof(int64_t));
}

/// First element of a column's array, whatever its type.
const void* ColumnData(const Column& col) {
  switch (col.type()) {
    case DataType::kInt64:
      return col.ints().data();
    case DataType::kDouble:
      return col.doubles().data();
    case DataType::kString:
      return col.codes().data();
  }
  return nullptr;
}

// A publish copies no column and no posting list: every column and
// posting of version v + 1 reads version v's buffer for v's rows (the
// same data pointer), unless that buffer was full and regrew.
TEST_F(CatalogTest, PublishSharesPreviousVersionStorageByPrefix) {
  const Schema schema = MixedSchema();
  Rng rng(31);
  const char* states[] = {"CA", "NY", "TX"};
  Table base(schema);
  for (int i = 0; i < 1100; ++i) {
    const std::string s = states[rng.Uniform(3)];
    ASSERT_TRUE(base.AppendRow(MixedRow(&rng, static_cast<int>(rng.Uniform(30)),
                                        s, i))
                    .ok());
  }
  PaleoOptions options;
  options.use_dimension_index = true;
  auto catalog = std::make_shared<TableCatalog>(std::move(base), options);
  Ingestor ingestor(catalog.get());

  int column_regrowths = 0;
  int posting_shares = 0;
  std::map<std::pair<int, std::string>, int> dimension_moves;
  for (int b = 0; b < 20; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::vector<std::vector<Value>> rows;
    for (int j = 0; j < 50; ++j) {
      const std::string s = j == 0 ? "new" + std::to_string(b)
                                   : states[rng.Uniform(3)];
      rows.push_back(MixedRow(&rng, j == 0 ? 30 + b : static_cast<int>(
                                                          rng.Uniform(30)),
                              s, 1100 + 50 * b + j));
    }
    auto prev = catalog->Current();
    ASSERT_TRUE(ingestor.Append(rows).ok());
    auto next = catalog->Current();
    const Table& pt = prev->table();
    const Table& nt = next->table();
    ASSERT_EQ(nt.num_rows(), pt.num_rows() + rows.size());

    for (int c = 0; c < nt.num_columns(); ++c) {
      const Column& pc = pt.column(c);
      const Column& nc = nt.column(c);
      if (ColumnData(nc) != ColumnData(pc)) {
        EXPECT_LT(ColumnCapacity(pc), nt.num_rows()) << "column " << c;
        ++column_regrowths;
      }
      for (RowId r = 0; r < pt.num_rows(); ++r) {
        ASSERT_TRUE(pc.type() == DataType::kString
                        ? pc.StringAt(r) == nc.StringAt(r)
                        : std::bit_cast<uint64_t>(pc.NumericAt(r)) ==
                              std::bit_cast<uint64_t>(nc.NumericAt(r)))
            << "column " << c << " row " << r;
      }
    }

    const StringDictionary& names = *pt.entity_column().dict();
    for (uint32_t code = 0; code < names.size(); ++code) {
      const std::span<const RowId> before =
          prev->engine().index().Lookup(names.Get(code));
      const std::span<const RowId> after =
          next->engine().index().Lookup(names.Get(code));
      ASSERT_GE(after.size(), before.size());
      ASSERT_TRUE(std::equal(before.begin(), before.end(), after.begin()));
      if (before.empty()) continue;
      if (after.data() == before.data()) {
        ++posting_shares;
      } else {
        EXPECT_LT(CapacityForAppends(before.size()), after.size())
            << names.Get(code);
      }
    }
    // Dimension postings: one the batch did not touch keeps its
    // buffer; a touched one moves only when it regrew, which geometric
    // growth allows at most once over these 1,000 rows.
    const DimensionIndex* pd = prev->engine().dimension_index();
    const DimensionIndex* nd = next->engine().dimension_index();
    for (int c : schema.dimension_indices()) {
      std::map<std::string, Value> values;
      for (RowId r = 0; r < pt.num_rows(); ++r) {
        const Value v = pt.GetValue(r, c);
        values.emplace(v.ToSql(), v);
      }
      for (const auto& [sql, v] : values) {
        const std::span<const RowId> before = pd->Lookup(c, v);
        const std::span<const RowId> after = nd->Lookup(c, v);
        if (before.empty()) continue;  // NaN is posted nowhere
        ASSERT_TRUE(std::equal(before.begin(), before.end(), after.begin()));
        if (after.data() == before.data()) continue;
        EXPECT_GT(after.size(), before.size()) << "column " << c << " " << sql;
        int& moves = dimension_moves[std::make_pair(c, sql)];
        EXPECT_LE(++moves, 1) << "column " << c << " " << sql;
      }
    }
  }
  // The base columns hold 1100 rows in buffers of 1278: the 4th batch
  // crosses that, and the regrown 2558 take the rest, so every column
  // regrows exactly once.
  EXPECT_EQ(column_regrowths, schema.num_fields());
  EXPECT_GT(posting_shares, 0);
}

// A batch aborted after its build (the catalog.ingest.build fault) has
// already appended past the tip of every shared buffer, and publishes
// nothing. The next good batch finds the tip taken, forks, and must
// publish exactly the base rows plus its own: equal to full builds and
// to the oracle over a table built from just those rows.
TEST_F(CatalogTest, AbortedBuildLeavesNoRowsBehindInTheNextVersion) {
  const Schema schema = MixedSchema();
  Rng rng(47);
  const char* states[] = {"CA", "NY", "TX"};
  auto make_rows = [&](int n, int first_key, const std::string& fresh) {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < n; ++i) {
      const std::string s = i % 9 == 0 ? fresh : states[rng.Uniform(3)];
      const int entity = i % 9 == 0 ? 40 : static_cast<int>(rng.Uniform(30));
      rows.push_back(MixedRow(&rng, entity, s, first_key + i));
    }
    return rows;
  };
  const auto base_rows = make_rows(1100, 0, "CA");
  const auto aborted_rows = make_rows(70, 5000, "aborted");
  const auto good_rows = make_rows(45, 9000, "new1");

  Table base(schema, /*chunk_rows=*/64);
  ASSERT_TRUE(base.AppendRows(base_rows).ok());
  PaleoOptions options;
  options.use_dimension_index = true;
  auto catalog = std::make_shared<TableCatalog>(std::move(base), options);
  Ingestor ingestor(catalog.get());
  auto prev = catalog->Current();

  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kInternal;
  spec.message = "injected: catalog.ingest.build";
  spec.at_hit = 1;
  FaultPoints::Arm("catalog.ingest.build", spec);
  ASSERT_FALSE(ingestor.Append(aborted_rows).ok());
  EXPECT_EQ(catalog->Current().get(), prev.get());
  ASSERT_TRUE(ingestor.Append(good_rows).ok());

  auto next = catalog->Current();
  const Table& t = next->table();
  // The oracle sums per 64-row chunk, as the executor does.
  Table reference(schema, /*chunk_rows=*/64);
  ASSERT_TRUE(reference.AppendRows(base_rows).ok());
  ASSERT_TRUE(reference.AppendRows(good_rows).ok());
  ASSERT_EQ(t.num_rows(), reference.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    // The aborted batch claimed the slots past the base rows: the good
    // batch forked to a private buffer.
    EXPECT_NE(ColumnData(t.column(c)), ColumnData(prev->table().column(c)))
        << "column " << c;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      const Value got = t.GetValue(r, c);
      const Value want = reference.GetValue(r, c);
      ASSERT_TRUE(got.is_double()
                      ? std::bit_cast<uint64_t>(got.dbl()) ==
                            std::bit_cast<uint64_t>(want.dbl())
                      : got == want)
          << "column " << c << " row " << r;
    }
  }
  EXPECT_EQ(t.column(1).dict()->Lookup("aborted"),
            StringDictionary::kInvalidCode);
  EXPECT_EQ(prev->table().num_rows(), base_rows.size());

  ExpectStatsEqual(next->engine().catalog(), StatsCatalog::Build(reference),
                   t.num_columns());
  ExpectEntityIndexEqual(next->engine().index(), t, reference);
  ExpectAnswersLikeOracle(t, next->engine().dimension_index(), reference);
  // The pinned base version still answers for the base rows alone.
  Table base_reference(schema, /*chunk_rows=*/64);
  ASSERT_TRUE(base_reference.AppendRows(base_rows).ok());
  ExpectAnswersLikeOracle(prev->table(), prev->engine().dimension_index(),
                          base_reference);
}

// A snapshot pinned across 20 publishes, one of which regrows every
// column, answers 100 queries bit for bit as it did before them.
TEST_F(CatalogTest, PinnedSnapshotAnswersIdenticallyAcrossPublishes) {
  const Schema schema = MixedSchema();
  Rng rng(53);
  const char* states[] = {"CA", "NY", "TX"};
  Table base(schema, /*chunk_rows=*/64);
  for (int i = 0; i < 1100; ++i) {
    const std::string s = states[rng.Uniform(3)];
    ASSERT_TRUE(base.AppendRow(MixedRow(&rng, static_cast<int>(rng.Uniform(30)),
                                        s, i))
                    .ok());
  }
  PaleoOptions options;
  options.use_dimension_index = true;
  auto catalog = std::make_shared<TableCatalog>(std::move(base), options);
  Ingestor ingestor(catalog.get());

  auto pinned = catalog->Current();
  const Table& t = pinned->table();
  std::vector<TopKQuery> queries = MixedQueries();
  queries.resize(100);
  Executor scan;
  Executor indexed;
  indexed.SetDimensionIndex(pinned->engine().dimension_index(), &t);
  auto answer_all = [&] {
    std::vector<TopKList> answers;
    for (const TopKQuery& q : queries) {
      for (Executor* ex : {&scan, &indexed}) {
        auto got = ex->Execute(t, q, ExecContext{});
        EXPECT_TRUE(got.ok()) << q.ToSql(t.schema());
        answers.push_back(got.ok() ? *std::move(got) : TopKList());
      }
    }
    return answers;
  };
  const std::vector<TopKList> before = answer_all();

  for (int b = 0; b < 20; ++b) {
    std::vector<std::vector<Value>> rows;
    for (int j = 0; j < 50; ++j) {
      // Rows that would change every answer were they visible: new
      // strings, entities and extreme measures.
      std::vector<Value> row = MixedRow(
          &rng, j % 2 == 0 ? 30 + b : static_cast<int>(rng.Uniform(30)),
          j % 3 == 0 ? "new1" : states[rng.Uniform(3)], 1100 + 50 * b + j);
      row[5] = Value::Int64(1000 + j);
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(ingestor.Append(rows).ok());
  }
  auto latest = catalog->Current();
  ASSERT_EQ(latest->num_rows(), t.num_rows() + 1000);
  EXPECT_NE(ColumnData(latest->table().column(5)), ColumnData(t.column(5)));

  const std::vector<TopKList> after = answer_all();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(oracle::BitwiseDiff(after[i], before[i]), "")
        << queries[i / 2].ToSql(t.schema());
  }
}

TEST_F(CatalogTest, LastReleaseTeardownRetiresSnapshot) {
  obs::MetricsRegistry registry;
  {
    auto catalog = MakeCatalog(&registry);
    Ingestor ingestor(catalog.get());

    auto pin = catalog->Current();
    std::weak_ptr<const TableSnapshot> watch = pin;
    ASSERT_TRUE(ingestor.Append(Batch(0, 3)).ok());

    // v1 is retired from the catalog but alive through our pin.
    EXPECT_EQ(registry.gauge("paleo_snapshot_live")->value(), 2);
    EXPECT_EQ(registry.counter("paleo_snapshot_retired_total")->value(), 0);
    EXPECT_EQ(registry.gauge("paleo_snapshot_version")->value(), 2);

    pin.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(registry.gauge("paleo_snapshot_live")->value(), 1);
    EXPECT_EQ(registry.counter("paleo_snapshot_retired_total")->value(), 1);
    EXPECT_EQ(registry.counter("paleo_ingest_batches_total")->value(), 1);
    EXPECT_EQ(registry.counter("paleo_ingest_rows_total")->value(), 3);
  }
  // Catalog destruction releases the published snapshot too.
  EXPECT_EQ(registry.gauge("paleo_snapshot_live")->value(), 0);
  EXPECT_EQ(registry.counter("paleo_snapshot_retired_total")->value(), 2);
}

TEST_F(CatalogTest, IngestFaultAbortLeavesCatalogUnchanged) {
  for (const char* site : {"catalog.ingest.validate", "catalog.ingest.build",
                           "catalog.ingest.publish"}) {
    FaultPoints::DisarmAll();
    auto catalog = MakeCatalog();
    Ingestor ingestor(catalog.get());
    auto before = catalog->Current();

    FaultSpec spec;
    spec.action = FaultAction::kStatusError;
    spec.code = StatusCode::kInternal;
    spec.message = std::string("injected: ") + site;
    spec.at_hit = 1;
    FaultPoints::Arm(site, spec);

    Status status = ingestor.Append(Batch(0, 2));
    ASSERT_FALSE(status.ok()) << site;
    EXPECT_EQ(status.code(), StatusCode::kInternal) << site;
    // The published snapshot is exactly the one from before the
    // failed batch — same object, same version, same rows.
    EXPECT_EQ(catalog->Current().get(), before.get()) << site;
    EXPECT_EQ(ingestor.stats().failed_batches, 1u) << site;

    // The fault was one-shot; the same batch now lands.
    ASSERT_TRUE(ingestor.Append(Batch(0, 2)).ok()) << site;
    EXPECT_GT(catalog->CurrentVersion(), before->version()) << site;
    EXPECT_EQ(catalog->Current()->num_rows(), before->num_rows() + 2)
        << site;
  }
}

TEST_F(CatalogTest, TypeErrorBatchLeavesCatalogUnchanged) {
  auto catalog = MakeCatalog();
  Ingestor ingestor(catalog.get());
  auto before = catalog->Current();

  auto rows = Batch(0, 2);
  rows[1][rows[1].size() - 1] = Value::String("not a number");
  Status status = ingestor.Append(rows);
  ASSERT_TRUE(status.IsTypeError());
  EXPECT_EQ(catalog->Current().get(), before.get());
  EXPECT_EQ(catalog->CurrentVersion(), 1u);
  EXPECT_EQ(ingestor.stats().failed_batches, 1u);
  EXPECT_EQ(ingestor.stats().rows, 0u);
}

TEST_F(CatalogTest, IngestorCollectsSpanTreePerBatch) {
  auto catalog = MakeCatalog();
  IngestorOptions options;
  options.collect_trace = true;
  Ingestor ingestor(catalog.get(), options);
  EXPECT_EQ(ingestor.last_trace(), nullptr);

  ASSERT_TRUE(ingestor.Append(Batch(0, 2)).ok());
  auto trace = ingestor.last_trace();
  ASSERT_NE(trace, nullptr);
  const obs::Span* ingest = trace->FindSpan("ingest");
  ASSERT_NE(ingest, nullptr);
  for (const char* stage : {"copy", "append", "stats", "index", "publish"}) {
    EXPECT_NE(trace->FindSpan(stage), nullptr) << stage;
  }
}

}  // namespace
}  // namespace paleo
