// TableCatalog / Ingestor unit tests: publication ordering, snapshot
// pinning and last-release teardown, incremental-vs-full build
// equality (and ingested snapshots against the naive oracle), and the
// all-or-nothing ingest contract under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <string>
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
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"s", DataType::kString, FieldRole::kDimension},
      {"d", DataType::kDouble, FieldRole::kDimension},
      {"y", DataType::kInt64, FieldRole::kDimension},
      {"k", DataType::kInt64, FieldRole::kKey},
      {"v", DataType::kInt64, FieldRole::kMeasure},
      {"w", DataType::kDouble, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  const int k_col = schema->FieldIndex("k");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double dims[] = {-0.0, 0.0, nan, 1.5, -2.25};
  Rng rng(20);
  auto row = [&](int entity, const std::string& s, int64_t k) {
    const double w = rng.Uniform(16) == 0  ? nan
                     : rng.Uniform(16) == 0 ? -0.0
                                            : rng.UniformDouble(-50.0, 50.0);
    return std::vector<Value>{
        Value::String("e" + std::to_string(entity)), Value::String(s),
        Value::Double(dims[rng.Uniform(5)]),
        Value::Int64(rng.UniformInt(2000, 2003)), Value::Int64(k),
        Value::Int64(rng.UniformInt(0, 9)), Value::Double(w)};
  };
  const char* states[] = {"CA", "NY", "TX"};
  Table base(*schema);
  for (int i = 0; i < 1100; ++i) {
    const int entity = static_cast<int>(rng.Uniform(30));
    const std::string s = states[rng.Uniform(3)];
    ASSERT_TRUE(base.AppendRow(row(entity, s, i % 1020)).ok());
  }
  PaleoOptions options;
  options.chunk_rows = 64;
  options.use_dimension_index = true;
  auto catalog = std::make_shared<TableCatalog>(std::move(base), options);
  Ingestor ingestor(catalog.get());

  // The query sweep: every aggregate over both measures, in both
  // orders, under predicates on the zeros, NaN, a batch's new string
  // and conjunctions of them; k = 100 exceeds the number of groups.
  std::vector<Predicate> predicates = {
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
  const AggFn aggs[] = {AggFn::kMax, AggFn::kMin,   AggFn::kSum,
                        AggFn::kAvg, AggFn::kCount, AggFn::kNone};

  auto check_snapshot = [&](int64_t want_k_distinct) {
    auto snapshot = catalog->Current();
    const Table& t = snapshot->table();
    ASSERT_EQ(t.chunk_rows(), 64u);
    const StatsCatalog& stats = snapshot->engine().catalog();
    EXPECT_EQ(stats.column_stats(k_col).distinct_count, want_k_distinct);
    ExpectStatsEqual(stats, StatsCatalog::Build(t), t.num_columns());

    const EntityIndex& entities = snapshot->engine().index();
    const EntityIndex rebuilt = EntityIndex::Build(t);
    const StringDictionary& names = *t.entity_column().dict();
    for (uint32_t code = 0; code < names.size(); ++code) {
      EXPECT_EQ(entities.Lookup(names.Get(code)),
                rebuilt.Lookup(names.Get(code)))
          << names.Get(code);
    }
    EXPECT_TRUE(entities.Lookup("absent").empty());
    EXPECT_EQ(entities.num_entities(), rebuilt.num_entities());

    const DimensionIndex* index = snapshot->engine().dimension_index();
    ASSERT_NE(index, nullptr);
    Executor scan;
    Executor indexed;
    indexed.SetDimensionIndex(index, &t);
    int qi = 0;
    for (const Predicate& p : predicates) {
      const size_t want_count = oracle::NaiveCountMatching(t, p);
      for (AggFn agg : aggs) {
        for (int expr_col : {5, 6}) {
          TopKQuery q;
          q.predicate = p;
          q.expr = RankExpr::Column(expr_col);
          q.agg = agg;
          q.order = qi % 2 == 0 ? SortOrder::kDesc : SortOrder::kAsc;
          q.k = qi % 3 == 0 ? 100 : 5;
          ++qi;
          const TopKList want = oracle::NaiveExecute(t, q);
          for (Executor* ex : {&scan, &indexed}) {
            const char* path = ex == &scan ? "scan" : "index";
            auto got = ex->Execute(t, q, ExecContext{});
            ASSERT_TRUE(got.ok()) << path << ": " << q.ToSql(t.schema());
            EXPECT_EQ(oracle::BitwiseDiff(*got, want), "")
                << path << ", " << t.num_rows()
                << " rows: " << q.ToSql(t.schema());
          }
        }
      }
      EXPECT_EQ(scan.CountMatching(t, p, ExecContext{}), want_count)
          << p.ToSql(t.schema());
      EXPECT_EQ(indexed.CountMatching(t, p, ExecContext{}), want_count)
          << p.ToSql(t.schema());
    }
    EXPECT_GT(indexed.stats().index_assisted, 0);
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
      rows.push_back(row(entity, s, k));
    }
    ASSERT_TRUE(ingestor.Append(rows).ok());
    check_snapshot(std::min<int64_t>(1022 + 2 * b, ColumnStats::kDistinctCap));
  }
  EXPECT_EQ(ingestor.stats().batches, 4u);
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
