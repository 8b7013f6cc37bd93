// Snapshot-isolation differential suite: concurrent ingest storms
// racing Submit/Wait/Cancel on a live DiscoveryService. Every
// completed session's report must equal a standalone single-threaded
// run against the snapshot it pinned at admission — ingestion
// publishing versions underneath a running session must never change
// its answer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/mutex.h"
#include "common/random.h"
#include "datagen/tpch_gen.h"
#include "engine/exec_context.h"
#include "engine/executor.h"
#include "paleo/paleo.h"
#include "service/discovery_service.h"
#include "service/session.h"
#include "workload/workload.h"

namespace paleo {
namespace {

class SnapshotIsolationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchGenOptions gen;
    gen.scale_factor = 0.003;
    auto table = TpchGen::Generate(gen);
    ASSERT_TRUE(table.ok());
    table_ = new Table(std::move(*table));

    WorkloadOptions wl;
    wl.families = {QueryFamily::kMaxA, QueryFamily::kSumAB};
    wl.predicate_sizes = {1, 2};
    wl.ks = {5, 10};
    wl.queries_per_config = 2;
    auto workload = WorkloadGen::Generate(*table_, wl);
    ASSERT_TRUE(workload.ok());
    ASSERT_GE(workload->size(), 4u);
    workload_ = new std::vector<WorkloadQuery>(std::move(*workload));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete table_;
    table_ = nullptr;
  }

  static const Table& table() { return *table_; }
  static const std::vector<WorkloadQuery>& workload() { return *workload_; }

  static std::shared_ptr<TableCatalog> MakeCatalog() {
    return std::make_shared<TableCatalog>(Table(table()), PaleoOptions{});
  }

  static std::vector<Value> RowAt(RowId r) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(table().num_columns()));
    for (int c = 0; c < table().num_columns(); ++c) {
      row.push_back(table().GetValue(r, c));
    }
    return row;
  }

  /// The differential check: re-run the session's input standalone on
  /// the snapshot the session pinned and compare everything the
  /// report commits to.
  static void ExpectMatchesPinnedSnapshot(const Session& session,
                                          const std::string& context) {
    RunRequest reference;
    reference.input = &session.input();
    auto expected = session.snapshot().engine().Run(reference);
    ASSERT_TRUE(expected.ok()) << context;
    const ReverseEngineerReport* report = session.report();
    ASSERT_NE(report, nullptr) << context;
    EXPECT_EQ(report->found(), expected->found()) << context;
    EXPECT_EQ(report->valid.size(), expected->valid.size()) << context;
    if (!report->valid.empty() && !expected->valid.empty()) {
      EXPECT_TRUE(report->valid[0].query == expected->valid[0].query)
          << context;
    }
    EXPECT_EQ(report->executed_queries, expected->executed_queries)
        << context;
    EXPECT_EQ(report->skip_events, expected->skip_events) << context;
  }

 private:
  static Table* table_;
  static std::vector<WorkloadQuery>* workload_;
};

Table* SnapshotIsolationTest::table_ = nullptr;
std::vector<WorkloadQuery>* SnapshotIsolationTest::workload_ = nullptr;

TEST_F(SnapshotIsolationTest, SessionPinsAdmissionVersionForWholeRun) {
  auto catalog = MakeCatalog();
  DiscoveryServiceOptions options;
  options.num_workers = 1;
  DiscoveryService service(catalog, options);
  Ingestor ingestor(catalog.get());

  auto session = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(session.ok());
  const uint64_t pinned = (*session)->snapshot_version();
  EXPECT_EQ(pinned, 1u);

  // Publish versions underneath the (possibly still running) session.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ingestor.AppendRow(RowAt(static_cast<RowId>(i))).ok());
  }
  EXPECT_EQ(catalog->CurrentVersion(), 4u);

  ASSERT_EQ((*session)->Wait(), SessionState::kDone);
  // The session never migrated off its admission snapshot.
  EXPECT_EQ((*session)->snapshot_version(), pinned);
  ExpectMatchesPinnedSnapshot(**session, "pinned run");

  // A new admission pins the latest version.
  auto later = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(later.ok());
  EXPECT_EQ((*later)->snapshot_version(), 4u);
  ASSERT_EQ((*later)->Wait(), SessionState::kDone);
  ExpectMatchesPinnedSnapshot(**later, "post-ingest run");
}

TEST_F(SnapshotIsolationTest, IngestStormDifferentialAgainstPinnedSnapshots) {
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 4;
  auto catalog = MakeCatalog();
  DiscoveryServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  DiscoveryService service(catalog, options);
  Ingestor ingestor(catalog.get());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(0x5eed5eedULL);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::vector<Value>> batch;
      const int n = static_cast<int>(rng.UniformInt(1, 8));
      for (int i = 0; i < n; ++i) {
        batch.push_back(RowAt(static_cast<RowId>(
            rng.Uniform(static_cast<uint64_t>(table().num_rows())))));
      }
      Status status = ingestor.Append(batch);
      if (!status.ok()) {
        ADD_FAILURE() << "ingest failed: " << status.ToString();
        break;
      }
    }
  });

  Mutex admitted_mutex;
  std::vector<std::pair<std::shared_ptr<Session>, uint64_t>> admitted;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xC11E47ULL + static_cast<uint64_t>(c));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t wi = static_cast<size_t>(
            rng.Uniform(static_cast<uint64_t>(workload().size())));
        auto session = service.Submit(ServiceRequest{
            .input = workload()[wi].list});
        if (!session.ok()) continue;
        const uint64_t at_submit = catalog->CurrentVersion();
        if (rng.Bernoulli(0.2)) (*session)->Cancel();
        MutexLock lock(admitted_mutex);
        admitted.emplace_back(*session, at_submit);
      }
    });
  }
  for (auto& t : clients) t.join();

  std::vector<SessionState> states;
  {
    MutexLock lock(admitted_mutex);
    for (size_t i = 0; i < admitted.size(); ++i) {
      states.push_back(
          admitted[i].first->WaitFor(std::chrono::seconds(60)));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  int done = 0;
  for (size_t i = 0; i < admitted.size(); ++i) {
    auto& [session, version_at_submit] = admitted[i];
    ASSERT_TRUE(IsTerminal(states[i]));
    // The pinned version can be at most one publish older than the
    // version read just after Submit returned, and never newer than
    // the latest.
    EXPECT_LE(session->snapshot_version(), catalog->CurrentVersion());
    if (states[i] != SessionState::kDone) continue;
    ++done;
    const std::string context =
        "session " + std::to_string(i) + " pinned v" +
        std::to_string(session->snapshot_version()) + " (submit saw v" +
        std::to_string(version_at_submit) + ")";
    ExpectMatchesPinnedSnapshot(*session, context);
  }
  EXPECT_GT(done, 0);
  EXPECT_GT(ingestor.stats().batches, 0u);
}

TEST_F(SnapshotIsolationTest, IngestSealsChunksUnderPinnedScans) {
  // Small chunks so the append storm continuously fills the open tail
  // chunk, seals it, and opens the next one while pinned readers scan.
  Table chunked(table());
  chunked.SetChunkRows(64);
  auto catalog =
      std::make_shared<TableCatalog>(std::move(chunked), PaleoOptions{});
  Ingestor ingestor(catalog.get());

  auto pinned = catalog->Current();
  ASSERT_EQ(pinned->table().chunk_rows(), 64u);
  const size_t pinned_chunks = pinned->table().num_chunks();
  const uint64_t pinned_epoch = pinned->table().epoch();

  Executor ex;
  const WorkloadQuery& wq = workload()[0];
  auto reference = ex.Execute(pinned->table(), wq.query, ExecContext{});
  ASSERT_TRUE(reference.ok());

  // Append enough rows to seal several 64-row chunks, re-executing the
  // pinned snapshot between batches: its chunk layout, zone maps, and
  // answer must be frozen however far ingestion advances.
  std::atomic<bool> stop{false};
  std::atomic<bool> mismatch{false};
  std::thread reader([&] {
    Executor scan;
    while (!stop.load(std::memory_order_relaxed)) {
      auto again = scan.Execute(pinned->table(), wq.query, ExecContext{});
      if (!again.ok() || !(*again == *reference)) {
        mismatch.store(true);
        return;
      }
    }
  });
  constexpr int kBatches = 20;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<Value>> batch;
    for (int i = 0; i < 16; ++i) {
      batch.push_back(RowAt(static_cast<RowId>(
          (static_cast<size_t>(b) * 16 + static_cast<size_t>(i)) %
          table().num_rows())));
    }
    ASSERT_TRUE(ingestor.Append(batch).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(pinned->table().num_chunks(), pinned_chunks);
  EXPECT_EQ(pinned->table().epoch(), pinned_epoch);

  // The latest snapshot grew into freshly sealed chunks: the layout
  // still tiles [0, num_rows) in 64-row chunks with zones per column.
  auto latest = catalog->Current();
  const Table& grown = latest->table();
  EXPECT_EQ(grown.num_rows(), table().num_rows() + kBatches * 16);
  ASSERT_GT(grown.num_chunks(), pinned_chunks);
  RowId next = 0;
  for (const Chunk& ch : grown.chunks()) {
    EXPECT_EQ(ch.begin_row, next);
    EXPECT_LE(ch.num_rows(), grown.chunk_rows());
    EXPECT_EQ(ch.zones.size(),
              static_cast<size_t>(grown.num_columns()));
    next = ch.end_row;
  }
  EXPECT_EQ(static_cast<size_t>(next), grown.num_rows());

  // And the grown snapshot answers through its own chunks (differential
  // against a zone-skip-free scan of the same table).
  Executor grown_ex;
  auto skip = grown_ex.Execute(grown, wq.query, ExecContext{});
  auto noskip = grown_ex.Execute(grown, wq.query,
                                 ExecContext{.zone_map_skipping = false});
  ASSERT_TRUE(skip.ok());
  ASSERT_TRUE(noskip.ok());
  EXPECT_TRUE(*skip == *noskip);
}

TEST_F(SnapshotIsolationTest, ReadersObserveMonotonicVersions) {
  auto catalog = MakeCatalog();
  Ingestor ingestor(catalog.get());
  constexpr int kReaders = 4;
  constexpr int kBatches = 24;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<bool> violation{false};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      size_t last_rows = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = catalog->Current();
        // Monotonic publication: version and row count never move
        // backwards between two pins by the same reader, and a
        // snapshot's own row count matches its table's.
        if (snapshot->version() < last_version ||
            snapshot->num_rows() < last_rows ||
            snapshot->num_rows() != snapshot->table().num_rows()) {
          violation.store(true);
        }
        last_version = snapshot->version();
        last_rows = snapshot->num_rows();
      }
    });
  }
  for (int b = 0; b < kBatches; ++b) {
    const RowId r = static_cast<RowId>(
        static_cast<size_t>(b) % table().num_rows());
    ASSERT_TRUE(ingestor.AppendRow(RowAt(r)).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(catalog->CurrentVersion(), 1u + kBatches);
  EXPECT_EQ(catalog->Current()->num_rows(), table().num_rows() + kBatches);
}

}  // namespace
}  // namespace paleo
