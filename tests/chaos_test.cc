// Chaos suite: randomized fault storms over the serving stack.
//
// Every iteration derives a deterministic seed from PALEO_CHAOS_SEED
// (env; defaults below and printed at startup), arms a random subset of
// the process's fault points with random specs — injected Status
// errors, artificial delays, spurious wakeups, simulated allocation
// failures — and drives a DiscoveryService with concurrent Submit /
// Wait / Poll / Cancel / CancelAll / destruction. The invariants:
//
//   * every admitted session reaches a terminal state (no hang),
//   * nothing crashes (run under ASan and TSan in CI's chaos lane),
//   * service stats and the metrics registry stay consistent,
//   * every session that completes (kDone) reports results
//     byte-identical to the unfaulted sequential baseline, even when
//     the run degraded (atom-cache shrink) or was retried.
//
// Replay: a failure prints the base seed and iteration; rerun with
// PALEO_CHAOS_SEED=<seed> to reproduce the same fault pattern.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/fault_points.h"
#include "common/random.h"
#include "datagen/tpch_gen.h"
#include "io/table_io.h"
#include "paleo/paleo.h"
#include "service/discovery_service.h"
#include "service/session.h"
#include "workload/workload.h"

namespace paleo {
namespace {

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("PALEO_CHAOS_SEED")) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<uint64_t>(v);
  }
  return 20260808ULL;
}

struct Baseline {
  TopKQuery first_valid;
  size_t num_valid = 0;
  int64_t executed_queries = 0;
  int64_t skip_events = 0;
};

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    seed_ = ChaosSeed();
    std::printf("chaos: PALEO_CHAOS_SEED=%llu (export to replay)\n",
                static_cast<unsigned long long>(seed_));

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

    // The unfaulted single-threaded reference every completed chaos
    // session must reproduce byte-identically.
    FaultPoints::DisarmAll();
    Paleo paleo(table_, PaleoOptions{});
    baselines_ = new std::vector<Baseline>();
    for (const WorkloadQuery& wq : *workload_) {
      auto report = paleo.Run({.input = &wq.list});
      ASSERT_TRUE(report.ok()) << wq.name;
      ASSERT_TRUE(report->found()) << wq.name;
      Baseline b;
      b.first_valid = report->valid[0].query;
      b.num_valid = report->valid.size();
      b.executed_queries = report->executed_queries;
      b.skip_events = report->skip_events;
      baselines_->push_back(b);
    }
  }

  static void TearDownTestSuite() {
    delete baselines_;
    baselines_ = nullptr;
    delete workload_;
    workload_ = nullptr;
    delete table_;
    table_ = nullptr;
  }

  void SetUp() override { FaultPoints::DisarmAll(); }
  void TearDown() override { FaultPoints::DisarmAll(); }

  static uint64_t seed() { return seed_; }
  static const Table& table() { return *table_; }

  /// A catalog over a copy of the fixture table (plain copy shares
  /// dictionaries — safe because ingestion deep-copies before
  /// appending). Storms that never ingest serve version 1, which IS
  /// the fixture table, so the static baselines hold unchanged.
  static std::shared_ptr<TableCatalog> MakeCatalog(
      PaleoOptions options = {}) {
    return std::make_shared<TableCatalog>(Table(table()),
                                          std::move(options));
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

  static const std::vector<WorkloadQuery>& workload() { return *workload_; }
  static const std::vector<Baseline>& baselines() { return *baselines_; }

  static void ExpectMatchesBaseline(const Session& session, size_t wi,
                                    const std::string& context) {
    const ReverseEngineerReport* report = session.report();
    ASSERT_NE(report, nullptr) << context;
    const Baseline& b = baselines()[wi];
    ASSERT_TRUE(report->found()) << context;
    EXPECT_EQ(report->valid.size(), b.num_valid) << context;
    EXPECT_TRUE(report->valid[0].query == b.first_valid) << context;
    EXPECT_EQ(report->executed_queries, b.executed_queries) << context;
    EXPECT_EQ(report->skip_events, b.skip_events) << context;
  }

  /// Arms a random subset of the serving stack's fault points with
  /// specs drawn from `rng`. Delays stay small (microseconds to low
  /// milliseconds) so storms perturb interleavings without stalling
  /// the suite.
  static void ArmRandomStorm(Rng* rng) {
    auto maybe_arm = [&](const char* name, FaultSpec spec, double p) {
      if (!rng->Bernoulli(p)) return;
      spec.seed = rng->Next();
      FaultPoints::Arm(name, spec);
    };
    const StatusCode kCodes[] = {
        StatusCode::kIoError, StatusCode::kResourceExhausted,
        StatusCode::kInternal, StatusCode::kCancelled};
    auto error_spec = [&]() {
      FaultSpec spec;
      spec.action = FaultAction::kStatusError;
      spec.code = kCodes[rng->Uniform(4)];
      spec.probability = rng->UniformDouble(0.05, 0.4);
      spec.max_fires = rng->UniformInt(1, 8);
      return spec;
    };
    auto delay_spec = [&]() {
      FaultSpec spec;
      spec.action = FaultAction::kDelay;
      spec.delay_micros = rng->UniformInt(100, 2000);
      spec.probability = rng->UniformDouble(0.05, 0.3);
      return spec;
    };
    auto spurious_spec = [&]() {
      FaultSpec spec;
      spec.action = FaultAction::kSpuriousWakeup;
      spec.probability = rng->UniformDouble(0.1, 0.5);
      return spec;
    };
    auto alloc_spec = [&]() {
      FaultSpec spec;
      spec.action = FaultAction::kAllocFailure;
      spec.probability = rng->UniformDouble(0.2, 1.0);
      return spec;
    };
    maybe_arm("service.submit.enqueue", error_spec(), 0.4);
    maybe_arm("service.dispatch.run", error_spec(), 0.4);
    maybe_arm("service.dispatch.run", delay_spec(), 0.2);
    maybe_arm("request-queue.push", error_spec(), 0.3);
    maybe_arm("request-queue.pop.wait", spurious_spec(), 0.4);
    maybe_arm("session.wait", spurious_spec(), 0.4);
    maybe_arm("thread-pool.submit.push", delay_spec(), 0.3);
    maybe_arm("thread-pool.worker.wait", spurious_spec(), 0.4);
    maybe_arm("validator.validate.begin", error_spec(), 0.3);
    maybe_arm("executor.execute.scan", error_spec(), 0.3);
    maybe_arm("atom-cache.insert.alloc", alloc_spec(), 0.4);
    // Ingestion-side sites: no-ops in storms that never ingest, load-
    // bearing in the ingest storm below.
    maybe_arm("catalog.ingest.validate", error_spec(), 0.3);
    maybe_arm("catalog.ingest.build", error_spec(), 0.3);
    maybe_arm("catalog.ingest.publish", error_spec(), 0.2);
    maybe_arm("catalog.ingest.publish", delay_spec(), 0.3);
  }

  /// One storm iteration. When `destroy_mid_flight`, the service is
  /// destroyed while sessions are queued or running — shutdown must
  /// still leave every admitted session terminal.
  static void RunStormIteration(uint64_t iter_seed, int iteration,
                                bool destroy_mid_flight) {
    const std::string context = "iteration " + std::to_string(iteration) +
                                " (seed " + std::to_string(iter_seed) +
                                ")";
    Rng rng(iter_seed);
    ArmRandomStorm(&rng);

    DiscoveryServiceOptions service_options;
    service_options.num_workers = static_cast<int>(rng.UniformInt(1, 3));
    service_options.queue_capacity =
        static_cast<size_t>(rng.UniformInt(4, 32));
    service_options.max_retries = static_cast<int>(rng.UniformInt(0, 3));
    service_options.retry_backoff_ms = 1;
    service_options.retry_backoff_max_ms = 4;
    service_options.seed = iter_seed;
    if (rng.Bernoulli(0.3)) {
      service_options.watchdog_stall_ms = 250;
      service_options.watchdog_poll_ms = 5;
    }
    auto service = std::make_unique<DiscoveryService>(
        MakeCatalog(), service_options);

    constexpr int kClients = 2;
    const int per_client = static_cast<int>(rng.UniformInt(1, 2));
    std::atomic<int> rejected{0};
    std::atomic<int> attempts{0};
    Mutex admitted_mutex;
    std::vector<std::pair<std::shared_ptr<Session>, size_t>> admitted;
    std::vector<std::thread> clients;
    const bool cancel_all_mid_storm = rng.Bernoulli(0.3);
    std::vector<uint64_t> client_seeds;
    for (int c = 0; c < kClients; ++c) client_seeds.push_back(rng.Next());
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng client_rng(client_seeds[static_cast<size_t>(c)]);
        for (int r = 0; r < per_client; ++r) {
          const size_t wi = static_cast<size_t>(client_rng.Uniform(
              static_cast<uint64_t>(workload().size())));
          attempts.fetch_add(1);
          auto session = service->Submit(ServiceRequest{
              .input = workload()[wi].list});
          if (!session.ok()) {
            rejected.fetch_add(1);
            continue;
          }
          if (client_rng.Bernoulli(0.25)) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                client_rng.UniformInt(0, 500)));
            (*session)->Cancel();
          }
          if (client_rng.Bernoulli(0.3)) {
            (void)(*session)->Poll();
            (void)(*session)->WaitFor(std::chrono::milliseconds(1));
          }
          MutexLock lock(admitted_mutex);
          admitted.emplace_back(*session, wi);
        }
      });
    }
    if (cancel_all_mid_storm) service->CancelAll();
    for (std::thread& t : clients) t.join();

    const int64_t injected_before_teardown = FaultPoints::TotalInjected();
    if (destroy_mid_flight) {
      service.reset();  // shutdown races queued and running sessions
    }
    int done = 0;
    for (auto& [session, wi] : admitted) {
      SessionState state = session->WaitFor(std::chrono::seconds(60));
      ASSERT_TRUE(IsTerminal(state))
          << context << ": session stuck in "
          << SessionStateToString(state);
      if (state == SessionState::kDone) {
        ++done;
        ExpectMatchesBaseline(*session, wi, context);
      }
    }
    if (!destroy_mid_flight) {
      auto stats = service->stats();
      EXPECT_EQ(stats.submitted, attempts.load()) << context;
      EXPECT_EQ(static_cast<int>(admitted.size()) + rejected.load(),
                attempts.load())
          << context;
      EXPECT_EQ(stats.Finished(),
                static_cast<int64_t>(admitted.size()))
          << context;
      EXPECT_EQ(stats.done, done) << context;
      // Metrics mirror the stats exactly, and every injection that
      // fired while this service was attached is in its registry.
      const obs::MetricsRegistry& registry = service->metrics();
      EXPECT_EQ(registry.counter("paleo_service_submitted_total")->value(),
                stats.submitted)
          << context;
      EXPECT_EQ(registry
                    .counter("paleo_service_sessions_total",
                             "state=\"done\"")
                    ->value(),
                stats.done)
          << context;
      EXPECT_EQ(registry.counter("paleo_retries_total")->value(),
                stats.retries)
          << context;
      EXPECT_GE(registry.counter("paleo_faults_injected_total")->value(),
                0)
          << context;
      service.reset();
    }
    EXPECT_GE(FaultPoints::TotalInjected(), injected_before_teardown);
    FaultPoints::DisarmAll();
  }

 private:
  static uint64_t seed_;
  static Table* table_;
  static std::vector<WorkloadQuery>* workload_;
  static std::vector<Baseline>* baselines_;
};

uint64_t ChaosTest::seed_ = 0;
Table* ChaosTest::table_ = nullptr;
std::vector<WorkloadQuery>* ChaosTest::workload_ = nullptr;
std::vector<Baseline>* ChaosTest::baselines_ = nullptr;

TEST_F(ChaosTest, FaultStormSessionsAlwaysReachTerminalState) {
  constexpr int kIterations = 140;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    uint64_t state = seed() + static_cast<uint64_t>(iteration);
    RunStormIteration(SplitMix64(&state), iteration,
                      /*destroy_mid_flight=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(ChaosTest, ShutdownStormNeverHangsOrLeaksSessions) {
  constexpr int kIterations = 60;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    uint64_t state = seed() + 1000003ULL + static_cast<uint64_t>(iteration);
    RunStormIteration(SplitMix64(&state), iteration,
                      /*destroy_mid_flight=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(ChaosTest, RetryRecoversTransientDispatchFault) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_retries = 2;
  service_options.retry_backoff_ms = 1;
  service_options.retry_backoff_max_ms = 4;
  DiscoveryService service(MakeCatalog(), service_options);

  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kIoError;
  spec.message = "injected: transient dispatch I/O failure";
  spec.at_hit = 1;
  spec.max_fires = 1;
  FaultPoints::Arm("service.dispatch.run", spec);

  auto session = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(session.ok());
  ASSERT_EQ((*session)->Wait(), SessionState::kDone)
      << (*session)->status().ToString();
  ExpectMatchesBaseline(**session, 0, "retry recovery");
  auto stats = service.stats();
  EXPECT_GE(stats.retries, 1);
  EXPECT_EQ(service.metrics().counter("paleo_retries_total")->value(),
            stats.retries);
}

TEST_F(ChaosTest, NonRetryableDispatchFaultFailsWithoutRetry) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_retries = 3;
  DiscoveryService service(MakeCatalog(), service_options);

  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kInternal;  // deterministic: never retried
  spec.at_hit = 1;
  FaultPoints::Arm("service.dispatch.run", spec);

  auto session = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->Wait(), SessionState::kFailed);
  EXPECT_EQ(service.stats().retries, 0);
}

TEST_F(ChaosTest, MemoryPressureDegradesCacheNotFailure) {
  // The dimension index answers covered predicates without touching
  // the selection bitmaps or the atom cache, so it would hide the
  // allocation site this test starves. Results are identical either
  // way (executor_oracle_test pins that), so the baseline still holds.
  PaleoOptions engine_options;
  engine_options.use_dimension_index = false;
  DiscoveryService service(MakeCatalog(engine_options),
                           DiscoveryServiceOptions{});
  FaultSpec alloc;
  alloc.action = FaultAction::kAllocFailure;
  alloc.probability = 1.0;
  alloc.seed = 17;
  FaultPoints::Arm("atom-cache.insert.alloc", alloc);

  auto session = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(session.ok());
  ASSERT_EQ((*session)->Wait(), SessionState::kDone)
      << (*session)->status().ToString();
  // Degraded, not failed — and byte-identical to the healthy baseline.
  ExpectMatchesBaseline(**session, 0, "memory pressure");
  const ReverseEngineerReport* report = (*session)->report();
  ASSERT_NE(report, nullptr);
  EXPECT_GT(report->degraded_events, 0);
  const obs::MetricsRegistry& registry = service.metrics();
  EXPECT_GE(registry.counter("paleo_degraded_runs_total")->value(), 1);
  EXPECT_GT(registry.counter("paleo_faults_injected_total")->value(), 0);
}

TEST_F(ChaosTest, WatchdogCancelsWedgedRun) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.watchdog_stall_ms = 50;
  service_options.watchdog_poll_ms = 5;
  DiscoveryService service(MakeCatalog(), service_options);

  // Every candidate execution stalls 200ms, far past the 50ms stall
  // limit: the watchdog must kick the run onto the graceful
  // cancellation path — not kill it, not leave it hung. Workload item
  // 2 takes multiple executions, so a budget check always lands
  // between the wedge and completion.
  FaultSpec wedge;
  wedge.action = FaultAction::kDelay;
  wedge.delay_micros = 200000;
  wedge.probability = 1.0;
  wedge.seed = 3;
  FaultPoints::Arm("executor.execute.scan", wedge);

  auto session = service.Submit(ServiceRequest{.input = workload()[2].list});
  ASSERT_TRUE(session.ok());
  SessionState state = (*session)->WaitFor(std::chrono::seconds(60));
  ASSERT_TRUE(IsTerminal(state)) << SessionStateToString(state);
  EXPECT_EQ(state, SessionState::kCancelled);
  const ReverseEngineerReport* report = (*session)->report();
  if (report != nullptr) {
    EXPECT_EQ(report->termination, TerminationReason::kCancelled);
  }
  auto stats = service.stats();
  EXPECT_GE(stats.watchdog_kicks, 1);
  EXPECT_EQ(
      service.metrics().counter("paleo_watchdog_kicks_total")->value(),
      stats.watchdog_kicks);
}

TEST_F(ChaosTest, InjectedSubmitFaultSurfacesToClient) {
  DiscoveryService service(MakeCatalog(), DiscoveryServiceOptions{});
  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kInternal;
  spec.message = "injected: admission bookkeeping lost";
  spec.at_hit = 1;
  FaultPoints::Arm("service.submit.enqueue", spec);

  auto first = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInternal);
  EXPECT_NE(first.status().message().find("admission bookkeeping"),
            std::string::npos);
  // The fault fired once; the service is healthy again.
  auto second = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->Wait(), SessionState::kDone);
}

TEST_F(ChaosTest, IngestStormUnderFaultsPreservesSnapshotIsolation) {
  // Catalog fault sites armed, an ingest thread hammering batches
  // (some of which the injected faults abort), clients submitting
  // concurrently. Invariants: no hang, no crash, every completed
  // session's report is byte-identical to a fresh standalone run on
  // the snapshot it pinned — whatever version that happened to be.
  constexpr int kIterations = 12;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    uint64_t state = seed() + 2000029ULL + static_cast<uint64_t>(iteration);
    const uint64_t iter_seed = SplitMix64(&state);
    const std::string context =
        "ingest storm iteration " + std::to_string(iteration) + " (seed " +
        std::to_string(iter_seed) + ")";
    Rng rng(iter_seed);
    ArmRandomStorm(&rng);

    auto catalog = MakeCatalog();
    DiscoveryServiceOptions service_options;
    service_options.num_workers = 2;
    service_options.queue_capacity = 32;
    DiscoveryService service(catalog, service_options);
    Ingestor ingestor(catalog.get());

    std::atomic<bool> stop{false};
    const uint64_t ingest_seed = rng.Next();
    std::thread writer([&] {
      Rng ingest_rng(ingest_seed);
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::vector<Value>> batch;
        const int n = static_cast<int>(ingest_rng.UniformInt(1, 16));
        for (int i = 0; i < n; ++i) {
          batch.push_back(RowAt(static_cast<RowId>(ingest_rng.Uniform(
              static_cast<uint64_t>(table().num_rows())))));
        }
        // Injected catalog.ingest.* faults abort some batches; the
        // published snapshot must be unaffected either way.
        (void)ingestor.Append(batch);
      }
    });

    std::vector<std::pair<std::shared_ptr<Session>, size_t>> admitted;
    for (int r = 0; r < 6; ++r) {
      const size_t wi = static_cast<size_t>(
          rng.Uniform(static_cast<uint64_t>(workload().size())));
      auto session = service.Submit(ServiceRequest{
          .input = workload()[wi].list});
      if (session.ok()) admitted.emplace_back(*session, wi);
    }
    // Wait phase holds no assertions: the writer must be joined before
    // any early return, and the reference runs below must execute with
    // the storm disarmed (they share the engine's fault sites).
    std::vector<SessionState> states;
    states.reserve(admitted.size());
    for (auto& [session, wi] : admitted) {
      states.push_back(session->WaitFor(std::chrono::seconds(60)));
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    FaultPoints::DisarmAll();
    for (size_t i = 0; i < admitted.size(); ++i) {
      auto& [session, wi] = admitted[i];
      ASSERT_TRUE(IsTerminal(states[i]))
          << context << ": stuck in " << SessionStateToString(states[i]);
      if (states[i] != SessionState::kDone) continue;
      // Snapshot isolation: identical to a fresh single-threaded run
      // on the pinned version (v1 == the fixture baseline; later
      // versions are their own reference).
      RunRequest reference;
      reference.input = &session->input();
      auto expected = session->snapshot().engine().Run(reference);
      ASSERT_TRUE(expected.ok()) << context;
      const ReverseEngineerReport* report = session->report();
      ASSERT_NE(report, nullptr) << context;
      EXPECT_EQ(report->valid.size(), expected->valid.size()) << context;
      if (!report->valid.empty() && !expected->valid.empty()) {
        EXPECT_TRUE(report->valid[0].query == expected->valid[0].query)
            << context;
      }
      EXPECT_EQ(report->executed_queries, expected->executed_queries)
          << context;
      EXPECT_EQ(report->skip_events, expected->skip_events) << context;
      if (session->snapshot_version() == 1) {
        ExpectMatchesBaseline(*session, wi, context);
      }
    }
    // The chain stayed coherent: the published snapshot's rows grew by
    // exactly the successfully ingested rows.
    auto ingest_stats = ingestor.stats();
    EXPECT_EQ(catalog->Current()->num_rows(),
              table().num_rows() + ingest_stats.rows)
        << context;
    EXPECT_GE(catalog->CurrentVersion(), 1u) << context;
    FaultPoints::DisarmAll();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(ChaosTest, TableIoFaultSurfacesAsStatus) {
  const std::string path = ::testing::TempDir() + "/chaos_relation.csv";
  {
    std::ofstream out(path);
    out << TableIo::ToCsv(table());
  }
  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kIoError;
  spec.message = "injected: open() lost the file";
  spec.at_hit = 1;
  FaultPoints::Arm("table-io.read.open", spec);
  auto faulted = TableIo::ReadCsvFile(path);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);
  // Disarmed (fault exhausted), the same read succeeds.
  auto clean = TableIo::ReadCsvFile(path);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

}  // namespace
}  // namespace paleo
