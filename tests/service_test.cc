// DiscoveryService integration and stress tests: admission control,
// session lifecycle, cancellation/deadline wind-down, shutdown safety,
// and equivalence of concurrent results with the single-threaded
// pipeline.

#include "service/discovery_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "catalog/table_catalog.h"
#include "common/fault_points.h"
#include "common/thread_pool.h"
#include "datagen/tpch_gen.h"
#include "obs/trace.h"
#include "paleo/paleo.h"
#include "service/request_queue.h"
#include "service/session.h"
#include "workload/workload.h"

namespace paleo {
namespace {

struct Baseline {
  TopKQuery first_valid;
  size_t num_valid = 0;
  int64_t executed_queries = 0;
  int64_t skip_events = 0;
};

/// Shared fixture state: one TPC-H relation, a mixed workload, and the
/// single-threaded reference run of every workload query. Built once —
/// the table build plus |workload| baseline pipeline runs dominate the
/// suite's cost otherwise.
class ServiceTest : public ::testing::Test {
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
    ASSERT_GE(workload->size(), 8u);
    workload_ = new std::vector<WorkloadQuery>(std::move(*workload));

    // Single-threaded reference for every workload query.
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

  static const Table& table() { return *table_; }

  /// A single-version catalog over a copy of the fixture table (plain
  /// copy shares dictionaries — fine for a table that never appends;
  /// ingestion deep-copies before mutating anyway).
  static std::shared_ptr<TableCatalog> MakeCatalog(
      PaleoOptions options = {}) {
    return std::make_shared<TableCatalog>(Table(table()),
                                          std::move(options));
  }

  static const std::vector<WorkloadQuery>& workload() { return *workload_; }
  static const std::vector<Baseline>& baselines() { return *baselines_; }

  /// Checks a finished session's report against the sequential
  /// reference for workload query `wi`: identical valid set and
  /// identical committed validation effort.
  static void ExpectMatchesBaseline(const Session& session, size_t wi) {
    ASSERT_EQ(session.Poll(), SessionState::kDone)
        << SessionStateToString(session.Poll());
    const ReverseEngineerReport* report = session.report();
    ASSERT_NE(report, nullptr);
    const Baseline& b = baselines()[wi];
    ASSERT_TRUE(report->found()) << workload()[wi].name;
    EXPECT_EQ(report->valid.size(), b.num_valid) << workload()[wi].name;
    EXPECT_TRUE(report->valid[0].query == b.first_valid)
        << workload()[wi].name;
    EXPECT_EQ(report->executed_queries, b.executed_queries)
        << workload()[wi].name;
    EXPECT_EQ(report->skip_events, b.skip_events) << workload()[wi].name;
  }

 private:
  static Table* table_;
  static std::vector<WorkloadQuery>* workload_;
  static std::vector<Baseline>* baselines_;
};

Table* ServiceTest::table_ = nullptr;
std::vector<WorkloadQuery>* ServiceTest::workload_ = nullptr;
std::vector<Baseline>* ServiceTest::baselines_ = nullptr;

TEST_F(ServiceTest, ParallelValidationMatchesSequential) {
  // Intra-request parallelism alone (no service): a request with a
  // pool and num_threads > 1 must commit exactly the sequential
  // schedule — same valid set, same executed_queries, same skips.
  PaleoOptions options;
  options.num_threads = 4;
  Paleo paleo(&table(), options);
  ThreadPool pool(4);
  for (size_t wi = 0; wi < workload().size(); ++wi) {
    auto report = paleo.Run({.input = &workload()[wi].list, .pool = &pool});
    ASSERT_TRUE(report.ok()) << workload()[wi].name;
    const Baseline& b = baselines()[wi];
    ASSERT_TRUE(report->found()) << workload()[wi].name;
    EXPECT_EQ(report->valid.size(), b.num_valid);
    EXPECT_TRUE(report->valid[0].query == b.first_valid)
        << workload()[wi].name;
    EXPECT_EQ(report->executed_queries, b.executed_queries)
        << workload()[wi].name;
    EXPECT_EQ(report->skip_events, b.skip_events) << workload()[wi].name;
  }
}

TEST_F(ServiceTest, SingleRequestLifecycle) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  DiscoveryService service(MakeCatalog(), service_options);
  auto session = service.Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(session.ok());
  SessionState state = (*session)->Wait();
  EXPECT_EQ(state, SessionState::kDone);
  EXPECT_TRUE((*session)->status().ok());
  ExpectMatchesBaseline(**session, 0);
  EXPECT_GE((*session)->queue_wait_ms(), 0.0);
  EXPECT_GT((*session)->run_ms(), 0.0);
  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.done, 1);
  EXPECT_EQ(stats.shed, 0);
}

TEST_F(ServiceTest, StressConcurrentRequestsMatchBaseline) {
  // >= 8 workers, >= 32 queued requests, multiple client threads.
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  constexpr int kTotal = kClients * kRequestsPerClient;

  DiscoveryServiceOptions service_options;
  service_options.num_workers = 8;
  service_options.queue_capacity = kTotal;
  PaleoOptions paleo_options;
  paleo_options.num_threads = 2;  // exercise intra-request parallelism
  DiscoveryService service(MakeCatalog(paleo_options), service_options);

  std::vector<std::shared_ptr<Session>> sessions(kTotal);
  std::vector<size_t> workload_index(kTotal);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int slot = c * kRequestsPerClient + r;
        const size_t wi =
            static_cast<size_t>(slot) % workload().size();
        workload_index[static_cast<size_t>(slot)] = wi;
        auto session = service.Submit(ServiceRequest{
            .input = workload()[wi].list});
        if (!session.ok()) {
          failures.fetch_add(1);
          continue;
        }
        sessions[static_cast<size_t>(slot)] = *session;
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);  // capacity == kTotal: nothing shed

  for (int i = 0; i < kTotal; ++i) {
    ASSERT_NE(sessions[static_cast<size_t>(i)], nullptr);
    SessionState state = sessions[static_cast<size_t>(i)]->Wait();
    ASSERT_TRUE(IsTerminal(state)) << SessionStateToString(state);
    ExpectMatchesBaseline(*sessions[static_cast<size_t>(i)],
                          workload_index[static_cast<size_t>(i)]);
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.done, kTotal);
  EXPECT_EQ(stats.Finished(), kTotal);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST_F(ServiceTest, ExactlyOneTerminalStateUnderRepeatedPolling) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  DiscoveryService service(MakeCatalog(), service_options);
  auto session = service.Submit(ServiceRequest{.input = workload()[1].list});
  ASSERT_TRUE(session.ok());
  SessionState first = (*session)->Wait();
  ASSERT_TRUE(IsTerminal(first));
  // A terminal state is final: every later observation agrees.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ((*session)->Poll(), first);
  }
  EXPECT_EQ((*session)->Wait(), first);
  EXPECT_EQ((*session)->WaitFor(std::chrono::milliseconds(1)), first);
}

TEST_F(ServiceTest, AdmissionShedsWhenQueueFull) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = 1;
  DiscoveryService service(MakeCatalog(), service_options);

  // Flood far faster than one worker can drain a real pipeline run.
  constexpr int kFlood = 64;
  int shed = 0;
  std::vector<std::shared_ptr<Session>> admitted;
  for (int i = 0; i < kFlood; ++i) {
    auto session =
        service.Submit(ServiceRequest{
            .input = workload()[static_cast<size_t>(i) %
                                workload().size()].list});
    if (session.ok()) {
      admitted.push_back(*session);
    } else {
      EXPECT_TRUE(session.status().IsResourceExhausted())
          << session.status().ToString();
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(service.stats().shed, shed);
  EXPECT_EQ(service.stats().submitted, kFlood);
  for (auto& s : admitted) {
    EXPECT_TRUE(IsTerminal(s->Wait()));
  }
  EXPECT_EQ(service.stats().Finished(),
            static_cast<int64_t>(admitted.size()));
}

TEST_F(ServiceTest, CancelMidFlightNeverDeadlocks) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 64;
  DiscoveryService service(MakeCatalog(), service_options);

  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < 24; ++i) {
    auto session = service.Submit(ServiceRequest{
        .input = workload()[static_cast<size_t>(i) % workload().size()].list});
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  // Cancel every other session at arbitrary points in its life.
  for (size_t i = 0; i < sessions.size(); i += 2) {
    sessions[i]->Cancel();
  }
  for (auto& s : sessions) {
    SessionState state = s->Wait();  // must not hang
    ASSERT_TRUE(IsTerminal(state)) << SessionStateToString(state);
  }
  // Cancelled sessions either lost the race (kDone) or wound down
  // (kCancelled); both carry a well-formed outcome.
  for (size_t i = 0; i < sessions.size(); i += 2) {
    SessionState state = sessions[i]->Poll();
    EXPECT_TRUE(state == SessionState::kCancelled ||
                state == SessionState::kDone)
        << SessionStateToString(state);
    if (state == SessionState::kCancelled) {
      const ReverseEngineerReport* report = sessions[i]->report();
      if (report != nullptr) {
        EXPECT_EQ(report->termination, TerminationReason::kCancelled);
      }
    }
  }
  // Uncancelled sessions still match the sequential reference.
  for (size_t i = 1; i < sessions.size(); i += 2) {
    ExpectMatchesBaseline(*sessions[i], i % workload().size());
  }
}

TEST_F(ServiceTest, DeadlineExpiresQueuedAndRunningSessions) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = 64;
  service_options.default_deadline_ms = 1;  // brutally tight
  DiscoveryService service(MakeCatalog(), service_options);

  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < 16; ++i) {
    auto session = service.Submit(ServiceRequest{
        .input = workload()[static_cast<size_t>(i) % workload().size()].list});
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  int expired = 0;
  for (auto& s : sessions) {
    SessionState state = s->Wait();  // must not hang
    ASSERT_TRUE(IsTerminal(state)) << SessionStateToString(state);
    if (state == SessionState::kExpired) {
      ++expired;
      const ReverseEngineerReport* report = s->report();
      if (report != nullptr) {
        EXPECT_EQ(report->termination, TerminationReason::kDeadline);
      }
    }
  }
  // With a 1ms deadline and one worker, the tail of the queue cannot
  // possibly start in time.
  EXPECT_GT(expired, 0);
  EXPECT_EQ(service.stats().Finished(),
            static_cast<int64_t>(sessions.size()));
}

TEST_F(ServiceTest, PerRequestDeadlineOverridesDefault) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  DiscoveryService service(MakeCatalog(), service_options);
  PaleoOptions request_options;
  request_options.deadline_ms = 1;
  // Submit enough that at least the later ones expire before running.
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < 8; ++i) {
    auto session =
        service.Submit(ServiceRequest{
            .input = workload()[0].list, .options = request_options});
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  for (auto& s : sessions) {
    SessionState state = s->Wait();
    EXPECT_TRUE(state == SessionState::kExpired ||
                state == SessionState::kDone)
        << SessionStateToString(state);
  }
}

TEST_F(ServiceTest, CancelAllFinishesEverything) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.queue_capacity = 64;
  DiscoveryService service(MakeCatalog(), service_options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < 16; ++i) {
    auto session = service.Submit(ServiceRequest{
        .input = workload()[static_cast<size_t>(i) % workload().size()].list});
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  service.CancelAll();
  for (auto& s : sessions) {
    ASSERT_TRUE(IsTerminal(s->Wait()));
  }
  EXPECT_EQ(service.stats().Finished(),
            static_cast<int64_t>(sessions.size()));
}

TEST_F(ServiceTest, DestructionWithInFlightSessionsIsSafe) {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    DiscoveryServiceOptions service_options;
    service_options.num_workers = 2;
    service_options.queue_capacity = 64;
    DiscoveryService service(MakeCatalog(), service_options);
    for (int i = 0; i < 12; ++i) {
      auto session = service.Submit(ServiceRequest{
          .input = workload()[static_cast<size_t>(i) %
                              workload().size()].list});
      ASSERT_TRUE(session.ok());
      sessions.push_back(*session);
    }
    // Service destroyed while most sessions are queued or running.
  }
  // Shutdown left every session terminal; none of these can hang.
  for (auto& s : sessions) {
    ASSERT_TRUE(IsTerminal(s->Wait()))
        << SessionStateToString(s->Poll());
  }
}

TEST_F(ServiceTest, ServiceRequestSubmitCarriesTraceAndMatchesBaseline) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  DiscoveryService service(MakeCatalog(), service_options);

  ServiceRequest request;
  request.input = workload()[0].list;
  request.collect_trace = true;
  auto session = service.Submit(std::move(request));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->Wait(), SessionState::kDone);
  ExpectMatchesBaseline(**session, 0);

  // The session's span tree: "session" root, "queued" child, and the
  // pipeline's "run" tree grafted under the root.
  std::shared_ptr<const obs::Trace> trace = (*session)->trace();
  ASSERT_NE(trace, nullptr);
  const obs::Span* root = trace->FindSpan("session");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, obs::Trace::kNoSpan);
  EXPECT_TRUE(root->finished());
  const obs::Span* queued = trace->FindSpan("queued");
  ASSERT_NE(queued, nullptr);
  EXPECT_TRUE(queued->finished());
  const obs::Span* run = trace->FindSpan("run");
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->finished());
  EXPECT_NE(trace->FindSpan("validate"), nullptr);

  // Without the flag there is no trace.
  ServiceRequest untraced;
  untraced.input = workload()[0].list;
  auto plain = service.Submit(std::move(untraced));
  ASSERT_TRUE(plain.ok());
  (*plain)->Wait();
  EXPECT_EQ((*plain)->trace(), nullptr);
}

TEST_F(ServiceTest, ServiceRequestOptionsOverrideApplies) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  DiscoveryService service(MakeCatalog(), service_options);

  ServiceRequest request;
  request.input = workload()[0].list;
  PaleoOptions per_request;
  per_request.deadline_ms = 1;  // brutally tight, like the wrapper test
  request.options = per_request;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < 8; ++i) {
    auto session = service.Submit(request);
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  for (auto& s : sessions) {
    SessionState state = s->Wait();
    EXPECT_TRUE(state == SessionState::kExpired ||
                state == SessionState::kDone)
        << SessionStateToString(state);
  }
}

TEST_F(ServiceTest, MetricsRegistryMirrorsStatsAndCoversPipeline) {
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.queue_capacity = 16;
  DiscoveryService service(MakeCatalog(), service_options);

  constexpr int kRequests = 6;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < kRequests; ++i) {
    ServiceRequest request;
    request.input =
        workload()[static_cast<size_t>(i) % workload().size()].list;
    auto session = service.Submit(std::move(request));
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  for (auto& s : sessions) {
    ASSERT_EQ(s->Wait(), SessionState::kDone);
  }

  const obs::MetricsRegistry& registry = service.metrics();
  EXPECT_EQ(registry.counter("paleo_service_submitted_total")->value(),
            kRequests);
  EXPECT_EQ(registry
                .counter("paleo_service_sessions_total", "state=\"done\"")
                ->value(),
            kRequests);
  EXPECT_EQ(registry.gauge("paleo_service_queue_depth")->value(), 0);
  EXPECT_EQ(registry.histogram("paleo_service_queue_wait_ms")->count(),
            kRequests);
  EXPECT_EQ(registry.histogram("paleo_service_run_ms")->count(),
            kRequests);
  // Every run reported into the shared pipeline series.
  EXPECT_EQ(registry.counter("paleo_runs_total")->value(), kRequests);
  EXPECT_GT(
      registry
          .counter("paleo_validation_candidates_total",
                   "outcome=\"executed\"")
          ->value(),
      0);
  EXPECT_GT(registry.counter("paleo_executor_queries_total")->value(), 0);

  // The rendered dump exposes the full serving + pipeline surface.
  std::string text = registry.RenderText();
  for (const char* needle :
       {"paleo_service_submitted_total", "paleo_service_shed_total",
        "paleo_service_sessions_total{state=\"done\"}",
        "paleo_service_queue_depth", "paleo_service_queue_wait_ms_count",
        "paleo_service_run_ms_bucket", "paleo_runs_total",
        "paleo_run_ms_count", "outcome=\"executed\"",
        "outcome=\"speculative\"", "outcome=\"skipped\"",
        "paleo_executor_rows_scanned_total"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ServiceTest, ConcurrentSubmittersAndScrapersOnOneRegistry) {
  // TSan-facing stress: client threads hammer Submit/Wait (every run
  // writing the shared registry through the pool workers) while a
  // scraper thread renders the exposition in a loop. Totals must come
  // out exact and the interleaving data-race-free.
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 64;
  DiscoveryService service(MakeCatalog(), service_options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::thread scraper([&] {
    size_t rendered = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rendered += service.metrics().RenderText().size();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(rendered, 0u);
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        ServiceRequest request;
        request.input =
            workload()[static_cast<size_t>(c * kPerClient + r) %
                       workload().size()]
                .list;
        request.collect_trace = (r % 2) == 0;
        auto session = service.Submit(std::move(request));
        if (!session.ok()) continue;  // shed under load is fine here
        if (IsTerminal((*session)->Wait())) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  scraper.join();

  EXPECT_GT(completed.load(), 0);
  const obs::MetricsRegistry& registry = service.metrics();
  auto stats = service.stats();
  EXPECT_EQ(registry.counter("paleo_service_submitted_total")->value(),
            stats.submitted);
  EXPECT_EQ(registry
                .counter("paleo_service_sessions_total", "state=\"done\"")
                ->value(),
            stats.done);
  EXPECT_EQ(registry.counter("paleo_service_shed_total")->value(),
            stats.shed);
  EXPECT_EQ(registry.gauge("paleo_service_queue_depth")->value(), 0);
}

TEST_F(ServiceTest, SubmitAfterShutdownRejected) {
  auto service = std::make_unique<DiscoveryService>(
      MakeCatalog(), DiscoveryServiceOptions{});
  // Exercise the shutdown flag through the public seam that sets it:
  // destruction. A submit racing destruction is the client's bug; the
  // contract we can test is that a destroyed service finished all its
  // sessions (above) and that stats are coherent right up to the end.
  auto session = service->Submit(ServiceRequest{.input = workload()[0].list});
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  auto stats = service->stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.Finished(), 1);
  service.reset();
  EXPECT_EQ((*session)->Poll(), SessionState::kDone);
}

TEST_F(ServiceTest, CancelAllRacingSubmitUnderArmedEnqueueFault) {
  // Regression: an injected admission failure must not leave a session
  // half-registered, and sessions admitted while CancelAll sweeps in
  // parallel must all still reach a terminal state. The fault point
  // makes Submit fail intermittently exactly at the enqueue seam.
  struct DisarmGuard {
    ~DisarmGuard() { FaultPoints::DisarmAll(); }
  } guard;
  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kResourceExhausted;
  spec.message = "injected admission failure";
  spec.probability = 0.25;
  spec.seed = 1234;
  FaultPoints::Arm("service.submit.enqueue", spec);

  DiscoveryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.queue_capacity = 64;
  DiscoveryService service(MakeCatalog(), service_options);

  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 8;
  Mutex admitted_mutex;
  std::vector<std::shared_ptr<Session>> admitted;  // under admitted_mutex
  std::atomic<int> injected_rejections{0};
  std::atomic<bool> done_submitting{false};
  std::thread canceller([&] {
    while (!done_submitting.load(std::memory_order_relaxed)) {
      service.CancelAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.CancelAll();  // one final sweep after the last admission
  });
  std::vector<std::thread> submitters;
  for (int c = 0; c < kSubmitters; ++c) {
    submitters.emplace_back([&, c] {
      for (int r = 0; r < kPerSubmitter; ++r) {
        auto session = service.Submit(ServiceRequest{
            .input = workload()[static_cast<size_t>(c * kPerSubmitter + r) %
                                workload().size()].list});
        if (!session.ok()) {
          injected_rejections.fetch_add(1);
          continue;
        }
        MutexLock lock(admitted_mutex);
        admitted.push_back(*session);
      }
    });
  }
  for (auto& t : submitters) t.join();
  done_submitting.store(true, std::memory_order_relaxed);
  canceller.join();

  size_t num_admitted;
  {
    MutexLock lock(admitted_mutex);
    num_admitted = admitted.size();
    for (auto& s : admitted) {
      SessionState state =
          s->WaitFor(std::chrono::seconds(30));  // must not hang
      ASSERT_TRUE(IsTerminal(state)) << SessionStateToString(state);
    }
  }
  // Submit never half-fails: every attempt either rejected at the
  // armed seam or produced a session that reached a terminal state.
  EXPECT_EQ(static_cast<int>(num_admitted) + injected_rejections.load(),
            kSubmitters * kPerSubmitter);
  EXPECT_GT(injected_rejections.load(), 0);  // p=0.25 over 24 draws
  EXPECT_EQ(service.stats().Finished(),
            static_cast<int64_t>(num_admitted));
}

TEST_F(ServiceTest, LateAdmissionAfterCancelAllStillReachesTerminal) {
  // Regression for the teardown ordering: a session admitted after a
  // CancelAll sweep must not escape wind-down — destruction republishes
  // the shutdown flag under the live-list mutex and sweeps again, so
  // either the sweep or the submitting thread itself cancels it.
  DiscoveryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.queue_capacity = 8;
  auto service = std::make_unique<DiscoveryService>(
      MakeCatalog(), service_options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int i = 0; i < 4; ++i) {
    auto session = service->Submit(ServiceRequest{
        .input = workload()[static_cast<size_t>(i) % workload().size()].list});
    ASSERT_TRUE(session.ok());
    sessions.push_back(*session);
  }
  service->CancelAll();
  auto late = service->Submit(ServiceRequest{
      .input = workload()[1].list});  // missed the sweep
  ASSERT_TRUE(late.ok());
  sessions.push_back(*late);
  service.reset();
  for (auto& s : sessions) {
    ASSERT_TRUE(IsTerminal(s->Wait())) << SessionStateToString(s->Poll());
  }
}

// ---------------------------------------------- RequestQueue / Session

/// A queued-only session: never dispatched, so queue and state-machine
/// edges can be driven by hand. Pins a snapshot of a tiny standalone
/// catalog, like every real session pins the serving catalog's.
std::shared_ptr<Session> MakeIdleSession(Session::Id id,
                                         bool collect_trace = false) {
  static TableCatalog* catalog = [] {
    auto schema = Schema::Make({
        {"e", DataType::kString, FieldRole::kEntity},
        {"val", DataType::kDouble, FieldRole::kMeasure},
    });
    Table t(*schema);
    EXPECT_TRUE(
        t.AppendRow({Value::String("entity"), Value::Double(1.0)}).ok());
    return new TableCatalog(std::move(t), PaleoOptions{});
  }();
  ServiceRequest request;
  request.input.Append("entity", 1.0);
  request.collect_trace = collect_trace;
  return std::make_shared<Session>(id, std::move(request), PaleoOptions{},
                                   catalog->Current());
}

TEST(RequestQueueTest, CapacityOneShedsAndRecoversAcrossClose) {
  RequestQueue queue(1);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.Pop(), nullptr);  // open and empty: returns at once
  auto s1 = MakeIdleSession(1);
  auto s2 = MakeIdleSession(2);
  auto s3 = MakeIdleSession(3);
  EXPECT_TRUE(queue.TryPush(s1));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_FALSE(queue.TryPush(s2));  // at capacity: shed
  EXPECT_EQ(queue.Pop(), s1);       // FIFO head
  EXPECT_TRUE(queue.TryPush(s2));   // capacity freed by the pop
  queue.Close();
  EXPECT_FALSE(queue.TryPush(s3));  // closed: shed
  EXPECT_EQ(queue.Pop(), s2);       // queued work still drains
  EXPECT_EQ(queue.Pop(), nullptr);  // then nullptr forever
  EXPECT_EQ(queue.Pop(), nullptr);
}

TEST(RequestQueueTest, CancelWhileQueuedIsStillDelivered) {
  // Cancel only trips the token; the terminal state belongs to the
  // dispatcher, so a cancelled session must still come out of Pop (the
  // service's Dispatch finalizes it without running).
  RequestQueue queue(2);
  auto session = MakeIdleSession(7);
  ASSERT_TRUE(queue.TryPush(session));
  session->Cancel();
  EXPECT_TRUE(session->cancellation_token()->cancelled());
  EXPECT_EQ(session->Poll(), SessionState::kQueued);
  auto popped = queue.Pop();
  ASSERT_EQ(popped, session);
  EXPECT_EQ(popped->budget().Check(0), TerminationReason::kCancelled);
  popped->FinishWithoutRunning(TerminationReason::kCancelled);
  EXPECT_EQ(session->Wait(), SessionState::kCancelled);
  const ReverseEngineerReport* report = session->report();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->termination, TerminationReason::kCancelled);
  EXPECT_EQ(session->trace(), nullptr);  // collect_trace was off
}

TEST(SessionTest, TraceWithheldUntilTerminal) {
  // Regression: trace() used to hand out the live span tree while the
  // dispatching worker was still writing it (obs::Trace is not
  // thread-safe); the contract is nullptr until the terminal state.
  auto session = MakeIdleSession(9, /*collect_trace=*/true);
  EXPECT_EQ(session->trace(), nullptr);  // queued: tree mid-construction
  session->MarkRunning();
  EXPECT_EQ(session->trace(), nullptr);  // running: worker still writing
  ReverseEngineerReport report;
  report.termination = TerminationReason::kCompleted;
  session->Finish(std::move(report));
  EXPECT_EQ(session->Poll(), SessionState::kDone);
  auto trace = session->trace();
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(trace->FindSpan("session"), nullptr);
  EXPECT_NE(trace->FindSpan("queued"), nullptr);
}

}  // namespace
}  // namespace paleo
