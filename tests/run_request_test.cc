// RunRequest suite: Run(const RunRequest&) produces reports
// byte-identical (modulo wall-clock fields) under sequential and
// parallel validation and under an options override equal to the
// instance options, forwards the sample spec, and fills the
// observability sinks the request carries (metrics registry, trace).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_points.h"
#include "common/thread_pool.h"
#include "datagen/tpch_gen.h"
#include "datagen/traffic_gen.h"
#include "paleo/paleo.h"
#include "paleo/sampler.h"
#include "workload/workload.h"

namespace paleo {
namespace {

/// Deterministic serialization of everything in a report except
/// wall-clock measurements (timings, trace) and speculative_executions
/// (parallel-only discarded look-ahead, explicitly wall-clock
/// dependent; see PaleoOptions::num_threads). Two equivalent runs must
/// produce byte-identical fingerprints.
std::string Fingerprint(const ReverseEngineerReport& r,
                        const Schema& schema) {
  std::string out;
  auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  for (const ValidQuery& vq : r.valid) {
    line("valid " + vq.query.ToSql(schema) + " @" +
         std::to_string(vq.executions_at_discovery));
  }
  line("candidate_predicates=" + std::to_string(r.candidate_predicates));
  std::string sizes;
  for (int n : r.predicates_by_size) sizes += std::to_string(n) + ",";
  line("predicates_by_size=" + sizes);
  line("tuple_sets=" + std::to_string(r.tuple_sets));
  line("candidate_queries=" + std::to_string(r.candidate_queries));
  line("executed_queries=" + std::to_string(r.executed_queries));
  line("skip_events=" + std::to_string(r.skip_events));
  line("rprime_rows=" + std::to_string(r.rprime_rows));
  line("rprime_bytes=" + std::to_string(r.rprime_bytes));
  line("termination=" +
       std::string(TerminationReasonToString(r.termination)));
  line("ranking=" + std::to_string(r.ranking_info.used_top_entities) +
       std::to_string(r.ranking_info.used_histograms) +
       std::to_string(r.ranking_info.used_fallback) + "/" +
       std::to_string(r.ranking_info.top_entity_candidate_columns) + "/" +
       std::to_string(r.ranking_info.histogram_candidate_columns) + "/" +
       std::to_string(r.ranking_info.tuple_set_evaluations));
  for (const CandidateQuery& cq : r.near_misses) {
    line("near_miss " + cq.query.ToSql(schema));
  }
  for (const CandidateQuery& cq : r.candidates) {
    line("candidate " + cq.query.ToSql(schema));
  }
  return out;
}

/// Shared fixture: a TPC-H relation and a small workload, reused by
/// every equivalence check (table generation dominates the cost).
class RunRequestTest : public ::testing::Test {
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
    wl.ks = {5};
    wl.queries_per_config = 1;
    auto workload = WorkloadGen::Generate(*table_, wl);
    ASSERT_TRUE(workload.ok());
    ASSERT_GE(workload->size(), 3u);
    workload_ = new std::vector<WorkloadQuery>(std::move(*workload));
  }

  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
    delete table_;
    table_ = nullptr;
  }

  static const Table& table() { return *table_; }
  static const std::vector<WorkloadQuery>& workload() {
    return *workload_;
  }

 private:
  static Table* table_;
  static std::vector<WorkloadQuery>* workload_;
};

Table* RunRequestTest::table_ = nullptr;
std::vector<WorkloadQuery>* RunRequestTest::workload_ = nullptr;

TEST_F(RunRequestTest, NullInputIsInvalidArgument) {
  Paleo paleo(&table(), PaleoOptions{});
  RunRequest request;  // input left null
  auto report = paleo.Run(request);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
}

TEST_F(RunRequestTest, CoverageOverrideReachesMiner) {
  // A 0.3 sample mines at CoverageRatioForSample(0.3) = 0.8 unless the
  // request overrides the ratio; a lower ratio admits more predicates.
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];
  auto sample = Sampler::UniformPerEntity(
      paleo.index(), wq.list.DistinctEntities(), 0.3, /*seed=*/7);
  ASSERT_TRUE(sample.ok());

  RunRequest request;
  request.input = &wq.list;
  request.sample_rows = &*sample;
  request.sample_fraction = 0.3;
  auto by_fraction = paleo.Run(request);
  ASSERT_TRUE(by_fraction.ok());

  request.coverage_ratio_override = 0.3;
  auto overridden = paleo.Run(request);
  ASSERT_TRUE(overridden.ok());

  EXPECT_GT(overridden->candidate_predicates,
            by_fraction->candidate_predicates);
}

TEST_F(RunRequestTest, ParallelValidationMatchesSequentialFingerprint) {
  // The parallel rank-order-commit schedule must not change any
  // fingerprinted field relative to a plain sequential run.
  Paleo sequential(&table(), PaleoOptions{});
  PaleoOptions parallel_options;
  parallel_options.num_threads = 4;
  ThreadPool pool(4);
  for (const WorkloadQuery& wq : workload()) {
    RunRequest seq_request;
    seq_request.input = &wq.list;
    auto seq = sequential.Run(seq_request);
    ASSERT_TRUE(seq.ok()) << wq.name;

    RunRequest par_request;
    par_request.input = &wq.list;
    par_request.pool = &pool;
    par_request.options_override = &parallel_options;
    auto par = sequential.Run(par_request);
    ASSERT_TRUE(par.ok()) << wq.name;

    EXPECT_EQ(Fingerprint(*seq, table().schema()),
              Fingerprint(*par, table().schema()))
        << wq.name;
  }
}

TEST_F(RunRequestTest, OptionsOverrideEqualToInstanceIsIdentity) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];
  PaleoOptions copy = paleo.options();

  RunRequest plain;
  plain.input = &wq.list;
  auto base = paleo.Run(plain);
  ASSERT_TRUE(base.ok());

  RunRequest overridden;
  overridden.input = &wq.list;
  overridden.options_override = &copy;
  auto with_override = paleo.Run(overridden);
  ASSERT_TRUE(with_override.ok());

  EXPECT_EQ(Fingerprint(*base, table().schema()),
            Fingerprint(*with_override, table().schema()));
}

/// Every series a run exports equals the report's value. `registry` is
/// fresh for the run, so each series holds that run's total alone.
void ExpectRegistryEqualsReport(const obs::MetricsRegistry& registry,
                                const ReverseEngineerReport& r,
                                const std::string& where) {
  auto counter = [&](const std::string& name,
                     const std::string& labels = "") -> int64_t {
    const obs::Counter* c = registry.counter(name, labels);
    EXPECT_NE(c, nullptr) << where << ": " << name << "{" << labels << "}";
    return c != nullptr ? c->value() : -1;
  };
  auto histogram = [&](const std::string& name, const std::string& labels,
                       double want_ms) {
    const obs::Histogram* h = registry.histogram(name, labels);
    ASSERT_NE(h, nullptr) << where << ": " << name << "{" << labels << "}";
    EXPECT_EQ(h->count(), 1) << where << ": " << name << "{" << labels << "}";
    if (want_ms >= 0.0) {
      EXPECT_NEAR(h->sum_ms(), want_ms, 1e-3) << where << ": " << labels;
    }
  };
  EXPECT_EQ(counter("paleo_runs_total"), 1) << where;
  EXPECT_EQ(counter("paleo_runs_found_total"), r.found() ? 1 : 0) << where;
  histogram("paleo_run_ms", "", -1.0);
  histogram("paleo_step_ms", "step=\"find_predicates\"",
            r.timings.find_predicates_ms);
  histogram("paleo_step_ms", "step=\"find_ranking\"",
            r.timings.find_ranking_ms);
  histogram("paleo_step_ms", "step=\"validation\"", r.timings.validation_ms);
  EXPECT_EQ(counter("paleo_candidate_predicates_total"),
            r.candidate_predicates)
      << where;
  EXPECT_EQ(counter("paleo_candidate_queries_total"), r.candidate_queries)
      << where;
  EXPECT_EQ(counter("paleo_validation_candidates_total",
                    "outcome=\"executed\""),
            r.executed_queries)
      << where;
  EXPECT_EQ(counter("paleo_validation_candidates_total",
                    "outcome=\"speculative\""),
            r.speculative_executions)
      << where;
  EXPECT_EQ(counter("paleo_validation_candidates_total",
                    "outcome=\"skipped\""),
            r.skip_events)
      << where;
  EXPECT_EQ(counter("paleo_validation_passes_total"), r.validation_passes)
      << where;
  EXPECT_EQ(counter("paleo_near_misses_total"),
            static_cast<int64_t>(r.near_misses.size()))
      << where;
  EXPECT_EQ(counter("paleo_executor_queries_total"),
            r.executor_stats.queries_executed)
      << where;
  EXPECT_EQ(counter("paleo_executor_rows_scanned_total"),
            r.executor_stats.rows_scanned)
      << where;
  EXPECT_EQ(counter("paleo_executor_index_assisted_total"),
            r.executor_stats.index_assisted)
      << where;
  EXPECT_EQ(counter("paleo_chunks_skipped_total"),
            r.executor_stats.chunks_skipped)
      << where;
  EXPECT_EQ(counter("paleo_morsels_total"), r.executor_stats.morsels)
      << where;
  EXPECT_EQ(counter("paleo_cache_hits_total"), r.cache_stats.hits) << where;
  EXPECT_EQ(counter("paleo_cache_misses_total"), r.cache_stats.misses)
      << where;
  EXPECT_EQ(counter("paleo_cache_evictions_total"), r.cache_stats.evictions)
      << where;
  EXPECT_EQ(counter("paleo_validations_refuted_early_total"),
            r.executions_aborted_early)
      << where;
  EXPECT_EQ(counter("paleo_rows_saved_by_threshold_total"),
            r.executor_stats.rows_saved)
      << where;
  EXPECT_EQ(counter("paleo_degraded_runs_total"),
            r.degraded_events > 0 ? 1 : 0)
      << where;
  // Two series that only echoed state are gone.
  EXPECT_EQ(registry.histogram("paleo_scan_parallelism"), nullptr) << where;
  EXPECT_EQ(registry.gauge("paleo_cache_resident_bytes"), nullptr) << where;
  EXPECT_GT(r.executor_stats.queries_executed, 0) << where;
}

/// L = sum(x) (equally avg(x)) of A, B and C over R, each of which has
/// one row, so over R' max(x) reproduces L too and the Figure 4 walk
/// stops there. But D's max ranks into max(x)'s top 3 over R, so no
/// first-pass candidate validates, and progressive deepening finds the
/// answer.
Table ShadowedByMaxTable() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"d", DataType::kString, FieldRole::kDimension},
      {"x", DataType::kDouble, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  Table t(*schema);
  const std::pair<const char*, double> rows[] = {
      {"A", 10.0}, {"B", 7.0}, {"C", 5.0}, {"D", 6.0}, {"D", -2.0}};
  for (const auto& [e, x] : rows) {
    EXPECT_TRUE(
        t.AppendRow({Value::String(e), Value::String("p"), Value::Double(x)})
            .ok());
  }
  return t;
}

TEST_F(RunRequestTest, MetricsRegistryCountsMatchReport) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];

  {  // Sequential.
    obs::MetricsRegistry registry;
    RunRequest request;
    request.input = &wq.list;
    request.metrics = &registry;
    auto report = paleo.Run(request);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->found());
    ExpectRegistryEqualsReport(registry, *report, "sequential");
    EXPECT_GT(report->executor_stats.index_assisted, 0);
    // Sequentially, every execution the executor counts is committed.
    EXPECT_EQ(report->executor_stats.queries_executed,
              report->executed_queries);

    // A second run accumulates into the same instruments.
    auto again = paleo.Run(request);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(registry.counter("paleo_runs_total")->value(), 2);
    EXPECT_EQ(registry.histogram("paleo_run_ms")->count(), 2);
    EXPECT_EQ(registry.counter("paleo_executor_queries_total")->value(),
              report->executor_stats.queries_executed +
                  again->executor_stats.queries_executed);

    // The rendered exposition covers every outcome label.
    std::string text = registry.RenderText();
    EXPECT_NE(text.find("outcome=\"executed\""), std::string::npos);
    EXPECT_NE(text.find("outcome=\"speculative\""), std::string::npos);
    EXPECT_NE(text.find("outcome=\"skipped\""), std::string::npos);
  }

  {  // Parallel validation of every candidate, scanning R through the
     // atom cache.
    PaleoOptions parallel_options;
    parallel_options.num_threads = 4;
    parallel_options.use_dimension_index = false;
    parallel_options.stop_at_first_valid = false;
    ThreadPool pool(4);
    obs::MetricsRegistry registry;
    RunRequest request;
    request.input = &wq.list;
    request.pool = &pool;
    request.options_override = &parallel_options;
    request.metrics = &registry;
    auto report = paleo.Run(request);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->found());
    ExpectRegistryEqualsReport(registry, *report, "parallel");
    EXPECT_GT(report->executor_stats.rows_scanned, 0);
    EXPECT_GT(report->cache_stats.misses, 0);
    EXPECT_GT(report->cache_stats.hits, 0);
  }

  {  // A run that deepens: one observation per step all the same.
    Table shadowed = ShadowedByMaxTable();
    Paleo deep(&shadowed, PaleoOptions{});
    TopKList input;
    input.Append("A", 10.0);
    input.Append("B", 7.0);
    input.Append("C", 5.0);
    obs::MetricsRegistry registry;
    RunRequest request;
    request.input = &input;
    request.metrics = &registry;
    request.collect_trace = true;
    auto report = deep.Run(request);
    ASSERT_TRUE(report.ok());
    ASSERT_NE(report->trace, nullptr);
    ASSERT_NE(report->trace->FindSpan("deepen"), nullptr);
    ASSERT_TRUE(report->found());
    // Both validations ran: the first pass rejected max(x).
    EXPECT_GE(report->validation_passes, 2);
    EXPECT_GT(report->valid[0].executions_at_discovery, 1);
    ExpectRegistryEqualsReport(registry, *report, "deepening");
  }
}

/// The "executed" count of the run's first "validate" span, the one
/// under "run" (progressive deepening's comes later).
int64_t FirstPassExecutions(const obs::Trace& trace) {
  const obs::Span* validate = trace.FindSpan("validate");
  EXPECT_NE(validate, nullptr);
  if (validate == nullptr) return -1;
  for (const obs::SpanAttr& attr : validate->attrs) {
    if (attr.key == "executed") return attr.i;
  }
  return -1;
}

TEST_F(RunRequestTest, ExecutionCapCountsAcrossDeepening) {
  // The cap is the run's, not a validation pass's: capped one past the
  // first pass, a run enumerating every valid query deepens, spends its
  // last execution there and stops with the rest as near misses.
  Table shadowed = ShadowedByMaxTable();
  PaleoOptions all_valid;
  all_valid.stop_at_first_valid = false;
  Paleo deep(&shadowed, all_valid);
  TopKList input;
  input.Append("A", 10.0);
  input.Append("B", 7.0);
  input.Append("C", 5.0);
  RunRequest request;
  request.input = &input;
  request.collect_trace = true;
  auto uncapped = deep.Run(request);
  ASSERT_TRUE(uncapped.ok());
  const int64_t first_pass = FirstPassExecutions(*uncapped->trace);
  ASSERT_GT(first_pass, 0);
  ASSERT_GT(uncapped->executed_queries, first_pass + 1);
  ASSERT_EQ(uncapped->termination, TerminationReason::kCompleted);

  ThreadPool pool(4);
  for (ThreadPool* maybe_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(maybe_pool == nullptr ? "no pool" : "pool");
    PaleoOptions options = all_valid;
    options.max_validation_executions = first_pass + 1;
    options.num_threads = maybe_pool == nullptr ? 1 : 4;
    request.pool = maybe_pool;
    request.options_override = &options;
    auto report = deep.Run(request);
    ASSERT_TRUE(report.ok());
    ASSERT_NE(report->trace->FindSpan("deepen"), nullptr);
    EXPECT_EQ(report->executed_queries, first_pass + 1);
    EXPECT_EQ(report->termination, TerminationReason::kExecutionBudget);
    EXPECT_FALSE(report->near_misses.empty());
  }
}

TEST_F(RunRequestTest, RequestCancelStopsSequentialScanMidway) {
  // With a window of one the scan runs under the request's own budget,
  // so a request cancel stops a running scan at its next gate tick: the
  // first execution is slowed, the token trips while it runs, and the
  // run commits no execution at all.
  FaultSpec slow;
  slow.action = FaultAction::kDelay;
  slow.delay_micros = 200000;
  slow.probability = 1.0;
  FaultPoints::Arm("executor.execute.scan", slow);
  CancellationToken token;
  RunBudget budget;
  budget.set_cancellation_token(&token);
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (!done.load() &&
           FaultPoints::StatsFor("executor.execute.scan").hits < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.Cancel();
  });
  Paleo paleo(&table(), PaleoOptions{});
  RunRequest request;
  request.input = &workload()[0].list;
  request.budget = &budget;
  auto report = paleo.Run(request);
  done.store(true);
  canceller.join();
  FaultPoints::DisarmAll();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->termination, TerminationReason::kCancelled);
  EXPECT_EQ(report->executed_queries, 0);
  EXPECT_FALSE(report->near_misses.empty());
}

TEST_F(RunRequestTest, FailedRunExportsOnlyRunCountAndLatency) {
  // An injected hard error at the start of validation fails the run
  // after mining and ranking have counted their candidates.
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.at_hit = 1;
  spec.max_fires = 1;
  FaultPoints::Arm("validator.validate.begin", spec);
  Paleo paleo(&table(), PaleoOptions{});
  obs::MetricsRegistry registry;
  RunRequest request;
  request.input = &workload()[0].list;
  request.metrics = &registry;
  auto report = paleo.Run(request);
  FaultPoints::DisarmAll();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal()) << report.status().ToString();
  EXPECT_EQ(registry.counter("paleo_runs_total")->value(), 1);
  EXPECT_EQ(registry.histogram("paleo_run_ms")->count(), 1);
  EXPECT_EQ(registry.size(), 2u) << registry.RenderText();
}

TEST_F(RunRequestTest, TraceCoversPipelineStages) {
  Paleo paleo(&table(), PaleoOptions{});
  const WorkloadQuery& wq = workload()[0];

  RunRequest request;
  request.input = &wq.list;
  auto without = paleo.Run(request);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->trace, nullptr);  // off by default

  request.collect_trace = true;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_NE(report->trace, nullptr);
  const obs::Trace& trace = *report->trace;
  const obs::Span* run = trace.FindSpan("run");
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->finished());
  EXPECT_EQ(run->parent, obs::Trace::kNoSpan);
  for (const char* stage :
       {"find_predicates", "find_ranking", "validate"}) {
    const obs::Span* span = trace.FindSpan(stage);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_TRUE(span->finished()) << stage;
  }
  // One "execute" span per committed sequential execution.
  int64_t execute_spans = 0;
  for (const obs::Span& span : trace.spans()) {
    if (span.name == "execute") ++execute_spans;
  }
  EXPECT_EQ(execute_spans, report->executed_queries);
  // The dump round-trips to non-trivial JSON.
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"find_predicates\""), std::string::npos);
}

TEST_F(RunRequestTest, PaperExampleStillRecoversViaRunRequest) {
  // The introduction example through the canonical entry point, with
  // every observability sink on at once.
  auto traffic = TrafficGen::PaperExample();
  ASSERT_TRUE(traffic.ok());
  TopKList input;
  input.Append("Lara Ellis", 784);
  input.Append("Jane O'Neal", 699);
  input.Append("John Smith", 654);
  input.Append("Richard Fox", 596);
  input.Append("Jack Stiles", 586);

  Paleo paleo(&*traffic, PaleoOptions{});
  obs::MetricsRegistry registry;
  RunRequest request;
  request.input = &input;
  request.metrics = &registry;
  request.collect_trace = true;
  request.keep_candidates = true;
  auto report = paleo.Run(request);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());
  EXPECT_NE(report->valid[0].query.ToSql(traffic->schema())
                .find("max(minutes)"),
            std::string::npos);
  EXPECT_EQ(registry.counter("paleo_runs_found_total")->value(), 1);
  ASSERT_NE(report->trace, nullptr);
  EXPECT_NE(report->trace->FindSpan("run"), nullptr);
}

}  // namespace
}  // namespace paleo
