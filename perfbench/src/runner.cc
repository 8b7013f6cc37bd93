#include "runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/run_budget.h"
#include "common/timer.h"
#include "engine/executor.h"
#include "index/dimension_index.h"
#include "index/entity_index.h"
#include "obs/metrics.h"
#include "paleo/sampler.h"
#include "service/discovery_service.h"
#include "stats/catalog.h"

namespace perfbench {

using paleo::Timer;
using paleo::obs::ScopedSpan;
using paleo::obs::Trace;

namespace {

// Threads the benchmark itself may use for untimed work (output checks).
constexpr size_t kMaxHelperThreads = 4;

// serve-ingest: closed-loop clients, service workers, and the writer's
// batch size. The writer appends one batch per pass, once half of the
// pass's lists have completed: peak RSS grows with every publish
// (README.md), so a run's batches must stay few and a fixed count.
constexpr size_t kClients = 2;
constexpr int kServiceWorkers = 2;
constexpr int kBatchRows = 64;

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min(kMaxHelperThreads, n); ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Registry counters the traced passes read, by series name.
const std::vector<std::string>& EngineCounterNames() {
  static const std::vector<std::string> names = {
      "paleo_executor_queries_total",
      "paleo_executor_rows_scanned_total",
      "paleo_executor_index_assisted_total",
      "paleo_chunks_skipped_total",
      "paleo_morsels_total",
      "paleo_cache_hits_total",
      "paleo_cache_misses_total",
      "paleo_cache_evictions_total",
      "paleo_conjunction_cache_hits_total",
      "paleo_conjunction_cache_misses_total",
      "paleo_validations_refuted_early_total",
      "paleo_rows_saved_by_threshold_total",
  };
  return names;
}

std::map<std::string, int64_t> ReadCounters(
    const paleo::obs::MetricsRegistry& registry) {
  std::map<std::string, int64_t> values;
  for (const std::string& name : EngineCounterNames()) {
    const paleo::obs::Counter* counter = registry.counter(name);
    values[name] = counter != nullptr ? counter->value() : 0;
  }
  return values;
}

std::map<std::string, int64_t> Delta(
    std::map<std::string, int64_t> after,
    const std::map<std::string, int64_t>& before) {
  for (auto& [name, value] : after) value -= before.at(name);
  return after;
}

void FillFromReport(const paleo::ReverseEngineerReport& report, Visit* visit) {
  visit->ok = true;
  for (const paleo::ValidQuery& vq : report.valid) {
    visit->reported.push_back(vq.query);
  }
  visit->executions = report.executed_queries;
  visit->aborted_early = report.executions_aborted_early;
  visit->candidate_predicates = report.candidate_predicates;
  visit->candidate_queries = report.candidate_queries;
  visit->tuple_set_evaluations = report.ranking_info.tuple_set_evaluations;
  visit->skip_events = report.skip_events;
  visit->rprime_rows = report.rprime_rows;
  visit->degraded_events = report.degraded_events;
  visit->timings = report.timings;
}

bool HasDeepen(const paleo::obs::Trace* trace) {
  return trace != nullptr && trace->FindSpan("deepen") != nullptr;
}

/// The output check: re-executes `query` over `table` with a plain
/// executor (no dimension index, cache or threshold monitor) and
/// requires L back under instance equivalence.
bool Reproduces(const paleo::Table& table, const paleo::TopKQuery& query,
                const paleo::TopKList& list) {
  paleo::Executor executor;
  auto result = executor.Execute(table, query, paleo::ExecContext{});
  return result.ok() && result->InstanceEquals(list);
}

/// Whether every list must be found: wherever PALEO sees the full R',
/// the generating query is a valid answer it must not miss.
bool ExpectFound(const WorkloadSpec& spec) {
  return spec.mode != Mode::kSampled;
}

/// Sets found/failed once every reported query's check is known.
void Judge(bool all_reproduce, bool expect_found, Visit* visit) {
  const bool reported = !visit->reported.empty();
  visit->found = visit->ok && reported && all_reproduce;
  visit->failed = !visit->ok || (reported && !all_reproduce) ||
                  (expect_found && !reported);
}

/// The upfront structures a Paleo is built from.
struct Structures {
  paleo::EntityIndex index;
  paleo::StatsCatalog catalog;
  std::unique_ptr<paleo::DimensionIndex> dimension_index;
};

/// Builds the upfront structures one call at a time so the traced run
/// can time each layer, recording the durations in `times`.
Structures BuildTimed(const paleo::Table& table, bool dimension_index,
                      SetupTimes* times, Trace* spans, Trace::SpanId parent) {
  Timer timer;
  ScopedSpan entity_span(spans, "EntityIndex::Build", parent);
  paleo::EntityIndex index = paleo::EntityIndex::Build(table);
  entity_span.End();
  times->entity_build_ms.push_back(timer.ElapsedMillis());

  timer.Reset();
  ScopedSpan stats_span(spans, "StatsCatalog::Build", parent);
  paleo::StatsCatalog catalog = paleo::StatsCatalog::Build(table);
  stats_span.End();
  times->stats_build_ms.push_back(timer.ElapsedMillis());

  std::unique_ptr<paleo::DimensionIndex> dims;
  if (dimension_index) {
    timer.Reset();
    ScopedSpan dim_span(spans, "DimensionIndex::Build", parent);
    dims = std::make_unique<paleo::DimensionIndex>(
        paleo::DimensionIndex::Build(table));
    dim_span.End();
    times->dimension_build_ms.push_back(timer.ElapsedMillis());
  }
  return Structures{std::move(index), std::move(catalog), std::move(dims)};
}

/// Runs the warm-up pass, then the configured timed passes, each
/// followed by a traced one in a traced run. `run_pass(traced)` runs one
/// pass.
std::vector<Pass> RunPasses(const RunConfig& config,
                            const std::function<Pass(bool)>& run_pass,
                            int64_t* warmup_failures) {
  std::fprintf(stderr, "set-up done, peak RSS %.0f MiB\n", PeakRssMiB());
  Timer timer;
  const Pass warmup = run_pass(false);
  for (const Visit& visit : warmup.visits) *warmup_failures += visit.failed;
  std::fprintf(stderr, "warm-up pass: %.1f s, peak RSS %.0f MiB\n",
               timer.ElapsedSeconds(), PeakRssMiB());

  std::vector<Pass> passes;
  double measured_ms = 0.0;
  for (int i = 0; i < config.passes; ++i) {
    passes.push_back(run_pass(false));
    measured_ms += passes.back().wall_ms;
    if (config.spans != nullptr) {
      passes.push_back(run_pass(true));
      measured_ms += passes.back().wall_ms;
    }
  }
  std::fprintf(stderr, "%zu timed passes: %.1f s measured, %.1f s total\n",
               passes.size(), measured_ms / 1e3, timer.ElapsedSeconds());
  return passes;
}

}  // namespace

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

RunResult RunPaleoWorkload(const WorkloadSpec& spec, const paleo::Table& table,
                           std::vector<BenchList>* lists,
                           const std::vector<size_t>& order,
                           const RunConfig& config) {
  RunResult result;
  Trace* spans = config.spans;

  // ---- Set-up: Paleo construction, repeated; the last one serves. ----
  std::unique_ptr<paleo::Paleo> paleo;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    paleo.reset();  // one instance alive at a time
    if (spans != nullptr) {
      ScopedSpan setup_span(spans, "setup");
      Structures built =
          BuildTimed(table, spec.options.use_dimension_index, &result.setup,
                     spans, setup_span.id());
      ScopedSpan bind_span(spans, "Paleo::Paleo", setup_span.id());
      paleo = std::make_unique<paleo::Paleo>(
          &table, spec.options, std::move(built.index),
          std::move(built.catalog), std::move(built.dimension_index));
    } else {
      Timer timer;
      paleo = std::make_unique<paleo::Paleo>(&table, spec.options);
      result.setup.setup_s.push_back(timer.ElapsedSeconds());
    }
  }

  if (spec.mode == Mode::kSampled) {
    for (BenchList& bl : *lists) {
      auto sample = paleo::Sampler::UniformPerEntity(
          paleo->index(), bl.list.DistinctEntities(), spec.sample_fraction,
          SampleSeed(bl.id));
      PALEO_CHECK(sample.ok()) << sample.status().ToString();
      bl.sample = *std::move(sample);
    }
  }

  const bool expect_found = ExpectFound(spec);
  paleo::RunBudget cap;
  cap.set_max_executions(spec.max_executions);
  const paleo::RunBudget* budget = spec.max_executions > 0 ? &cap : nullptr;
  paleo::obs::MetricsRegistry registry;

  auto run_one = [&](size_t index, bool traced) {
    const BenchList& bl = (*lists)[index];
    paleo::RunRequest request;
    request.input = &bl.list;
    if (spec.mode == Mode::kSampled) {
      request.sample_rows = &bl.sample;
      request.sample_fraction = spec.sample_fraction;
    }
    request.budget = budget;
    request.metrics = traced ? &registry : nullptr;
    request.collect_trace = traced;
    Trace* log = traced ? spans : nullptr;

    Visit visit;
    visit.list = index;
    ScopedSpan list_span(log, "list");
    list_span.AddAttr("list", int64_t{bl.id});
    ScopedSpan call_span(log, "Paleo::Run", list_span.id());
    Timer timer;
    auto report = paleo->Run(request);
    visit.ms = timer.ElapsedMillis();
    call_span.End();
    if (report.ok()) {
      FillFromReport(*report, &visit);
      visit.deepen = HasDeepen(report->trace.get());
      if (log != nullptr && report->trace != nullptr) {
        log->Adopt(*report->trace, call_span.id());
      }
    }
    return visit;
  };

  // Reported queries that already passed the check, per list: a pass
  // that reports the same queries again needs no re-execution.
  std::vector<std::vector<paleo::TopKQuery>> verified(lists->size());
  auto check_pass = [&](Pass* pass) {
    ParallelFor(pass->visits.size(), [&](size_t i) {
      Visit& visit = pass->visits[i];
      const BenchList& bl = (*lists)[visit.list];
      bool all_reproduce = true;
      if (visit.ok && visit.reported != verified[visit.list]) {
        for (const paleo::TopKQuery& query : visit.reported) {
          all_reproduce &= Reproduces(table, query, bl.list);
        }
        if (all_reproduce) verified[visit.list] = visit.reported;
      }
      Judge(all_reproduce, expect_found, &visit);
    });
  };

  auto run_pass = [&](bool traced) {
    Pass pass;
    pass.traced = traced;
    pass.visits.reserve(order.size());
    const auto before = ReadCounters(registry);
    Timer wall;
    for (size_t index : order) pass.visits.push_back(run_one(index, traced));
    pass.wall_ms = wall.ElapsedMillis();
    if (traced) pass.counters = Delta(ReadCounters(registry), before);
    check_pass(&pass);
    return pass;
  };

  result.passes = RunPasses(config, run_pass, &result.warmup_failures);
  return result;
}

RunResult RunServeIngest(const WorkloadSpec& spec, const paleo::Table& table,
                         const std::vector<BenchList>& lists,
                         const std::vector<size_t>& order,
                         const RunConfig& config) {
  RunResult result;
  Trace* spans = config.spans;
  // Outlives the catalog and every snapshot it publishes.
  paleo::obs::MetricsRegistry catalog_metrics;

  // ---- Set-up: TableCatalog construction, repeated. ----
  std::shared_ptr<paleo::TableCatalog> catalog;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    catalog.reset();
    ScopedSpan setup_span(spans, "setup");
    if (spans != nullptr) {
      BuildTimed(table, spec.options.use_dimension_index, &result.setup,
                 spans, setup_span.id());
    }
    paleo::Table base = table.DeepCopy();
    ScopedSpan build_span(spans, "TableCatalog::TableCatalog",
                          setup_span.id());
    Timer timer;
    catalog = std::make_shared<paleo::TableCatalog>(
        std::move(base), spec.options, &catalog_metrics);
    const double ms = timer.ElapsedMillis();
    if (spans != nullptr) {
      result.setup.snapshot_build_ms.push_back(ms);
    } else {
      result.setup.setup_s.push_back(ms / 1e3);
    }
  }
  result.base_rows = table.num_rows();

  const bool expect_found = ExpectFound(spec);
  paleo::DiscoveryServiceOptions service_options;
  service_options.num_workers = kServiceWorkers;
  paleo::DiscoveryService service(catalog, service_options);
  paleo::Ingestor ingestor(catalog.get());
  paleo::IngestorOptions traced_options;
  traced_options.collect_trace = true;
  paleo::Ingestor traced_ingestor(catalog.get(), traced_options);
  const paleo::obs::Gauge* live = catalog_metrics.gauge("paleo_snapshot_live");
  int next_batch = 0;

  auto run_pass = [&](bool traced) {
    // obs::Trace is single-threaded: each client and the writer record
    // into a trace of their own, adopted into the span log after the pass.
    std::vector<Trace> thread_spans(kClients + 1);
    auto thread_log = [&](size_t thread) {
      return traced ? &thread_spans[thread] : nullptr;
    };
    paleo::Ingestor& writer_ingestor = traced ? traced_ingestor : ingestor;
    const size_t n = order.size();

    Pass pass;
    pass.traced = traced;
    pass.visits.resize(n);

    paleo::Mutex mutex;
    paleo::CondVar progress;
    size_t completed = 0;       // guarded by mutex
    int64_t live_max = 0;       // guarded by mutex
    std::atomic<size_t> cursor{0};
    auto sample_live = [&] {
      if (live != nullptr) live_max = std::max(live_max, live->value());
    };

    const auto counters_before = ReadCounters(service.metrics());
    const paleo::DiscoveryServiceStats stats_before = service.stats();
    Timer wall;

    std::thread writer([&] {
      Trace* log = thread_log(kClients);
      {
        paleo::MutexLock lock(mutex);
        while (completed < n / 2) progress.Wait(mutex);
      }
      const auto rows =
          MakeIngestBatch(table, lists, config.seed, next_batch, kBatchRows);
      ScopedSpan span(log, "Ingestor::Append");
      Timer timer;
      const uint64_t rebuilds_before = writer_ingestor.stats().full_rebuilds;
      paleo::Status status = writer_ingestor.Append(
          std::span<const std::vector<paleo::Value>>(rows));
      pass.append_ms.push_back(timer.ElapsedMillis());
      span.End();
      PALEO_CHECK(status.ok()) << status.ToString();
      pass.full_rebuilds += static_cast<int64_t>(
          writer_ingestor.stats().full_rebuilds - rebuilds_before);
      if (traced) {
        const auto trace = writer_ingestor.last_trace();
        PALEO_CHECK(trace != nullptr);
        log->Adopt(*trace, span.id());
        auto phase_ms = [&](const char* name) {
          const paleo::obs::Span* s = trace->FindSpan(name);
          return s != nullptr ? s->duration_ms() : 0.0;
        };
        pass.ingest.push_back(IngestSplit{phase_ms("copy"), phase_ms("append"),
                                          phase_ms("stats"), phase_ms("index"),
                                          phase_ms("publish")});
      }
      paleo::MutexLock lock(mutex);
      sample_live();
    });

    auto client = [&](size_t c) {
      Trace* log = thread_log(c);
      for (size_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
        const BenchList& bl = lists[order[i]];
        Visit& visit = pass.visits[i];
        visit.list = order[i];
        paleo::ServiceRequest request;
        request.input = bl.list;
        request.collect_trace = traced;

        ScopedSpan list_span(log, "list");
        list_span.AddAttr("list", int64_t{bl.id});
        Timer timer;
        ScopedSpan submit_span(log, "DiscoveryService::Submit", list_span.id());
        auto session = service.Submit(std::move(request));
        submit_span.End();
        if (session.ok()) {
          ScopedSpan wait_span(log, "Session::Wait", list_span.id());
          (*session)->Wait();
        }
        visit.ms = timer.ElapsedMillis();

        bool all_reproduce = true;
        if (session.ok()) {
          const paleo::Session& s = **session;
          const paleo::ReverseEngineerReport* report = s.report();
          if (s.Poll() == paleo::SessionState::kDone && report != nullptr) {
            FillFromReport(*report, &visit);
          }
          visit.queue_wait_ms = s.queue_wait_ms();
          visit.run_ms = s.run_ms();
          const auto trace = s.trace();
          visit.deepen = HasDeepen(trace.get());
          if (log != nullptr && trace != nullptr) {
            log->Adopt(*trace, list_span.id());
          }
          // The check runs here, inside the pass, because it needs the
          // snapshot the session pinned, and holding every session to
          // the pass end would keep old snapshots alive.
          ScopedSpan check_span(log, "check", list_span.id());
          for (const paleo::TopKQuery& query : visit.reported) {
            all_reproduce &=
                Reproduces(s.snapshot().table(), query, bl.list);
          }
        }
        Judge(all_reproduce, expect_found, &visit);
        list_span.End();

        paleo::MutexLock lock(mutex);
        ++completed;
        sample_live();
        progress.NotifyAll();
      }
    };
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
    for (std::thread& thread : clients) thread.join();
    writer.join();
    pass.wall_ms = wall.ElapsedMillis();

    ++next_batch;
    if (traced) {
      for (const Trace& trace : thread_spans) {
        spans->Adopt(trace, Trace::kNoSpan);
      }
      pass.counters = Delta(ReadCounters(service.metrics()), counters_before);
    }
    const paleo::DiscoveryServiceStats stats_after = service.stats();
    pass.shed = stats_after.shed - stats_before.shed;
    pass.retries = stats_after.retries - stats_before.retries;
    result.snapshots_live_max = std::max(result.snapshots_live_max, live_max);
    return pass;
  };

  result.passes = RunPasses(config, run_pass, &result.warmup_failures);
  result.final_rows = catalog->Current()->num_rows();
  return result;
}

}  // namespace perfbench
