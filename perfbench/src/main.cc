// PALEO benchmark binary: runs one workload for one seed and prints its
// metrics as the last line of standard output.
//
//   paleo_perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//                   [--dump <visits.jsonl>]
//   paleo_perfbench --workload <name> --seed <n> --seconds <s> --trace 1
//                   --trace-out <spans.json> [--dump <visits.jsonl>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes the span log (obs::Trace JSON) to
// --trace-out. --dump writes one line per list of the first timed pass
// (and of the first traced pass) for the determinism test. See
// README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/trace.h"
#include "runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  std::string dump;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--dump") {
      args->dump = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || (args->trace == 1 && !args->trace_out.empty()));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

class MetricSet {
 public:
  void Add(const char* name, double value, const char* unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void Print(bool correct, size_t attempted, size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", entries_[i].name, entries_[i].value,
                  entries_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

std::vector<const Visit*> VisitsOf(const RunResult& result, bool traced) {
  std::vector<const Visit*> visits;
  for (const Pass& pass : result.passes) {
    if (pass.traced != traced) continue;
    for (const Visit& visit : pass.visits) visits.push_back(&visit);
  }
  return visits;
}

double ListsPerSecond(const RunResult& result, bool traced) {
  double lists = 0.0, wall_ms = 0.0;
  for (const Pass& pass : result.passes) {
    if (pass.traced != traced) continue;
    lists += static_cast<double>(pass.visits.size());
    wall_ms += pass.wall_ms;
  }
  return Ratio(lists, wall_ms / 1e3);
}

void AddEndToEnd(const RunResult& result, MetricSet* out) {
  const std::vector<const Visit*> visits = VisitsOf(result, false);
  const auto n = static_cast<double>(visits.size());
  std::vector<double> ms;
  double found = 0.0, executions = 0.0, valid = 0.0;
  for (const Visit* v : visits) {
    ms.push_back(v->ms);
    found += v->found;
    executions += static_cast<double>(v->executions);
    valid += static_cast<double>(v->reported.size());
  }
  out->Add("setup_s", Median(result.setup.setup_s), "s");
  out->Add("lists_per_s", ListsPerSecond(result, false), "lists/s");
  out->Add("list_p50_ms", Quantile(ms, 0.5), "ms");
  out->Add("list_p90_ms", Quantile(ms, 0.9), "ms");
  out->Add("found_ratio", Ratio(found, n), "fraction");
  out->Add("executions_per_list", Ratio(executions, n), "count");
  out->Add("valid_per_list", Ratio(valid, n), "count");
  out->Add("peak_rss_mb", PeakRssMiB(), "MiB");
}

void AddPerLayer(const RunResult& result, MetricSet* out) {
  const std::vector<const Visit*> visits = VisitsOf(result, true);
  const auto n = static_cast<double>(visits.size());
  double mine = 0, rank = 0, validate = 0, unattributed = 0, list_ms = 0;
  double rprime = 0, predicates = 0, evaluations = 0, candidates = 0;
  double skips = 0, valid = 0, executions = 0, aborted = 0, deepen = 0;
  std::vector<double> queue_wait, run;
  for (const Visit* v : visits) {
    mine += v->timings.find_predicates_ms;
    rank += v->timings.find_ranking_ms;
    validate += v->timings.validation_ms;
    unattributed += v->ms - v->timings.total_ms();
    list_ms += v->ms;
    rprime += static_cast<double>(v->rprime_rows);
    predicates += static_cast<double>(v->candidate_predicates);
    evaluations += static_cast<double>(v->tuple_set_evaluations);
    candidates += static_cast<double>(v->candidate_queries);
    skips += static_cast<double>(v->skip_events);
    valid += static_cast<double>(v->reported.size());
    executions += static_cast<double>(v->executions);
    aborted += static_cast<double>(v->aborted_early);
    deepen += v->deepen;
    queue_wait.push_back(v->queue_wait_ms);
    run.push_back(v->run_ms);
  }

  std::map<std::string, double> c;
  std::vector<double> copy, append, stats, index, swap, publish;
  double shed = 0, retries = 0, full_rebuilds = 0, degraded = 0;
  for (const Pass& pass : result.passes) {
    for (const Visit& v : pass.visits) {
      degraded += static_cast<double>(v.degraded_events);
    }
    shed += static_cast<double>(pass.shed);
    retries += static_cast<double>(pass.retries);
    full_rebuilds += static_cast<double>(pass.full_rebuilds);
    if (!pass.traced) {
      publish.insert(publish.end(), pass.append_ms.begin(),
                     pass.append_ms.end());
      continue;
    }
    for (const auto& [name, value] : pass.counters) {
      c[name] += static_cast<double>(value);
    }
    for (const IngestSplit& s : pass.ingest) {
      copy.push_back(s.copy_ms);
      append.push_back(s.append_ms);
      stats.push_back(s.stats_ms);
      index.push_back(s.index_ms);
      swap.push_back(s.publish_ms);
    }
  }
  const size_t batches = copy.size() + publish.size();

  const SetupTimes& setup = result.setup;
  out->Add("index.entity_build_ms", Median(setup.entity_build_ms), "ms");
  out->Add("stats.catalog_build_ms", Median(setup.stats_build_ms), "ms");
  out->Add("index.dimension_build_ms", Median(setup.dimension_build_ms), "ms");
  out->Add("catalog.snapshot_build_ms", Median(setup.snapshot_build_ms), "ms");
  out->Add("paleo.find_predicates_ms", Ratio(mine, n), "ms");
  out->Add("paleo.find_ranking_ms", Ratio(rank, n), "ms");
  out->Add("paleo.validation_ms", Ratio(validate, n), "ms");
  out->Add("paleo.unattributed_ms", Ratio(unattributed, n), "ms");
  out->Add("paleo.list_ms", Ratio(list_ms, n), "ms");
  out->Add("paleo.rprime_rows", Ratio(rprime, n), "count");
  out->Add("paleo.candidate_predicates", Ratio(predicates, n), "count");
  out->Add("paleo.tuple_set_evaluations", Ratio(evaluations, n), "count");
  out->Add("paleo.candidate_queries", Ratio(candidates, n), "count");
  out->Add("paleo.skip_events", Ratio(skips, n), "count");
  out->Add("paleo.valid_per_execution", Ratio(valid, executions), "fraction");
  out->Add("paleo.deepen_share", Ratio(deepen, n), "fraction");
  out->Add("engine.ms_per_execution", Ratio(validate, executions), "ms");
  out->Add("engine.rows_scanned",
           Ratio(c["paleo_executor_rows_scanned_total"], n), "count");
  out->Add("engine.rows_saved",
           Ratio(c["paleo_rows_saved_by_threshold_total"], n), "count");
  out->Add("engine.index_assisted_share",
           Ratio(c["paleo_executor_index_assisted_total"],
                 c["paleo_executor_queries_total"]),
           "fraction");
  out->Add("engine.zone_skip_share",
           Ratio(c["paleo_chunks_skipped_total"],
                 c["paleo_chunks_skipped_total"] + c["paleo_morsels_total"]),
           "fraction");
  out->Add("engine.refuted_early_share", Ratio(aborted, executions),
           "fraction");
  out->Add("engine.atom_cache_hit_ratio",
           Ratio(c["paleo_cache_hits_total"],
                 c["paleo_cache_hits_total"] + c["paleo_cache_misses_total"]),
           "fraction");
  out->Add("engine.conjunction_cache_hit_ratio",
           Ratio(c["paleo_conjunction_cache_hits_total"],
                 c["paleo_conjunction_cache_hits_total"] +
                     c["paleo_conjunction_cache_misses_total"]),
           "fraction");
  out->Add("engine.atom_cache_evictions",
           Ratio(c["paleo_cache_evictions_total"], n), "count");
  out->Add("engine.degraded_events", degraded, "count");
  out->Add("catalog.publish_p50_ms", Median(publish), "ms");
  out->Add("catalog.copy_ms", Mean(copy), "ms");
  out->Add("catalog.append_ms", Mean(append), "ms");
  out->Add("catalog.stats_ms", Mean(stats), "ms");
  out->Add("catalog.index_ms", Mean(index), "ms");
  out->Add("catalog.swap_ms", Mean(swap), "ms");
  out->Add("catalog.full_rebuilds",
           Ratio(full_rebuilds, static_cast<double>(batches)), "count");
  out->Add("catalog.snapshots_live_max",
           static_cast<double>(result.snapshots_live_max), "count");
  out->Add("catalog.growth_share",
           Ratio(static_cast<double>(result.final_rows - result.base_rows),
                 static_cast<double>(result.base_rows)),
           "fraction");
  out->Add("service.queue_wait_ms_p50", Quantile(queue_wait, 0.5), "ms");
  out->Add("service.run_ms_p50", Quantile(run, 0.5), "ms");
  out->Add("service.shed", shed, "count");
  out->Add("service.retries", retries, "count");
  out->Add("obs.trace_overhead",
           1.0 - Ratio(ListsPerSecond(result, true),
                       ListsPerSecond(result, false)),
           "fraction");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", ch);
      out += escaped;
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

/// One line per visit of the first timed pass of each kind: the list's
/// identity and every count the run reports for it.
bool WriteDump(const std::string& path, const paleo::Schema& schema,
               const std::vector<BenchList>& lists, const RunResult& result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  bool seen[2] = {false, false};
  for (const Pass& pass : result.passes) {
    if (seen[pass.traced]) continue;
    seen[pass.traced] = true;
    for (const Visit& v : pass.visits) {
      const BenchList& bl = lists[v.list];
      std::string reported;
      for (const paleo::TopKQuery& q : v.reported) {
        reported += (reported.empty() ? "\"" : ",\"") +
                    JsonEscape(q.ToSql(schema)) + "\"";
      }
      std::fprintf(out,
                   "{\"traced\": %d, \"list\": %d, \"name\": \"%s\", "
                   "\"input\": \"%s\", \"found\": %d, \"failed\": %d, "
                   "\"executions\": %lld, \"aborted_early\": %lld, "
                   "\"candidate_predicates\": %lld, "
                   "\"candidate_queries\": %lld, "
                   "\"tuple_set_evaluations\": %lld, \"skip_events\": %lld, "
                   "\"rprime_rows\": %lld, \"ms\": %.3f, \"reported\": [%s]}\n",
                   pass.traced ? 1 : 0, bl.id, JsonEscape(bl.name).c_str(),
                   JsonEscape(bl.list.ToString()).c_str(), v.found ? 1 : 0,
                   v.failed ? 1 : 0, static_cast<long long>(v.executions),
                   static_cast<long long>(v.aborted_early),
                   static_cast<long long>(v.candidate_predicates),
                   static_cast<long long>(v.candidate_queries),
                   static_cast<long long>(v.tuple_set_evaluations),
                   static_cast<long long>(v.skip_events),
                   static_cast<long long>(v.rprime_rows), v.ms,
                   reported.c_str());
    }
    if (pass.traced) {
      for (const auto& [name, value] : pass.counters) {
        std::fprintf(out, "{\"counter\": \"%s\", \"value\": %lld}\n",
                     name.c_str(), static_cast<long long>(value));
      }
    }
  }
  return std::fclose(out) == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: paleo_perfbench --workload <name> --seed <n> "
                 "--seconds <s> (--trace 0 | --trace 1 --trace-out <path>) "
                 "[--dump <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  paleo::Timer phase;
  const paleo::Table table = MakeTable(*spec);
  const double table_s = phase.ElapsedSeconds();
  phase.Reset();
  std::vector<BenchList> lists = MakeLists(table, *spec);
  const std::vector<size_t> order = VisitOrder(lists.size(), args.seed);
  std::fprintf(stderr, "%s: %zu rows in %.1f s, %zu lists in %.1f s\n",
               spec->name.c_str(), table.num_rows(), table_s, lists.size(),
               phase.ElapsedSeconds());

  const bool traced = args.trace == 1;
  paleo::obs::Trace spans;
  RunConfig config;
  config.seed = args.seed;
  config.passes = TimedPasses(*spec, lists.size(), args.seconds);
  config.spans = traced ? &spans : nullptr;
  const RunResult result =
      spec->mode == Mode::kServeIngest
          ? RunServeIngest(*spec, table, lists, order, config)
          : RunPaleoWorkload(*spec, table, &lists, order, config);

  for (double s : result.setup.setup_s) {
    std::fprintf(stderr, "set-up: %.3f s\n", s);
  }
  size_t attempted = 0, failed = 0;
  for (const Pass& pass : result.passes) {
    for (const Visit& visit : pass.visits) {
      ++attempted;
      failed += visit.failed;
    }
  }
  if (!args.dump.empty() &&
      !WriteDump(args.dump, table.schema(), lists, result)) {
    std::fprintf(stderr, "cannot write %s\n", args.dump.c_str());
    return 1;
  }
  if (traced) {
    std::ofstream out(args.trace_out);
    out << spans.ToJson() << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  MetricSet metrics;
  if (traced) {
    AddPerLayer(result, &metrics);
  } else {
    AddEndToEnd(result, &metrics);
  }
  metrics.Print(failed == 0 && result.warmup_failures == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
