// PALEO as a server: the DiscoveryService driven by N concurrent
// clients over a workload of top-k lists.
//
//   paleo_server_cli <relation.csv> <workload.txt> [options]
//
// The relation loads like paleo_cli's (CSV with the self-describing
// header of io/table_io.h, or binary_io format detected by magic).
// The workload file names one top-k list CSV ("entity,value" rows)
// per line; blank lines and lines starting with '#' are ignored, and
// relative paths resolve against the current directory.
//
// Options:
//   --threads N      service worker threads (default: hardware
//                    concurrency); also used for intra-request
//                    parallel validation when > 1
//   --clients N      concurrent closed-loop clients (default 4); each
//                    submits its next request as soon as the previous
//                    one finishes
//   --repeat N       passes over the workload per client (default 1)
//   --queue N        admission-queue capacity (default 64); beyond it
//                    Submit sheds with RESOURCE_EXHAUSTED and the
//                    client retries after a short backoff
//   --deadline-ms N  per-request deadline, anchored at admission
//                    (default: none)
//   --sep C          field separator for both file kinds (default ',')
//   --quiet          summary only, no per-request lines
//   --metrics-every N
//                    dump the service's metrics registry (Prometheus
//                    text format) to stderr every N seconds while the
//                    run is in flight, plus a final dump at the end
//   --ingest-every N
//                    live-table mode: every N milliseconds a background
//                    writer appends a batch of rows (sampled from the
//                    current snapshot) through the catalog's Ingestor,
//                    publishing a new snapshot each time. In-flight
//                    requests keep serving the version they pinned at
//                    admission. 0 (default) serves a static table.
//   --ingest-batch N rows per ingested batch (default 256)
//
// Exit status: 0 when every request reached a terminal state and none
// failed, 1 on load errors or failed sessions, 2 on usage errors.
//
// Example (after `cmake --build build`):
//   ./build/examples/paleo_server_cli relation.csv workload.txt
//       --threads 8 --clients 16 --deadline-ms 2000
//       --ingest-every 50 --ingest-batch 512   (one line)

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "catalog/ingestor.h"
#include "catalog/table_catalog.h"
#include "common/random.h"
#include "io/binary_io.h"
#include "io/table_io.h"
#include "service/discovery_service.h"

namespace {

paleo::StatusOr<paleo::Table> LoadRelation(const std::string& path,
                                           char sep) {
  std::ifstream probe(path, std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  probe.read(magic, 4);
  if (probe.gcount() == 4 && std::memcmp(magic, "PALB", 4) == 0) {
    return paleo::BinaryIo::ReadFile(path);
  }
  return paleo::TableIo::ReadCsvFile(path, sep);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <relation.csv> <workload.txt> [--threads N] "
               "[--clients N] [--repeat N] [--queue N] [--deadline-ms N] "
               "[--sep C] [--quiet] [--metrics-every N] "
               "[--ingest-every N] [--ingest-batch N]\n",
               argv0);
  return 2;
}

bool ParseInt64Flag(const char* flag, const char* text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "%s: expected a non-negative integer, got '%s'\n",
                 flag, text);
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

struct NamedList {
  std::string name;
  paleo::TopKList list;
};

// The service attaches "retry-after-ms=<N>" (its load-aware backoff
// hint) to the ResourceExhausted shed message; honor it when present.
int64_t ParseRetryAfterMs(const std::string& message, int64_t fallback) {
  const char kKey[] = "retry-after-ms=";
  size_t pos = message.find(kKey);
  if (pos == std::string::npos) return fallback;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(message.c_str() + pos + sizeof(kKey) - 1,
                             &end, 10);
  if (errno != 0 || v <= 0) return fallback;
  return static_cast<int64_t>(v);
}

double PercentileMs(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paleo;
  if (argc < 3) return Usage(argv[0]);
  const char* relation_path = argv[1];
  const char* workload_path = argv[2];

  int64_t threads = 0;  // 0 = hardware concurrency
  int64_t clients = 4;
  int64_t repeat = 1;
  int64_t queue_capacity = 64;
  int64_t deadline_ms = 0;
  int64_t metrics_every_s = 0;
  int64_t ingest_every_ms = 0;
  int64_t ingest_batch = 256;
  char sep = ',';
  bool quiet = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!ParseInt64Flag("--threads", argv[++i], &threads)) return 2;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      if (!ParseInt64Flag("--clients", argv[++i], &clients)) return 2;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      if (!ParseInt64Flag("--repeat", argv[++i], &repeat)) return 2;
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      if (!ParseInt64Flag("--queue", argv[++i], &queue_capacity)) return 2;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      if (!ParseInt64Flag("--deadline-ms", argv[++i], &deadline_ms)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sep") == 0 && i + 1 < argc) {
      sep = argv[++i][0];
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--metrics-every") == 0 &&
               i + 1 < argc) {
      if (!ParseInt64Flag("--metrics-every", argv[++i], &metrics_every_s)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ingest-every") == 0 &&
               i + 1 < argc) {
      if (!ParseInt64Flag("--ingest-every", argv[++i], &ingest_every_ms)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ingest-batch") == 0 &&
               i + 1 < argc) {
      if (!ParseInt64Flag("--ingest-batch", argv[++i], &ingest_batch)) {
        return 2;
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (clients < 1) clients = 1;
  if (repeat < 1) repeat = 1;
  if (queue_capacity < 1) queue_capacity = 1;
  if (ingest_batch < 1) ingest_batch = 1;

  auto table = LoadRelation(relation_path, sep);
  if (!table.ok()) {
    std::fprintf(stderr, "failed to load relation: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }

  // Workload: one top-k list file per line.
  std::ifstream workload_in(workload_path);
  if (!workload_in) {
    std::fprintf(stderr, "cannot open %s\n", workload_path);
    return 1;
  }
  std::vector<NamedList> workload;
  std::string line;
  while (std::getline(workload_in, line)) {
    // Trim whitespace; skip blanks and comments.
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') continue;
    size_t end = line.find_last_not_of(" \t\r");
    std::string path = line.substr(begin, end - begin + 1);
    std::ifstream list_in(path, std::ios::binary);
    if (!list_in) {
      std::fprintf(stderr, "cannot open list file %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << list_in.rdbuf();
    auto list = TopKList::FromCsv(buffer.str(), sep);
    if (!list.ok()) {
      std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(),
                   list.status().ToString().c_str());
      return 1;
    }
    workload.push_back(NamedList{path, *std::move(list)});
  }
  if (workload.empty()) {
    std::fprintf(stderr, "%s lists no top-k files\n", workload_path);
    return 1;
  }

  PaleoOptions paleo_options;
  paleo_options.num_threads = static_cast<int>(
      threads > 0 ? threads : ThreadPool::DefaultNumThreads());
  DiscoveryServiceOptions service_options;
  service_options.num_workers = static_cast<int>(threads);
  service_options.queue_capacity = static_cast<size_t>(queue_capacity);
  service_options.default_deadline_ms = deadline_ms;
  // The catalog owns the snapshot chain; it is built from a copy of
  // the loaded table (shared dictionaries — the loaded table is only
  // read for schema/row counts below, never appended) so the ingest
  // writer can grow the served relation independently. The registry
  // (paleo_ingest_* / paleo_snapshot_* series) is declared first: it
  // must outlive the catalog and every pinned snapshot.
  obs::MetricsRegistry ingest_registry;
  auto catalog = std::make_shared<TableCatalog>(Table(*table), paleo_options,
                                                &ingest_registry);
  DiscoveryService service(catalog, service_options);

  std::fprintf(stderr,
               "relation: %zu rows, %u entities; %zu workload lists; "
               "%d workers, %lld clients x %lld passes%s\n",
               table->num_rows(), table->NumEntities(), workload.size(),
               service.num_workers(), static_cast<long long>(clients),
               static_cast<long long>(repeat),
               ingest_every_ms > 0 ? "; live ingestion ON" : "");

  const int total_requests =
      static_cast<int>(clients * repeat) *
      static_cast<int>(workload.size());
  std::atomic<int> next_request{0};
  std::atomic<int64_t> failed{0};
  std::mutex print_mutex;
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(clients));

  // Periodic metrics reporter: wakes every --metrics-every seconds
  // (or immediately at shutdown) and dumps the registry to stderr.
  std::mutex reporter_mutex;
  std::condition_variable reporter_cv;
  bool reporter_stop = false;
  std::thread reporter;
  if (metrics_every_s > 0) {
    reporter = std::thread([&] {
      std::unique_lock<std::mutex> lock(reporter_mutex);
      while (!reporter_cv.wait_for(lock,
                                   std::chrono::seconds(metrics_every_s),
                                   [&] { return reporter_stop; })) {
        std::string text = service.metrics().RenderText();
        text += ingest_registry.RenderText();
        std::fprintf(stderr, "# ---- metrics ----\n%s", text.c_str());
      }
    });
  }

  // Live-table writer: every --ingest-every ms, append a batch of rows
  // sampled from the snapshot current at that moment. Each batch
  // publishes a new snapshot; requests admitted before it keep serving
  // the version they pinned.
  Ingestor ingestor(catalog.get());
  std::mutex ingest_mutex;
  std::condition_variable ingest_cv;
  bool ingest_stop = false;
  std::thread ingest_writer;
  if (ingest_every_ms > 0) {
    ingest_writer = std::thread([&] {
      Rng rng(0xC0FFEEULL);
      std::unique_lock<std::mutex> lock(ingest_mutex);
      while (!ingest_cv.wait_for(lock,
                                 std::chrono::milliseconds(ingest_every_ms),
                                 [&] { return ingest_stop; })) {
        auto snapshot = catalog->Current();
        const Table& current = snapshot->table();
        std::vector<std::vector<Value>> batch;
        batch.reserve(static_cast<size_t>(ingest_batch));
        for (int64_t i = 0; i < ingest_batch; ++i) {
          const RowId r = static_cast<RowId>(
              rng.Uniform(static_cast<uint64_t>(current.num_rows())));
          std::vector<Value> row;
          row.reserve(static_cast<size_t>(current.num_columns()));
          for (int col = 0; col < current.num_columns(); ++col) {
            row.push_back(current.GetValue(r, col));
          }
          batch.push_back(std::move(row));
        }
        Status appended = ingestor.Append(batch);
        if (!appended.ok()) {
          std::fprintf(stderr, "ingest batch failed: %s\n",
                       appended.ToString().c_str());
        }
      }
    });
  }

  using WallClock = std::chrono::steady_clock;
  WallClock::time_point start = WallClock::now();
  std::vector<std::thread> client_threads;
  for (int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (;;) {
        int r = next_request.fetch_add(1);
        if (r >= total_requests) break;
        const NamedList& item =
            workload[static_cast<size_t>(r) % workload.size()];
        WallClock::time_point submitted = WallClock::now();
        auto make_request = [&item]() {
          ServiceRequest request;
          request.input = item.list;
          return request;
        };
        StatusOr<std::shared_ptr<Session>> session =
            service.Submit(make_request());
        while (!session.ok() &&
               session.status().IsResourceExhausted()) {
          // Shed at admission: back off for as long as the service's
          // retry-after hint suggests, then retry (closed-loop client).
          int64_t backoff_ms =
              ParseRetryAfterMs(session.status().message(), 5);
          if (!quiet) {
            std::lock_guard<std::mutex> lock(print_mutex);
            std::printf("[client %2lld] %-32s shed; retrying in %lld ms\n",
                        static_cast<long long>(c), item.name.c_str(),
                        static_cast<long long>(backoff_ms));
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(backoff_ms));
          session = service.Submit(make_request());
        }
        if (!session.ok()) {
          failed.fetch_add(1);
          continue;
        }
        SessionState state = (*session)->Wait();
        double ms = std::chrono::duration<double, std::milli>(
                        WallClock::now() - submitted)
                        .count();
        latencies[static_cast<size_t>(c)].push_back(ms);
        const ReverseEngineerReport* report = (*session)->report();
        if (state == SessionState::kFailed) failed.fetch_add(1);
        if (!quiet) {
          std::lock_guard<std::mutex> lock(print_mutex);
          std::printf("[client %2lld] %-32s %-9s %8.2f ms  %s\n",
                      static_cast<long long>(c), item.name.c_str(),
                      SessionStateToString(state), ms,
                      report != nullptr && report->found()
                          ? report->valid[0]
                                .query.ToSql(table->schema())
                                .c_str()
                          : "(no valid query)");
        }
      }
    });
  }
  for (auto& t : client_threads) t.join();
  double elapsed_s =
      std::chrono::duration<double>(WallClock::now() - start).count();
  if (ingest_writer.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ingest_mutex);
      ingest_stop = true;
    }
    ingest_cv.notify_all();
    ingest_writer.join();
    auto ingest_stats = ingestor.stats();
    std::fprintf(stderr,
                 "ingested %llu batches (%llu rows, %llu failed); "
                 "snapshot v%llu with %zu rows\n",
                 static_cast<unsigned long long>(ingest_stats.batches),
                 static_cast<unsigned long long>(ingest_stats.rows),
                 static_cast<unsigned long long>(
                     ingest_stats.failed_batches),
                 static_cast<unsigned long long>(catalog->CurrentVersion()),
                 catalog->Current()->num_rows());
  }
  if (reporter.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reporter_mutex);
      reporter_stop = true;
    }
    reporter_cv.notify_all();
    reporter.join();
    std::fprintf(stderr, "# ---- final metrics ----\n%s%s",
                 service.metrics().RenderText().c_str(),
                 ingest_registry.RenderText().c_str());
  }

  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  auto stats = service.stats();
  std::fprintf(stderr,
               "\n%d requests in %.2fs (%.2f req/s)  p50 %.2f ms  "
               "p99 %.2f ms\n"
               "done %lld  failed %lld  cancelled %lld  expired %lld  "
               "shed(retried) %lld\n",
               total_requests, elapsed_s,
               static_cast<double>(total_requests) / elapsed_s,
               PercentileMs(all, 0.50), PercentileMs(all, 0.99),
               static_cast<long long>(stats.done),
               static_cast<long long>(stats.failed),
               static_cast<long long>(stats.cancelled),
               static_cast<long long>(stats.expired),
               static_cast<long long>(stats.shed));
  return failed.load() == 0 ? 0 : 1;
}
