// Command-line PALEO: reverse engineer top-k queries from files.
//
//   paleo_cli <relation.csv> <topk_list.csv> [options]
//
// The relation is either CSV with the self-describing header of
// io/table_io.h ("name:STRING:ENTITY,state:STRING:DIM,...") or the
// binary format of io/binary_io.h (detected by magic); the list is
// "entity,value" rows (optional header). Options:
//
//   --all            enumerate all valid queries (default: stop at the
//                    first one)
//   --partial        accept approximate matches (Section 3.3)
//   --max-pred N     cap conjunction size (default 3)
//   --timeout-ms N   wall-clock deadline for the whole run; on expiry
//                    prints the queries validated in time plus the best
//                    unvalidated candidates as near misses
//   --max-executions N
//                    cap on candidate-query executions for the whole
//                    run (default unlimited); like --timeout-ms, on
//                    reaching it prints the queries validated so far
//                    plus near misses
//   --sep C          field separator for both files (default ',')
//   --execute SQL    skip reverse engineering: run the given template
//                    query over the relation and print its result list
//                    (the second positional argument is then optional)
//   --verbose        print a step-by-step explanation of the run
//   --trace-out F    record a structured span trace of the run and
//                    write it as JSON to file F ('-' for stdout)
//
// Exit status: 0 on success (valid queries found, or --execute ran),
// 1 when no valid query was found or any input failed to load/parse
// (the reason goes to stderr), 2 on usage errors.
//
// Examples (after `cmake --build build`):
//   ./build/examples/paleo_cli relation.csv list.csv --all
//   ./build/examples/paleo_cli relation.csv --execute "SELECT name,
//       max(minutes) FROM R WHERE state = 'CA' GROUP BY name ORDER BY
//       max(minutes) DESC LIMIT 5" (one line)

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "engine/sql_parser.h"
#include "paleo/explain.h"
#include "io/binary_io.h"
#include "io/table_io.h"
#include "paleo/paleo.h"

namespace {

/// Loads a relation in either format: the binary magic selects
/// BinaryIo, anything else parses as CSV.
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
               "usage: %s <relation.csv> [<topk_list.csv>] [--all] "
               "[--partial] [--max-pred N] [--timeout-ms N] "
               "[--max-executions N] [--sep C] [--execute SQL] "
               "[--verbose] [--trace-out FILE]\n",
               argv0);
  return 2;
}

/// Strict integer flag parsing: rejects trailing garbage and negatives
/// instead of silently reading 0 like atoi would.
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

}  // namespace

int main(int argc, char** argv) {
  using namespace paleo;
  if (argc < 2) return Usage(argv[0]);
  const char* relation_path = argv[1];
  const char* list_path = nullptr;
  const char* execute_sql = nullptr;
  int first_flag = 2;
  if (argc >= 3 && argv[2][0] != '-') {
    list_path = argv[2];
    first_flag = 3;
  }

  PaleoOptions options;
  char sep = ',';
  bool verbose = false;
  const char* trace_out = nullptr;
  for (int i = first_flag; i < argc; ++i) {
    if (std::strcmp(argv[i], "--execute") == 0 && i + 1 < argc) {
      execute_sql = argv[++i];
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--all") == 0) {
      options.stop_at_first_valid = false;
    } else if (std::strcmp(argv[i], "--partial") == 0) {
      options.match_mode = MatchMode::kPartial;
    } else if (std::strcmp(argv[i], "--max-pred") == 0 && i + 1 < argc) {
      int64_t v = 0;
      if (!ParseInt64Flag("--max-pred", argv[++i], &v)) return 2;
      options.max_predicate_size = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      if (!ParseInt64Flag("--timeout-ms", argv[++i],
                          &options.deadline_ms)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--max-executions") == 0 &&
               i + 1 < argc) {
      if (!ParseInt64Flag("--max-executions", argv[++i],
                          &options.max_validation_executions)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sep") == 0 && i + 1 < argc) {
      sep = argv[++i][0];
    } else {
      return Usage(argv[0]);
    }
  }

  auto table = LoadRelation(relation_path, sep);
  if (!table.ok()) {
    std::fprintf(stderr, "failed to load relation: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }

  if (execute_sql != nullptr) {
    auto query = ParseTopKQuery(execute_sql, table->schema());
    if (!query.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    Executor executor;
    auto result = executor.Execute(*table, *query, ExecContext{});
    if (!result.ok()) {
      std::fprintf(stderr, "execution error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->ToCsv(sep).c_str());
    return 0;
  }

  if (list_path == nullptr) return Usage(argv[0]);
  std::ifstream list_in(list_path, std::ios::binary);
  if (!list_in) {
    std::fprintf(stderr, "cannot open %s\n", list_path);
    return 1;
  }
  std::ostringstream list_buffer;
  list_buffer << list_in.rdbuf();
  if (list_in.bad()) {
    std::fprintf(stderr, "error reading %s\n", list_path);
    return 1;
  }
  auto input = TopKList::FromCsv(list_buffer.str(), sep);
  if (!input.ok()) {
    std::fprintf(stderr, "failed to parse top-k list: %s\n",
                 input.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stderr, "relation: %zu rows, %u entities; input: top-%zu\n",
               table->num_rows(), table->NumEntities(), input->size());

  Paleo paleo(&*table, options);
  RunRequest request;
  request.input = &*input;
  request.keep_candidates = verbose;
  request.collect_trace = trace_out != nullptr || verbose;
  auto report = paleo.Run(request);
  if (!report.ok()) {
    std::fprintf(stderr, "PALEO failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (verbose) {
    std::fprintf(stderr, "%s",
                 ExplainReport(*report, table->schema()).c_str());
  }
  if (trace_out != nullptr && report->trace != nullptr) {
    std::string json = report->trace->ToJson();
    if (std::strcmp(trace_out, "-") == 0) {
      std::printf("%s\n", json.c_str());
    } else {
      std::ofstream out(trace_out, std::ios::binary);
      out << json << '\n';
      if (!out) {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_out);
        return 1;
      }
    }
  }
  std::fprintf(stderr,
               "%lld candidate predicates, %lld tuple sets, %lld candidate "
               "queries, %lld executions\n",
               static_cast<long long>(report->candidate_predicates),
               static_cast<long long>(report->tuple_sets),
               static_cast<long long>(report->candidate_queries),
               static_cast<long long>(report->executed_queries));
  if (report->termination != TerminationReason::kCompleted) {
    std::fprintf(stderr, "stopped early: %s\n",
                 TerminationReasonToString(report->termination));
    for (const CandidateQuery& cq : report->near_misses) {
      std::fprintf(stderr, "near miss (unvalidated, s=%.3f): %s\n",
                   cq.suitability,
                   cq.query.ToSql(table->schema()).c_str());
    }
  }
  if (!report->found()) {
    std::printf("no valid query found\n");
    return 1;
  }
  for (const ValidQuery& vq : report->valid) {
    std::printf("%s\n", vq.query.ToSql(table->schema()).c_str());
  }
  return 0;
}
