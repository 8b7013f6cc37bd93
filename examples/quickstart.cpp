// Quickstart: the paper's introduction example end to end.
//
// Builds the telecom Traffic relation of Table 1, takes the top-5 list
// of Table 2 as input, and asks PALEO which SQL queries generate it.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "datagen/traffic_gen.h"
#include "paleo/paleo.h"

int main() {
  using namespace paleo;

  // 1. The base relation R (Table 1 of the paper).
  auto table = TrafficGen::PaperExample();
  if (!table.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  std::printf("Base relation R (%zu rows):\n%s\n", table->num_rows(),
              table->ToString(8).c_str());

  // 2. The input top-k list L (Table 2 of the paper). Note: no column
  //    names, no hint which column produced the numbers.
  TopKList input;
  input.Append("Lara Ellis", 784);
  input.Append("Jane O'Neal", 699);
  input.Append("John Smith", 654);
  input.Append("Richard Fox", 596);
  input.Append("Jack Stiles", 586);
  std::printf("Input list L:\n%s\n", input.ToString().c_str());

  // 3. Reverse engineer. Construction builds the entity index and the
  //    statistics catalog; Run(RunRequest) executes the three-step
  //    pipeline for one request.
  Paleo paleo(&*table, PaleoOptions{});
  RunRequest request;
  request.input = &input;
  auto report = paleo.Run(request);
  if (!report.ok()) {
    std::fprintf(stderr, "PALEO failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  if (!report->found()) {
    std::printf("No query found that generates L over R.\n");
    return 1;
  }
  std::printf("Found a valid query after %lld candidate executions:\n\n",
              static_cast<long long>(report->executed_queries));
  std::printf("  %s\n\n",
              report->valid[0].query.ToSql(table->schema()).c_str());
  std::printf(
      "Pipeline stats: %lld candidate predicates, %lld tuple sets, "
      "%lld candidate queries\n",
      static_cast<long long>(report->candidate_predicates),
      static_cast<long long>(report->tuple_sets),
      static_cast<long long>(report->candidate_queries));
  std::printf("Step times: %.2f ms / %.2f ms / %.2f ms (find "
              "predicates / find ranking / validate)\n",
              report->timings.find_predicates_ms,
              report->timings.find_ranking_ms,
              report->timings.validation_ms);
  return 0;
}
