// The benchmark's four workloads and their seeded inputs.
//
// A workload names the relation it runs over, the top-k lists it asks
// PALEO to reverse engineer, and the options it runs them with. The
// relation and the lists (WorkloadGen under a fixed list seed, each
// sampled list with its own fixed sample) are the same in every run;
// the run seed sets the order in which each pass visits them and the
// rows serve-ingest appends. The program under test only ever receives
// the generated table and lists.
//
// Why the seed does not redraw the lists: per-list cost spans three
// orders of magnitude (1 ms to 1 s on discover) and a few lists carry
// most of the executions and valid queries, so a list set redrawn per
// seed, even one that only swaps one list per (family, |P|) cell,
// moved the metrics by more than their bounds between seeds (README.md,
// "Seeds and fixed work"). A fixed list set makes every run do the
// same work.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/query.h"
#include "engine/topk_list.h"
#include "paleo/options.h"
#include "storage/table.h"
#include "types/value.h"
#include "workload/workload.h"

namespace perfbench {

enum class Mode {
  kFullRPrime,   // Paleo::Run over the full R'; the options do the rest
  kSampled,      // Paleo::Run on a per-list sample of R'
  kServeIngest,  // DiscoveryService + Ingestor over a TableCatalog
};

struct WorkloadSpec {
  std::string name;
  Mode mode = Mode::kFullRPrime;
  double scale_factor = 0.1;
  /// Clone-augment the relation (paper Section 8.1) before use.
  bool augment = false;
  std::vector<paleo::QueryFamily> families;
  /// Lists per (family, |P|) cell; |P| ranges over {1, 2, 3}, k = 10.
  int lists_per_cell = 1;
  paleo::PaleoOptions options;
  /// Sampled only: the Sampler::UniformPerEntity fraction.
  double sample_fraction = 1.0;
  /// Execution cap set through RunRequest::budget (0 = none).
  int64_t max_executions = 0;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 5;
  /// Seconds one timed pass took on the reference machine (a 4-vCPU
  /// Xeon KVM guest); sizes the pass count, see TimedPasses().
  double pass_s = 10.0;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One input list plus everything the benchmark (not the program)
/// knows about it.
struct BenchList {
  int id = 0;  // position in generation order
  std::string name;
  paleo::TopKQuery generating_query;
  paleo::TopKList list;
  /// Sampled only: sorted row ids of this list's sample of R'.
  std::vector<paleo::RowId> sample;
};

/// The workload's relation.
paleo::Table MakeTable(const WorkloadSpec& spec);

/// The workload's lists, in generation order.
std::vector<BenchList> MakeLists(const paleo::Table& table,
                                 const WorkloadSpec& spec);

/// Timed passes per run: as many whole passes as `seconds` holds at the
/// workload's reference pass time, and at least enough for 100 timed
/// visits, so that list_p90_ms has ten beyond it. The count depends on
/// neither the machine nor the code's speed, so neither does the work.
int TimedPasses(const WorkloadSpec& spec, size_t num_lists, double seconds);

/// The seeded visit order: a permutation of list indices, the same for
/// every pass of one run.
std::vector<size_t> VisitOrder(size_t num_lists, uint64_t seed);

/// Seed of list `id`'s sample: part of the list's identity, so a list's
/// sampled outcome is the same in every run.
uint64_t SampleSeed(int id);

/// Rows for serve-ingest batch `batch`: copies of seeded base rows
/// under fresh entity names, with a fresh value in every column that
/// some list's generating predicate names. No list's generating query
/// can select them, so every list stays reproducible on every
/// snapshot.
std::vector<std::vector<paleo::Value>> MakeIngestBatch(
    const paleo::Table& base, const std::vector<BenchList>& lists,
    uint64_t seed, int batch, int rows);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
