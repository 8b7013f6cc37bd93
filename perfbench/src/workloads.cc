#include "workloads.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "datagen/augment.h"
#include "datagen/tpch_gen.h"

namespace perfbench {

using paleo::QueryFamily;

namespace {

// Generator seeds of the relation and of the lists (which also fixes
// each list's sample).
constexpr uint64_t kTableSeed = 42;
constexpr uint64_t kListSeed = 2024;

// Fewest timed list visits per run.
constexpr size_t kMinVisits = 100;

// Decorrelates the per-purpose streams drawn from one run seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  return paleo::SplitMix64(&state);
}

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec discover;
  discover.name = "discover";
  discover.scale_factor = 0.1;
  discover.families = {QueryFamily::kMaxA, QueryFamily::kAvgA,
                       QueryFamily::kSumA, QueryFamily::kSumAB,
                       QueryFamily::kMulAB};
  discover.lists_per_cell = 7;
  discover.pass_s = 10.0;
  specs.push_back(discover);

  WorkloadSpec scan;
  scan.name = "enumerate-scan";
  scan.scale_factor = 0.3;
  scan.families = {QueryFamily::kMaxA, QueryFamily::kAvgA};
  scan.lists_per_cell = 17;
  scan.options.stop_at_first_valid = false;
  scan.options.validation_strategy = paleo::ValidationStrategy::kRanked;
  scan.options.use_dimension_index = false;
  scan.setup_reps = 3;  // 3 s each
  scan.pass_s = 5.0;
  specs.push_back(scan);

  WorkloadSpec sampled;
  sampled.name = "sampled";
  sampled.mode = Mode::kSampled;
  sampled.scale_factor = 0.003;
  sampled.augment = true;
  sampled.families = {QueryFamily::kMaxA, QueryFamily::kSumAB};
  sampled.lists_per_cell = 6;
  sampled.sample_fraction = 0.1;
  sampled.max_executions = 500;
  sampled.setup_reps = 11;  // 0.2 s each
  sampled.pass_s = 9.0;
  specs.push_back(sampled);

  WorkloadSpec serve = discover;
  serve.name = "serve-ingest";
  serve.mode = Mode::kServeIngest;
  serve.setup_reps = 7;
  serve.pass_s = 7.0;
  specs.push_back(serve);

  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

paleo::Table MakeTable(const WorkloadSpec& spec) {
  paleo::TpchGenOptions gen;
  gen.scale_factor = spec.scale_factor;
  gen.seed = kTableSeed;
  auto table = paleo::TpchGen::Generate(gen);
  PALEO_CHECK(table.ok()) << table.status().ToString();
  if (!spec.augment) return *std::move(table);
  paleo::AugmentOptions aug;  // the paper's N(200, 50) clones per entity
  aug.seed = kTableSeed + 7;
  auto augmented = paleo::Augment(*table, aug);
  PALEO_CHECK(augmented.ok()) << augmented.status().ToString();
  return *std::move(augmented);
}

std::vector<BenchList> MakeLists(const paleo::Table& table,
                                 const WorkloadSpec& spec) {
  paleo::WorkloadOptions options;
  options.families = spec.families;
  options.predicate_sizes = {1, 2, 3};
  options.ks = {10};
  options.queries_per_config = spec.lists_per_cell;
  options.seed = kListSeed;
  auto generated = paleo::WorkloadGen::Generate(table, options);
  PALEO_CHECK(generated.ok()) << generated.status().ToString();
  std::vector<BenchList> lists;
  for (paleo::WorkloadQuery& wq : *generated) {
    BenchList bl;
    bl.id = static_cast<int>(lists.size());
    bl.name = std::move(wq.name);
    bl.generating_query = std::move(wq.query);
    bl.list = std::move(wq.list);
    lists.push_back(std::move(bl));
  }
  return lists;
}

int TimedPasses(const WorkloadSpec& spec, size_t num_lists, double seconds) {
  const auto for_visits =
      static_cast<int>((kMinVisits + num_lists - 1) / num_lists);
  const auto for_seconds = static_cast<int>(seconds / spec.pass_s);
  return std::max(for_visits, for_seconds);
}

std::vector<size_t> VisitOrder(size_t num_lists, uint64_t seed) {
  std::vector<size_t> order(num_lists);
  for (size_t i = 0; i < num_lists; ++i) order[i] = i;
  paleo::Rng rng(Mix(seed, 2));
  for (size_t i = num_lists; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

uint64_t SampleSeed(int id) {
  return Mix(kListSeed, 1000 + static_cast<uint64_t>(id));
}

std::vector<std::vector<paleo::Value>> MakeIngestBatch(
    const paleo::Table& base, const std::vector<BenchList>& lists,
    uint64_t seed, int batch, int rows) {
  std::set<int> predicate_columns;
  for (const BenchList& bl : lists) {
    for (const auto& atom : bl.generating_query.predicate.atoms()) {
      predicate_columns.insert(atom.column);
    }
  }
  const int entity = base.schema().entity_index();
  const std::string tag =
      "perfbench-" + std::to_string(seed) + "-" + std::to_string(batch);
  paleo::Rng rng(Mix(seed, 3 + static_cast<uint64_t>(batch) * 7919));
  std::vector<std::vector<paleo::Value>> out;
  out.reserve(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    const auto template_row =
        static_cast<paleo::RowId>(rng.Uniform(base.num_rows()));
    std::vector<paleo::Value> row;
    row.reserve(static_cast<size_t>(base.num_columns()));
    for (int c = 0; c < base.num_columns(); ++c) {
      row.push_back(base.GetValue(template_row, c));
    }
    // Eight rows per fresh entity, so new entities carry several tuples.
    row[static_cast<size_t>(entity)] =
        paleo::Value(tag + "-entity-" + std::to_string(r / 8));
    for (int c : predicate_columns) {
      PALEO_CHECK(row[static_cast<size_t>(c)].is_string())
          << "fresh values assume textual predicate columns";
      row[static_cast<size_t>(c)] = paleo::Value(tag + "-value");
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace perfbench
