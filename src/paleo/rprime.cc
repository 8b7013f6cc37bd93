#include "paleo/rprime.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

namespace paleo {

StatusOr<RPrime> RPrime::Build(const Table& base, const EntityIndex& index,
                               const TopKList& input,
                               const std::vector<RowId>* base_row_ids) {
  if (input.empty()) {
    return Status::InvalidArgument("input list is empty");
  }
  RPrime rp;

  // Distinct entities in input order, with their (first) values.
  std::unordered_map<std::string, uint32_t> entity_idx;
  for (const TopKEntry& e : input.entries()) {
    if (entity_idx.emplace(e.entity, rp.entity_names_.size()).second) {
      rp.entity_names_.push_back(e.entity);
      rp.entity_values_.push_back(e.value);
    }
  }

  // Optional sample restriction, as a sorted set for O(log n) probes.
  const std::vector<RowId>* sample = base_row_ids;
  auto in_sample = [&](RowId global) {
    if (sample == nullptr) return true;
    return std::binary_search(sample->begin(), sample->end(), global);
  };

  std::vector<std::pair<RowId, uint32_t>> rows;  // (global row, entity idx)
  rp.entity_row_counts_.assign(rp.entity_names_.size(), 0);
  rp.entity_total_counts_.assign(rp.entity_names_.size(), 0);
  for (uint32_t e = 0; e < rp.entity_names_.size(); ++e) {
    const std::span<const RowId> posting = index.Lookup(rp.entity_names_[e]);
    if (posting.empty()) {
      rp.missing_entities_.push_back(rp.entity_names_[e]);
      continue;
    }
    rp.entity_total_counts_[e] = static_cast<int64_t>(posting.size());
    for (RowId global : posting) {
      if (!in_sample(global)) continue;
      rows.emplace_back(global, e);
      ++rp.entity_row_counts_[e];
    }
  }
  std::sort(rows.begin(), rows.end());

  rp.global_rows_.reserve(rows.size());
  rp.row_entity_.reserve(rows.size());
  for (const auto& [global, e] : rows) {
    rp.global_rows_.push_back(global);
    rp.row_entity_.push_back(e);
  }
  rp.table_ = base.Gather(rp.global_rows_);
  return rp;
}

}  // namespace paleo
