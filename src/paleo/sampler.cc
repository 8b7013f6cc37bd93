#include "paleo/sampler.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/random.h"

namespace paleo {

StatusOr<std::vector<RowId>> Sampler::ByEntity(
    const EntityIndex& index, const std::vector<std::string>& entities,
    double entity_fraction, uint64_t seed) {
  if (entity_fraction <= 0.0 || entity_fraction > 1.0) {
    return Status::InvalidArgument("entity_fraction must be in (0, 1]");
  }
  Rng rng(seed);
  uint32_t n = static_cast<uint32_t>(entities.size());
  if (n == 0) return std::vector<RowId>{};
  uint32_t count = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::ceil(entity_fraction * static_cast<double>(n))));
  std::vector<uint32_t> chosen = rng.SampleWithoutReplacement(n, count);
  std::vector<RowId> rows;
  for (uint32_t idx : chosen) {
    const std::span<const RowId> posting =
        index.Lookup(entities[static_cast<size_t>(idx)]);
    rows.insert(rows.end(), posting.begin(), posting.end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

StatusOr<std::vector<RowId>> Sampler::UniformPerEntity(
    const EntityIndex& index, const std::vector<std::string>& entities,
    double fraction, uint64_t seed) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in (0, 1]");
  }
  Rng rng(seed);
  std::vector<RowId> rows;
  for (const std::string& entity : entities) {
    const std::span<const RowId> posting = index.Lookup(entity);
    if (posting.empty()) continue;
    uint32_t n = static_cast<uint32_t>(posting.size());
    uint32_t count = std::max<uint32_t>(
        1, static_cast<uint32_t>(
               std::ceil(fraction * static_cast<double>(n))));
    count = std::min(count, n);
    std::vector<uint32_t> chosen = rng.SampleWithoutReplacement(n, count);
    for (uint32_t idx : chosen) rows.push_back(posting[idx]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace paleo
