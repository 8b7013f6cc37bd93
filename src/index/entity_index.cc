#include "index/entity_index.h"

#include <algorithm>

namespace paleo {

EntityIndex EntityIndex::Build(const Table& table) {
  EntityIndex index;
  index.Append(table, 0);
  return index;
}

EntityIndex EntityIndex::BuildIncremental(const EntityIndex& prev,
                                          const Table& table,
                                          size_t old_rows) {
  EntityIndex index = prev;  // shares prev's postings by prefix
  index.Append(table, old_rows);
  return index;
}

void EntityIndex::Append(const Table& table, size_t from) {
  const Column& entities = table.entity_column();
  // The table's own dictionary: the previous version's lacks the names
  // this batch registered.
  dict_ = entities.shared_dict();
  postings_.resize(dict_->size());
  for (size_t r = from; r < table.num_rows(); ++r) {
    const RowId row = static_cast<RowId>(r);
    postings_[entities.CodeAt(row)].Append(row);
  }
}

std::span<const RowId> EntityIndex::Lookup(const std::string& entity) const {
  if (dict_ == nullptr) return {};
  // kInvalidCode, and the code of a name registered after the build,
  // lie past the postings.
  const uint32_t code = dict_->Lookup(entity);
  return code < postings_.size() ? postings_[code].span()
                                 : std::span<const RowId>();
}

std::vector<RowId> EntityIndex::LookupAll(
    const std::vector<std::string>& entities,
    std::vector<std::string>* missing) const {
  std::vector<RowId> rows;
  for (const std::string& e : entities) {
    const std::span<const RowId> p = Lookup(e);
    if (p.empty() && missing != nullptr) missing->push_back(e);
    rows.insert(rows.end(), p.begin(), p.end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

size_t EntityIndex::num_entities() const {
  return static_cast<size_t>(
      std::count_if(postings_.begin(), postings_.end(),
                    [](const auto& p) { return !p.empty(); }));
}

size_t EntityIndex::MaxPostingLength() const {
  size_t best = 0;
  for (const auto& p : postings_) best = std::max(best, p.size());
  return best;
}

double EntityIndex::AvgPostingLength() const {
  const size_t entities = num_entities();
  if (entities == 0) return 0.0;
  size_t total = 0;
  for (const auto& p : postings_) total += p.size();
  return static_cast<double>(total) / static_cast<double>(entities);
}

}  // namespace paleo
