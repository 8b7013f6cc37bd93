#include "stats/top_entities.h"

#include <algorithm>
#include <limits>

namespace paleo {

TopEntityList TopEntityList::Build(const Table& table, int column,
                                   int top_n) {
  std::vector<double> entity_max;
  FoldEntityMaxes(table, column, 0, &entity_max);
  return FromEntityMaxes(entity_max, top_n);
}

void TopEntityList::FoldEntityMaxes(const Table& table, int column,
                                    size_t from,
                                    std::vector<double>* entity_max) {
  const Column& col = table.column(column);
  const Column& entities = table.entity_column();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double>& best = *entity_max;
  best.resize(entities.dict()->size(), kNegInf);
  for (size_t row = from; row < table.num_rows(); ++row) {
    uint32_t code = entities.CodeAt(static_cast<RowId>(row));
    double v = col.NumericAt(static_cast<RowId>(row));
    if (v > best[code]) best[code] = v;
  }
}

TopEntityList TopEntityList::FromEntityMaxes(
    const std::vector<double>& best, int top_n) {
  TopEntityList out;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const uint32_t num_entities = static_cast<uint32_t>(best.size());

  std::vector<uint32_t> order;
  order.reserve(num_entities);
  for (uint32_t code = 0; code < num_entities; ++code) {
    if (best[code] != kNegInf) order.push_back(code);
  }
  auto cmp = [&](uint32_t a, uint32_t b) {
    if (best[a] != best[b]) return best[a] > best[b];
    return a < b;
  };
  if (order.size() > static_cast<size_t>(top_n)) {
    std::partial_sort(order.begin(), order.begin() + top_n, order.end(), cmp);
    order.resize(static_cast<size_t>(top_n));
  } else {
    std::sort(order.begin(), order.end(), cmp);
  }

  out.entity_codes_ = order;
  out.values_.reserve(order.size());
  for (uint32_t code : order) out.values_.push_back(best[code]);
  out.member_.insert(order.begin(), order.end());
  return out;
}

int TopEntityList::CountIntersection(
    const std::vector<uint32_t>& codes) const {
  int n = 0;
  for (uint32_t code : codes) {
    if (member_.count(code) > 0) ++n;
  }
  return n;
}

}  // namespace paleo
