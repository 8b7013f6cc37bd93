#include "engine/topk_list.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "common/string_util.h"

namespace paleo {

bool ValuesClose(double a, double b, double rel_eps) {
  if (a == b) return true;
  // The tolerance below scales with the larger operand, so it would
  // call +-inf close to every number.
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= rel_eps * std::max(scale, 1.0);
}

std::vector<std::string> TopKList::Entities() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const TopKEntry& e : entries_) out.push_back(e.entity);
  return out;
}

std::vector<std::string> TopKList::DistinctEntities() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const TopKEntry& e : entries_) {
    if (seen.insert(e.entity).second) out.push_back(e.entity);
  }
  return out;
}

std::vector<double> TopKList::Values() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const TopKEntry& e : entries_) out.push_back(e.value);
  return out;
}

bool TopKList::InstanceEquals(const TopKList& other, double rel_eps) const {
  if (entries_.size() != other.entries_.size()) return false;
  size_t i = 0;
  while (i < entries_.size()) {
    // Find the run of positions whose values are tied (within eps) in
    // both lists, then compare the entity multisets of the run.
    if (!ValuesClose(entries_[i].value, other.entries_[i].value, rel_eps)) {
      return false;
    }
    size_t j = i + 1;
    while (j < entries_.size() &&
           ValuesClose(entries_[j].value, entries_[i].value, rel_eps) &&
           ValuesClose(other.entries_[j].value, other.entries_[i].value,
                       rel_eps)) {
      ++j;
    }
    if (j == i + 1) {
      if (entries_[i].entity != other.entries_[i].entity) return false;
    } else {
      std::multiset<std::string> mine, theirs;
      for (size_t p = i; p < j; ++p) {
        mine.insert(entries_[p].entity);
        theirs.insert(other.entries_[p].entity);
      }
      if (mine != theirs) return false;
    }
    i = j;
  }
  return true;
}

double TopKList::EntityJaccard(const TopKList& other) const {
  std::unordered_set<std::string> a, b;
  for (const TopKEntry& e : entries_) a.insert(e.entity);
  for (const TopKEntry& e : other.entries_) b.insert(e.entity);
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  for (const std::string& s : a) inter += b.count(s);
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double TopKList::ValueJaccard(const TopKList& other, double rel_eps) const {
  // Values are real numbers: match them greedily after sorting, which
  // is exact for the tolerance-based equality we need.
  std::vector<double> a = Values();
  std::vector<double> b = other.Values();
  if (a.empty() && b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (ValuesClose(a[i], b[j], rel_eps)) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

StatusOr<TopKList> TopKList::FromCsv(std::string_view text, char sep) {
  TopKList out;
  size_t line_no = 0;
  bool seen_content = false;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty()) continue;
    bool first_content = !seen_content;
    seen_content = true;
    size_t pos = line.rfind(sep);
    if (pos == std::string_view::npos) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + " has no '" +
          std::string(1, sep) + "' separator: " + std::string(line));
    }
    std::string entity(Trim(line.substr(0, pos)));
    std::string value_text(Trim(line.substr(pos + 1)));
    char* end = nullptr;
    double value = std::strtod(value_text.c_str(), &end);
    bool parsed = end != value_text.c_str() && *end == '\0' &&
                  !value_text.empty();
    if (!parsed) {
      // A non-numeric value column is acceptable only as a header row.
      if (first_content) continue;
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     " has a non-numeric value: " +
                                     value_text);
    }
    if (entity.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     " has an empty entity");
    }
    out.Append(std::move(entity), value);
  }
  return out;
}

std::string TopKList::ToCsv(char sep) const {
  std::string out;
  for (const TopKEntry& e : entries_) {
    out += e.entity;
    out += sep;
    out += FormatDouble(e.value);
    out += '\n';
  }
  return out;
}

std::string TopKList::ToString() const {
  size_t w = 0;
  for (const TopKEntry& e : entries_) w = std::max(w, e.entity.size());
  std::string out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += std::to_string(i + 1);
    out += ". ";
    out += entries_[i].entity;
    out.append(w - entries_[i].entity.size() + 2, ' ');
    out += FormatDouble(entries_[i].value);
    out += '\n';
  }
  return out;
}

}  // namespace paleo
