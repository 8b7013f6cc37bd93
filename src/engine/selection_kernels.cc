#include "engine/selection_kernels.h"

#include <algorithm>

#include "storage/table.h"

namespace paleo {

namespace {

/// Evaluates `pred` over rows [base, end) of `v` into the covering
/// bitmap words. Word-at-a-time with a branch-free inner loop, so the
/// compiler can vectorize the comparison; callers keep [base, end)
/// word-aligned except for the final tail, whose trailing bits stay
/// zero.
template <typename T, typename Pred>
void FillWords(const T* v, size_t base, size_t end, uint64_t* words,
               Pred pred) {
  for (size_t w = base / 64; w * 64 < end; ++w) {
    const size_t start = w * 64;
    const size_t limit = std::min<size_t>(64, end - start);
    uint64_t bits = 0;
    for (size_t j = 0; j < limit; ++j) {
      bits |= static_cast<uint64_t>(pred(v[start + j])) << j;
    }
    words[w] = bits;
  }
}

}  // namespace

namespace {

/// Shared body of ComputeAtomSelection / ComputeAtomSelectionRange:
/// evaluates `atom` over `n` rows starting at column-array offset
/// `col_offset` into the bitmap words (bit i = row col_offset + i).
bool ComputeAtomSelectionAt(const BoundAtom& atom, size_t col_offset, size_t n,
                            SelectionBitmap* out, BudgetGate* gate,
                            size_t* rows_visited) {
  uint64_t* words = out->words();
  size_t visited = 0;
  bool completed = true;
  for (size_t base = 0; base < n; base += kSelectionBatchRows) {
    if (gate->Tick() != TerminationReason::kCompleted) {
      completed = false;
      break;
    }
    const size_t end = std::min(base + kSelectionBatchRows, n);
    switch (atom.kind) {
      case BoundAtom::kCode:
        FillWords(atom.codes + col_offset, base, end, words,
                  [c = atom.code](uint32_t v) { return v == c; });
        break;
      case BoundAtom::kInt:
        FillWords(atom.ints + col_offset, base, end, words,
                  [c = atom.int_value](int64_t v) { return v == c; });
        break;
      case BoundAtom::kDouble:
        FillWords(atom.doubles + col_offset, base, end, words,
                  [c = atom.double_value](double v) { return v == c; });
        break;
      case BoundAtom::kIntRange:
        FillWords(atom.ints + col_offset, base, end, words,
                  [lo = atom.int_value, hi = atom.int_high](int64_t v) {
                    return v >= lo && v <= hi;
                  });
        break;
      case BoundAtom::kDoubleRange:
        FillWords(atom.doubles + col_offset, base, end, words,
                  [lo = atom.double_value, hi = atom.double_high](double v) {
                    return v >= lo && v <= hi;
                  });
        break;
      case BoundAtom::kNever:
        for (size_t w = base / 64; w * 64 < end; ++w) words[w] = 0;
        break;
    }
    visited += end - base;
  }
  if (rows_visited != nullptr) *rows_visited = visited;
  return completed;
}

}  // namespace

bool ComputeAtomSelection(const BoundAtom& atom, size_t n,
                          SelectionBitmap* out, BudgetGate* gate,
                          size_t* rows_visited) {
  return ComputeAtomSelectionAt(atom, 0, n, out, gate, rows_visited);
}

bool ComputeAtomSelectionRange(const BoundAtom& atom, RowId begin, RowId end,
                               SelectionBitmap* out, BudgetGate* gate,
                               size_t* rows_visited) {
  return ComputeAtomSelectionAt(atom, begin, end - begin, out, gate,
                                rows_visited);
}

bool CollectSelectedRows(const SelectionBitmap& sel, BudgetGate* gate,
                         std::vector<RowId>* out, size_t* rows_visited,
                         RowId row_offset) {
  const uint64_t* words = sel.words();
  const size_t num_words = sel.num_words();
  constexpr size_t kWordsPerBatch = kSelectionBatchRows / 64;
  size_t visited = 0;
  bool completed = true;
  for (size_t w0 = 0; w0 < num_words; w0 += kWordsPerBatch) {
    if (gate->Tick() != TerminationReason::kCompleted) {
      completed = false;
      break;
    }
    const size_t w1 = std::min(w0 + kWordsPerBatch, num_words);
    for (size_t w = w0; w < w1; ++w) {
      uint64_t bits = words[w];
      const size_t base = row_offset + w * 64;
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        out->push_back(static_cast<RowId>(base + static_cast<size_t>(tz)));
        bits &= bits - 1;
      }
    }
    visited += std::min(w1 * 64, sel.num_rows()) - w0 * 64;
  }
  if (rows_visited != nullptr) *rows_visited = visited;
  return completed;
}

bool FusedGroupAggregate(const SelectionBitmap& sel, const Table& table,
                         const RankExpr& expr, const uint32_t* entity_codes,
                         BudgetGate* gate, std::vector<AggState>* groups,
                         std::vector<uint32_t>* touched,
                         size_t* rows_visited, RowId row_offset) {
  const uint64_t* words = sel.words();
  const size_t num_words = sel.num_words();
  constexpr size_t kWordsPerBatch = kSelectionBatchRows / 64;
  AggState* g = groups->data();
  size_t visited = 0;
  bool completed = true;
  for (size_t w0 = 0; w0 < num_words; w0 += kWordsPerBatch) {
    if (gate->Tick() != TerminationReason::kCompleted) {
      completed = false;
      break;
    }
    const size_t w1 = std::min(w0 + kWordsPerBatch, num_words);
    for (size_t w = w0; w < w1; ++w) {
      uint64_t bits = words[w];
      const size_t base = row_offset + w * 64;
      while (bits != 0) {
        const RowId r =
            static_cast<RowId>(base + static_cast<size_t>(__builtin_ctzll(bits)));
        const uint32_t code = entity_codes[r];
        AggState& state = g[code];
        if (state.count == 0) touched->push_back(code);
        state.Add(expr.Eval(table, r));
        bits &= bits - 1;
      }
    }
    visited += std::min(w1 * 64, sel.num_rows()) - w0 * 64;
  }
  if (rows_visited != nullptr) *rows_visited = visited;
  return completed;
}

}  // namespace paleo
