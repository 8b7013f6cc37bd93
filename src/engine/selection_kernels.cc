#include "engine/selection_kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "storage/table.h"

namespace paleo {

namespace {

static_assert(std::endian::native == std::endian::little,
              "PackHits reads eight hit bytes as one little-endian word");

/// Packs 64 hit bytes, each 0 or 1, into one bitmap word (bit j = hit
/// j). Read as a little-endian word, eight hits sit at bits 0, 8, ...,
/// 56; the multiply moves hit i to bit 56 + i and, since every partial
/// product lands on a distinct bit, nothing carries into the top byte.
uint64_t PackHits(const uint8_t* hits) {
  uint64_t word = 0;
  for (int g = 0; g < 8; ++g) {
    uint64_t eight;
    std::memcpy(&eight, hits + 8 * g, sizeof(eight));
    word |= ((eight * 0x0102040810204080ULL) >> 56) << (8 * g);
  }
  return word;
}

/// The bitmap word of the `n` <= 64 rows starting at `v`; bits past n
/// stay zero. The comparisons store into a byte array, a loop of
/// independent lanes that the compiler vectorizes at the baseline ISA
/// (the shift-or `bits |= pred(v[j]) << j` serializes on `bits` and
/// does not), and PackHits turns the bytes into bits.
template <typename T, typename Pred>
uint64_t MatchWord(const T* v, size_t n, Pred pred) {
  uint8_t hits[64] = {};
  for (size_t j = 0; j < n; ++j) hits[j] = pred(v[j]);
  return PackHits(hits);
}

/// Evaluates `pred` over rows [base, end) of `v` into the covering
/// bitmap words. Callers keep `base` word-aligned; only the final word
/// may be partial, so every other word takes the fixed 64-row loop.
template <typename T, typename Pred>
void FillWords(const T* v, size_t base, size_t end, uint64_t* words,
               Pred pred) {
  size_t start = base;
  for (; start + 64 <= end; start += 64) {
    words[start / 64] = MatchWord(v + start, 64, pred);
  }
  if (start < end) words[start / 64] = MatchWord(v + start, end - start, pred);
}

/// Calls fn(read), where read(row) is column `col`'s value at `row`
/// widened to double exactly as Column::NumericAt widens it, typed for
/// the column's type so the caller's row loop has no type switch.
template <typename Fn>
bool WithOperand(const Column& col, Fn fn) {
  if (col.type() == DataType::kInt64) {
    return fn([v = col.ints().data()](RowId r) {
      return static_cast<double>(v[r]);
    });
  }
  return fn([v = col.doubles().data()](RowId r) { return v[r]; });
}

/// Calls fn(eval), where eval(row) equals expr.Eval(table, row) bit for
/// bit: one typed evaluator per {A, A + B, A * B} and operand types,
/// with the column lookups and type switches done once, here.
template <typename Fn>
bool WithRankExpr(const RankExpr& expr, const Table& table, Fn fn) {
  return WithOperand(table.column(expr.column_a()), [&](auto a) {
    switch (expr.kind()) {
      case RankExpr::Kind::kAdd:
        return WithOperand(table.column(expr.column_b()), [&](auto b) {
          return fn([a, b](RowId r) { return a(r) + b(r); });
        });
      case RankExpr::Kind::kMul:
        return WithOperand(table.column(expr.column_b()), [&](auto b) {
          return fn([a, b](RowId r) { return a(r) * b(r); });
        });
      case RankExpr::Kind::kColumn:
        break;
    }
    return fn(a);
  });
}

/// Calls visit(row) for each selected row of `sel` in ascending order
/// (bit i is row row_offset + i), polling `gate` once per batch.
/// Returns false on interruption; `*rows_visited` (optional) receives
/// the rows of the batches consumed.
template <typename Visit>
bool ForEachSelected(const SelectionBitmap& sel, BudgetGate* gate,
                     size_t* rows_visited, RowId row_offset, Visit visit) {
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
        visit(static_cast<RowId>(base +
                                 static_cast<size_t>(__builtin_ctzll(bits))));
        bits &= bits - 1;
      }
    }
    visited += std::min(w1 * 64, sel.num_rows()) - w0 * 64;
  }
  if (rows_visited != nullptr) *rows_visited = visited;
  return completed;
}

}  // namespace

bool ComputeAtomSelectionRange(const BoundAtom& atom, RowId begin, RowId end,
                               SelectionBitmap* out, BudgetGate* gate,
                               size_t* rows_visited) {
  // Bit i is row begin + i: the column arrays are read from `begin`.
  const size_t n = end - begin;
  uint64_t* words = out->words();
  size_t visited = 0;
  bool completed = true;
  for (size_t base = 0; base < n; base += kSelectionBatchRows) {
    if (gate->Tick() != TerminationReason::kCompleted) {
      completed = false;
      break;
    }
    const size_t batch_end = std::min(base + kSelectionBatchRows, n);
    switch (atom.kind) {
      case BoundAtom::kCode:
        FillWords(atom.codes + begin, base, batch_end, words,
                  [c = atom.code](uint32_t v) { return v == c; });
        break;
      case BoundAtom::kInt:
        FillWords(atom.ints + begin, base, batch_end, words,
                  [c = atom.int_value](int64_t v) { return v == c; });
        break;
      case BoundAtom::kDouble:
        FillWords(atom.doubles + begin, base, batch_end, words,
                  [c = atom.double_value](double v) { return v == c; });
        break;
      // Range atoms compare with a non-short-circuit `&`, which keeps
      // the loop branch-free.
      case BoundAtom::kIntRange:
        FillWords(atom.ints + begin, base, batch_end, words,
                  [lo = atom.int_value, hi = atom.int_high](int64_t v) {
                    return (v >= lo) & (v <= hi);
                  });
        break;
      case BoundAtom::kDoubleRange:
        FillWords(atom.doubles + begin, base, batch_end, words,
                  [lo = atom.double_value, hi = atom.double_high](double v) {
                    return (v >= lo) & (v <= hi);
                  });
        break;
      case BoundAtom::kNever:
        for (size_t w = base / 64; w * 64 < batch_end; ++w) words[w] = 0;
        break;
    }
    visited += batch_end - base;
  }
  if (rows_visited != nullptr) *rows_visited = visited;
  return completed;
}

bool CollectSelectedRows(const SelectionBitmap& sel, BudgetGate* gate,
                         std::vector<RowId>* out, size_t* rows_visited,
                         RowId row_offset) {
  return ForEachSelected(sel, gate, rows_visited, row_offset,
                         [out](RowId r) { out->push_back(r); });
}

bool FusedGroupAggregate(const SelectionBitmap& sel, const Table& table,
                         const RankExpr& expr, const uint32_t* entity_codes,
                         BudgetGate* gate, AggState* groups,
                         std::vector<uint32_t>* touched,
                         size_t* rows_visited, RowId row_offset) {
  return WithRankExpr(expr, table, [&](auto eval) {
    return ForEachSelected(sel, gate, rows_visited, row_offset,
                           [&](RowId r) {
                             const uint32_t code = entity_codes[r];
                             AggState& state = groups[code];
                             if (state.count == 0) touched->push_back(code);
                             state.Add(eval(r));
                           });
  });
}

}  // namespace paleo
