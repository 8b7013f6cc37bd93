// Tests for the columnar storage: dictionary, columns, table.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/prefix_array.h"
#include "storage/table.h"

namespace paleo {
namespace {

template <typename T>
std::vector<T> Elements(const PrefixArray<T>& a) {
  return {a.begin(), a.end()};
}

TEST(PrefixArrayTest, CopiesShareThePrefixAndForkOnlyWhenExtendedFirst) {
  PrefixArray<int> a;
  for (int i = 0; i < 3; ++i) a.Append(i);
  PrefixArray<int> b = a;
  EXPECT_EQ(b.data(), a.data());
  // b claims the slot past both prefixes and writes it in place.
  b.Append(10);
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(a.size(), 3u);
  // b already extended past a's prefix: a forks to a private buffer.
  a.Append(20);
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(Elements(a), (std::vector<int>{0, 1, 2, 20}));
  EXPECT_EQ(Elements(b), (std::vector<int>{0, 1, 2, 10}));
  // b still holds the shared buffer's tip and keeps appending in place.
  const int* shared = b.data();
  b.Append(11);
  EXPECT_EQ(b.data(), shared);
  EXPECT_EQ(Elements(b), (std::vector<int>{0, 1, 2, 10, 11}));
}

TEST(PrefixArrayTest, FullBufferForksGeometricallyAndOldHoldersKeepIt) {
  PrefixArray<int64_t> a;
  for (int64_t i = 0; i < 8; ++i) a.Append(i);
  EXPECT_EQ(a.capacity(), 8u);
  const PrefixArray<int64_t> pinned = a;
  a.Append(8);
  EXPECT_NE(a.data(), pinned.data());
  EXPECT_EQ(a.capacity(), 18u);  // twice the 9 elements it needs
  EXPECT_EQ(pinned.capacity(), 8u);
  EXPECT_EQ(Elements(pinned), (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  int64_t* more = a.Extend(100);
  for (int64_t i = 0; i < 100; ++i) more[i] = 9 + i;
  EXPECT_EQ(a.capacity(), 218u);
  EXPECT_EQ(a.size(), 109u);
  EXPECT_EQ(a[108], 108);
}

TEST(PrefixArrayTest, InPlaceWritesCopyASharedBuffer) {
  PrefixArray<uint32_t> a;
  a.Append(1);
  PrefixArray<uint32_t> b = a;
  b.MutableData()[0] = 2;
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(b[0], 2u);
  // b is now its buffer's only holder: no further copy.
  const uint32_t* own = b.data();
  b.MutableData()[0] = 3;
  EXPECT_EQ(b.data(), own);
  EXPECT_EQ(b[0], 3u);
}

TEST(PrefixArrayTest, CloneSharesNothingAndKeepsCapacity) {
  PrefixArray<double> a;
  for (int i = 0; i < 5; ++i) a.Append(i * 0.5);
  const PrefixArray<double> clone = a.Clone();
  EXPECT_NE(clone.data(), a.data());
  EXPECT_EQ(clone.capacity(), a.capacity());
  EXPECT_EQ(Elements(clone), Elements(a));
  // The source still holds its buffer's tip: appends stay in place.
  const double* before = a.data();
  a.Append(9.0);
  EXPECT_EQ(a.data(), before);
  EXPECT_TRUE(PrefixArray<double>().Clone().empty());
}

TEST(PrefixArrayTest, MovedFromHolderIsEmpty) {
  PrefixArray<int> a;
  a.Append(7);
  PrefixArray<int> b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b[0], 7);
  a.Append(8);
  EXPECT_EQ(Elements(a), (std::vector<int>{8}));
  EXPECT_EQ(Elements(b), (std::vector<int>{7}));
}

TEST(DictionaryTest, CopiesShareFrozenStringsAndGrowApart) {
  StringDictionary dict;
  for (int i = 0; i < 100; ++i) dict.GetOrAdd("s" + std::to_string(i));
  StringDictionary copy(dict);
  EXPECT_EQ(copy.GetOrAdd("new"), 100u);
  EXPECT_EQ(dict.Lookup("new"), StringDictionary::kInvalidCode);
  EXPECT_EQ(dict.GetOrAdd("other"), 100u);
  EXPECT_EQ(copy.Lookup("other"), StringDictionary::kInvalidCode);
  // A chain of copies, each adding a string (some freeze their
  // source's tail, some copy it): every code keeps its string.
  auto current = std::make_unique<StringDictionary>(copy);
  for (uint32_t round = 0; round < 40; ++round) {
    auto next = std::make_unique<StringDictionary>(*current);
    EXPECT_EQ(next->GetOrAdd("round" + std::to_string(round)), 101 + round);
    EXPECT_EQ(current->size(), 101 + round);
    current = std::move(next);
  }
  ASSERT_EQ(current->size(), 141u);
  for (uint32_t i = 0; i < 100; ++i) {
    const std::string s = "s" + std::to_string(i);
    EXPECT_EQ(current->Get(i), s);
    EXPECT_EQ(current->Lookup(s), i);
  }
  EXPECT_EQ(current->Get(100), "new");
  EXPECT_EQ(current->Lookup("round39"), 140u);
  EXPECT_EQ(current->Lookup("other"), StringDictionary::kInvalidCode);
}

TEST(DictionaryTest, GetOrAddAssignsDenseCodes) {
  StringDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.GetOrAdd("b"), 1u);
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Get(0), "a");
  EXPECT_EQ(dict.Get(1), "b");
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  StringDictionary dict;
  dict.GetOrAdd("x");
  EXPECT_EQ(dict.Lookup("x"), 0u);
  EXPECT_EQ(dict.Lookup("y"), StringDictionary::kInvalidCode);
}

TEST(DictionaryTest, HandlesEmptyString) {
  StringDictionary dict;
  uint32_t code = dict.GetOrAdd("");
  EXPECT_EQ(dict.Lookup(""), code);
  EXPECT_EQ(dict.Get(code), "");
}

TEST(ColumnTest, Int64AppendAndRead) {
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(-7);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Int64At(0), 5);
  EXPECT_EQ(col.Int64At(1), -7);
  EXPECT_EQ(col.NumericAt(1), -7.0);
  EXPECT_EQ(col.GetValue(0), Value::Int64(5));
}

TEST(ColumnTest, DoubleAppendAndRead) {
  Column col(DataType::kDouble);
  col.AppendDouble(1.25);
  EXPECT_EQ(col.DoubleAt(0), 1.25);
  EXPECT_EQ(col.NumericAt(0), 1.25);
  EXPECT_EQ(col.GetValue(0), Value::Double(1.25));
}

TEST(ColumnTest, StringAppendUsesDictionary) {
  Column col(DataType::kString);
  col.AppendString("CA");
  col.AppendString("NY");
  col.AppendString("CA");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.CodeAt(0), col.CodeAt(2));
  EXPECT_NE(col.CodeAt(0), col.CodeAt(1));
  EXPECT_EQ(col.StringAt(1), "NY");
  EXPECT_EQ(col.dict()->size(), 2u);
}

TEST(ColumnTest, CheckedAppendEnforcesTypes) {
  Column col(DataType::kInt64);
  EXPECT_TRUE(col.Append(Value::Int64(1)).ok());
  EXPECT_TRUE(col.Append(Value::String("x")).IsTypeError());
  EXPECT_TRUE(col.Append(Value::Double(1.0)).IsTypeError());

  Column dcol(DataType::kDouble);
  // Int64 widens into Double columns.
  EXPECT_TRUE(dcol.Append(Value::Int64(3)).ok());
  EXPECT_EQ(dcol.DoubleAt(0), 3.0);
  EXPECT_TRUE(dcol.Append(Value::String("x")).IsTypeError());
}

TEST(ColumnTest, SettersOverwriteInPlace) {
  Column col(DataType::kInt64);
  col.AppendInt64(1);
  col.SetInt64(0, 9);
  EXPECT_EQ(col.Int64At(0), 9);
}

TEST(ColumnTest, GatherPreservesOrderAndSharesDictionary) {
  Column col(DataType::kString);
  for (const char* s : {"a", "b", "c", "d"}) col.AppendString(s);
  Column picked = col.Gather({3, 1});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked.StringAt(0), "d");
  EXPECT_EQ(picked.StringAt(1), "b");
  EXPECT_EQ(picked.dict(), col.dict());
}

Schema TestSchema() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"dim", DataType::kString, FieldRole::kDimension},
      {"val", DataType::kInt64, FieldRole::kMeasure},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

TEST(TableTest, AppendRowRoundTrip) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("e1"), Value::String("x"),
                           Value::Int64(10)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::String("e2"), Value::String("y"),
                           Value::Int64(20)})
                  .ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("e1"));
  EXPECT_EQ(t.GetValue(1, 2), Value::Int64(20));
}

TEST(TableTest, AppendRowRejectsWrongArityAtomically) {
  Table t(TestSchema());
  EXPECT_TRUE(t.AppendRow({Value::String("e1")}).IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, AppendRowRejectsWrongTypeWithoutPartialWrite) {
  Table t(TestSchema());
  // Type error in the last column must not leave the first columns
  // longer than the others.
  EXPECT_TRUE(t.AppendRow({Value::String("e1"), Value::String("x"),
                           Value::String("oops")})
                  .IsTypeError());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.CheckConsistent().ok());
}

TEST(TableTest, AppendRowsBumpsEpochOncePerBatch) {
  Table t(TestSchema());
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back({Value::String("e" + std::to_string(i)),
                     Value::String("x"), Value::Int64(i)});
  }
  const uint64_t before = t.epoch();
  ASSERT_TRUE(t.AppendRows(batch).ok());
  const uint64_t after_batch = t.epoch();
  EXPECT_NE(after_batch, before);
  EXPECT_EQ(t.num_rows(), 8u);

  // Regression: a batch is ONE epoch bump, not one per row. Epoch
  // values are process-unique and drawn from a shared counter, so
  // appending the same rows one at a time must consume exactly 8
  // draws where the batch consumed 1.
  Table row_at_a_time(TestSchema());
  const uint64_t row_before = row_at_a_time.epoch();
  for (const auto& row : batch) {
    ASSERT_TRUE(row_at_a_time.AppendRow(row).ok());
  }
  EXPECT_EQ(row_at_a_time.epoch() - row_before, 8u);
  EXPECT_EQ(after_batch - before, 1u);
}

TEST(TableTest, AppendRowsRejectsBadBatchAtomically) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("e1"), Value::String("x"),
                           Value::Int64(1)})
                  .ok());
  const uint64_t before = t.epoch();
  std::vector<std::vector<Value>> batch = {
      {Value::String("e2"), Value::String("y"), Value::Int64(2)},
      {Value::String("e3"), Value::String("z"), Value::String("oops")},
  };
  EXPECT_TRUE(t.AppendRows(batch).IsTypeError());
  // All-or-nothing: no rows landed, the epoch did not move.
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.epoch(), before);
  EXPECT_TRUE(t.CheckConsistent().ok());
}

TEST(TableTest, DeepCopyClonesDictionariesAndKeepsEpoch) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::String("x"),
                           Value::Int64(1)})
                  .ok());
  Table copy = t.DeepCopy();
  EXPECT_EQ(copy.epoch(), t.epoch());
  EXPECT_NE(copy.column(0).dict(), t.column(0).dict());
  // Appending a new entity to the copy must not grow the original's
  // dictionary (a plain Table copy would share it).
  ASSERT_TRUE(copy.AppendRow({Value::String("b"), Value::String("y"),
                              Value::Int64(2)})
                  .ok());
  EXPECT_EQ(t.NumEntities(), 1u);
  EXPECT_EQ(copy.NumEntities(), 2u);
  EXPECT_NE(copy.epoch(), t.epoch());
}

// A plain copy shares storage with the original, yet appends to either
// stay invisible to the other: each reads only its own rows, zone maps
// and strings.
TEST(TableTest, PlainCopiesAppendIndependently) {
  Table original(TestSchema());
  ASSERT_TRUE(original
                  .AppendRow({Value::String("a"), Value::String("x"),
                              Value::Int64(1)})
                  .ok());
  Table copy = original;
  EXPECT_EQ(copy.column(2).ints().data(), original.column(2).ints().data());
  EXPECT_EQ(copy.column(0).dict(), original.column(0).dict());
  EXPECT_EQ(copy.epoch(), original.epoch());

  ASSERT_TRUE(copy.AppendRow({Value::String("b"), Value::String("y"),
                              Value::Int64(20)})
                  .ok());
  ASSERT_TRUE(original
                  .AppendRow({Value::String("c"), Value::String("z"),
                              Value::Int64(-30)})
                  .ok());
  ASSERT_TRUE(original
                  .AppendRow({Value::String("a"), Value::String("x"),
                              Value::Int64(4)})
                  .ok());
  // The copy appended in place; the original found its slot taken and
  // forked.
  EXPECT_NE(copy.column(2).ints().data(), original.column(2).ints().data());
  EXPECT_NE(copy.epoch(), original.epoch());

  ASSERT_EQ(copy.num_rows(), 2u);
  EXPECT_EQ(copy.GetValue(1, 0), Value::String("b"));
  EXPECT_EQ(copy.GetValue(1, 2), Value::Int64(20));
  ASSERT_EQ(original.num_rows(), 3u);
  EXPECT_EQ(original.GetValue(1, 0), Value::String("c"));
  EXPECT_EQ(original.GetValue(1, 1), Value::String("z"));
  EXPECT_EQ(original.GetValue(1, 2), Value::Int64(-30));
  EXPECT_EQ(original.GetValue(2, 2), Value::Int64(4));

  // Neither dictionary sees the other's strings.
  for (int c : {0, 1}) {
    const StringDictionary& mine = *copy.column(c).dict();
    const StringDictionary& theirs = *original.column(c).dict();
    EXPECT_NE(&mine, &theirs);
    EXPECT_EQ(mine.size(), 2u);
    EXPECT_EQ(theirs.size(), 2u);
  }
  EXPECT_EQ(copy.column(0).dict()->Lookup("c"), StringDictionary::kInvalidCode);
  EXPECT_EQ(original.column(0).dict()->Lookup("b"),
            StringDictionary::kInvalidCode);
  EXPECT_EQ(copy.NumEntities(), 2u);
  EXPECT_EQ(original.NumEntities(), 2u);

  // Each keeps its own zone maps.
  EXPECT_EQ(copy.chunk(0).zones[2].int_min, 1);
  EXPECT_EQ(copy.chunk(0).zones[2].int_max, 20);
  EXPECT_EQ(original.chunk(0).zones[2].int_min, -30);
  EXPECT_EQ(original.chunk(0).zones[2].int_max, 4);
}

// One thread scans a pinned version over and over while another keeps
// appending batches into the buffers that version shares: no append
// may change a row or string the pinned version reads (and under
// ThreadSanitizer no access may race).
TEST(TableTest, PinnedVersionScansWhileACopyAppendsInPlace) {
  // 6,000 rows appended one by one fill 6,000 of a 10,238-element
  // buffer, which takes every batch below.
  constexpr int kBaseRows = 6000;
  constexpr int kBatches = 1000;
  constexpr int kBatchRows = 4;
  auto entity = [](int i) { return "e" + std::to_string(i % 60); };
  Table base(TestSchema());
  for (int i = 0; i < kBaseRows; ++i) {
    ASSERT_TRUE(base.AppendRow({Value::String(entity(i % 50)),
                                Value::String(i % 2 == 0 ? "even" : "odd"),
                                Value::Int64(i)})
                    .ok());
  }
  const Table pinned = base;
  int64_t want_sum = 0;
  for (int i = 0; i < kBaseRows; ++i) want_sum += i;

  // atomic: the scan loop's stop flag; the scans read no state the
  // flag orders.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int scans = 0;
    while (scans < 2 || !done.load()) {
      int64_t sum = 0;
      for (int64_t v : pinned.column(2).ints()) sum += v;
      int evens = 0;
      for (RowId r = 0; r < pinned.num_rows(); ++r) {
        evens += pinned.column(1).StringAt(r) == "even" ? 1 : 0;
      }
      EXPECT_EQ(pinned.num_rows(), static_cast<size_t>(kBaseRows));
      EXPECT_EQ(sum, want_sum);
      EXPECT_EQ(evens, kBaseRows / 2);
      EXPECT_EQ(pinned.column(1).dict()->size(), 2u);
      EXPECT_EQ(pinned.NumEntities(), 50u);
      ++scans;
    }
  });

  Table writer = base;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<Value>> rows;
    for (int j = 0; j < kBatchRows; ++j) {
      const int i = kBaseRows + b * kBatchRows + j;
      rows.push_back({Value::String(entity(i)),
                      Value::String(j == 0 ? "new" + std::to_string(b)
                                           : "even"),
                      Value::Int64(i)});
    }
    ASSERT_TRUE(writer.AppendRows(rows).ok());
  }
  done.store(true);
  reader.join();

  // The writer shares the base rows' buffers still: all its appends
  // landed in place.
  EXPECT_EQ(writer.column(2).ints().data(), pinned.column(2).ints().data());
  EXPECT_EQ(writer.column(0).codes().data(), pinned.column(0).codes().data());
  ASSERT_EQ(writer.num_rows(),
            static_cast<size_t>(kBaseRows + kBatches * kBatchRows));
  for (RowId r = 0; r < writer.num_rows(); ++r) {
    ASSERT_EQ(writer.column(2).Int64At(r), static_cast<int64_t>(r));
  }
  EXPECT_EQ(writer.NumEntities(), 60u);
  EXPECT_EQ(writer.column(1).dict()->size(), 2u + kBatches);
}

TEST(TableTest, EntityHelpers) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::String("x"),
                           Value::Int64(1)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::String("b"), Value::String("x"),
                           Value::Int64(2)})
                  .ok());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::String("y"),
                           Value::Int64(3)})
                  .ok());
  EXPECT_EQ(t.NumEntities(), 2u);
  EXPECT_EQ(t.EntityCodeAt(0), t.EntityCodeAt(2));
  EXPECT_NE(t.EntityCodeAt(0), t.EntityCodeAt(1));
}

TEST(TableTest, GatherProducesConsistentSlice) {
  Table t(TestSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(i % 3)),
                             Value::String(i % 2 ? "odd" : "even"),
                             Value::Int64(i)})
                    .ok());
  }
  Table slice = t.Gather({1, 4, 7});
  EXPECT_EQ(slice.num_rows(), 3u);
  EXPECT_EQ(slice.GetValue(0, 2), Value::Int64(1));
  EXPECT_EQ(slice.GetValue(2, 2), Value::Int64(7));
  // Shared dictionary: codes agree with the base table.
  EXPECT_EQ(slice.EntityCodeAt(0), t.EntityCodeAt(1));
}

TEST(TableTest, CheckConsistentDetectsRaggedColumns) {
  Table t(TestSchema());
  t.mutable_column(0)->AppendString("a");
  // Columns 1 and 2 left empty -> inconsistent.
  EXPECT_TRUE(t.CheckConsistent().IsInternal());
}

TEST(TableTest, ToStringRendersHeaderAndRows) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRow({Value::String("e1"), Value::String("x"),
                           Value::Int64(10)})
                  .ok());
  std::string s = t.ToString();
  EXPECT_NE(s.find("dim"), std::string::npos);
  EXPECT_NE(s.find("e1"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
}

TEST(TableTest, MemoryUsageGrowsWithData) {
  Table t(TestSchema());
  size_t before = t.MemoryUsage();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("e" + std::to_string(i)),
                             Value::String("x"), Value::Int64(i)})
                    .ok());
  }
  EXPECT_GT(t.MemoryUsage(), before);
}

}  // namespace
}  // namespace paleo
