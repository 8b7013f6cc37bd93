// Tests for the EntityIndex built over the entity column.

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "datagen/traffic_gen.h"
#include "index/entity_index.h"

namespace paleo {
namespace {

std::vector<RowId> Rows(std::span<const RowId> rows) {
  return {rows.begin(), rows.end()};
}

Table SmallTable() {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  const char* entities[] = {"b", "a", "b", "c", "a", "b"};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::String(entities[i]),
                             Value::Int64(static_cast<int64_t>(i))})
                    .ok());
  }
  return t;
}

TEST(EntityIndexTest, LookupReturnsAscendingRowIds) {
  Table t = SmallTable();
  EntityIndex index = EntityIndex::Build(t);
  EXPECT_EQ(index.num_entities(), 3u);
  EXPECT_EQ(Rows(index.Lookup("b")), (std::vector<RowId>{0, 2, 5}));
  EXPECT_EQ(Rows(index.Lookup("a")), (std::vector<RowId>{1, 4}));
  EXPECT_EQ(Rows(index.Lookup("c")), (std::vector<RowId>{3}));
}

TEST(EntityIndexTest, LookupMissingIsEmpty) {
  Table t = SmallTable();
  EntityIndex index = EntityIndex::Build(t);
  EXPECT_TRUE(index.Lookup("zzz").empty());
}

TEST(EntityIndexTest, LookupAllMergesAndReportsMissing) {
  Table t = SmallTable();
  EntityIndex index = EntityIndex::Build(t);
  std::vector<std::string> missing;
  std::vector<RowId> rows = index.LookupAll({"a", "c", "nope"}, &missing);
  EXPECT_EQ(rows, (std::vector<RowId>{1, 3, 4}));
  EXPECT_EQ(missing, (std::vector<std::string>{"nope"}));
}

TEST(EntityIndexTest, PostingStatistics) {
  Table t = SmallTable();
  EntityIndex index = EntityIndex::Build(t);
  EXPECT_EQ(index.MaxPostingLength(), 3u);
  EXPECT_DOUBLE_EQ(index.AvgPostingLength(), 2.0);
}

TEST(EntityIndexTest, CoversEveryRowOfALargerRelation) {
  TrafficGenOptions options;
  options.num_customers = 300;
  options.months_per_customer = 6;
  auto table = TrafficGen::Generate(options);
  ASSERT_TRUE(table.ok());
  EntityIndex index = EntityIndex::Build(*table);

  // Every row is reachable via its entity's posting list.
  const Column& entities = table->entity_column();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    const std::string& name = entities.StringAt(static_cast<RowId>(r));
    const std::span<const RowId> posting = index.Lookup(name);
    EXPECT_TRUE(std::binary_search(posting.begin(), posting.end(),
                                   static_cast<RowId>(r)));
  }
  EXPECT_EQ(index.num_entities(), table->NumEntities());
}

// A gathered table shares its base's dictionary, which names entities
// the slice has no rows of: they count nowhere and read as missing.
TEST(EntityIndexTest, GatheredTableCountsOnlyEntitiesWithRows) {
  Table t = SmallTable();
  Table slice = t.Gather({0, 2, 3});  // b, b, c; "a" has no row
  ASSERT_EQ(slice.entity_column().dict(), t.entity_column().dict());
  EntityIndex index = EntityIndex::Build(slice);
  EXPECT_EQ(index.num_entities(), 2u);
  EXPECT_EQ(index.MaxPostingLength(), 2u);
  EXPECT_DOUBLE_EQ(index.AvgPostingLength(), 1.5);
  EXPECT_TRUE(index.Lookup("a").empty());
  std::vector<std::string> missing;
  EXPECT_EQ(index.LookupAll({"a", "c", "b"}, &missing),
            (std::vector<RowId>{0, 1, 2}));
  EXPECT_EQ(missing, (std::vector<std::string>{"a"}));
}

// The index resolves names through the table's own dictionary, so a
// name registered by a later append has a code past the postings.
TEST(EntityIndexTest, NameAppendedAfterBuildIsAbsent) {
  Table t = SmallTable();
  EntityIndex index = EntityIndex::Build(t);
  ASSERT_TRUE(t.AppendRow({Value::String("d"), Value::Int64(6)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("a"), Value::Int64(7)}).ok());
  EXPECT_TRUE(index.Lookup("d").empty());
  EXPECT_EQ(Rows(index.Lookup("a")), (std::vector<RowId>{1, 4}));
  std::vector<std::string> missing;
  EXPECT_EQ(index.LookupAll({"d", "c"}, &missing), (std::vector<RowId>{3}));
  EXPECT_EQ(missing, (std::vector<std::string>{"d"}));
  EXPECT_EQ(index.num_entities(), 3u);
}

TEST(EntityIndexTest, BuildIncrementalWithNewEntitiesEqualsBuild) {
  Table base = SmallTable();
  EntityIndex prev = EntityIndex::Build(base);
  Table grown = base.DeepCopy();
  const char* added[] = {"d", "a", "e", "d", "b"};
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(grown.AppendRow({Value::String(added[i]),
                                 Value::Int64(static_cast<int64_t>(i))})
                    .ok());
  }
  EntityIndex extended =
      EntityIndex::BuildIncremental(prev, grown, base.num_rows());
  EntityIndex full = EntityIndex::Build(grown);
  const StringDictionary& dict = *grown.entity_column().dict();
  ASSERT_EQ(dict.size(), 5u);
  for (uint32_t code = 0; code < dict.size(); ++code) {
    EXPECT_EQ(Rows(extended.Lookup(dict.Get(code))),
              Rows(full.Lookup(dict.Get(code))))
        << dict.Get(code);
  }
  EXPECT_EQ(Rows(extended.Lookup("d")), (std::vector<RowId>{6, 9}));
  EXPECT_TRUE(extended.Lookup("zzz").empty());
  EXPECT_EQ(extended.num_entities(), full.num_entities());
  EXPECT_EQ(extended.MaxPostingLength(), full.MaxPostingLength());
  EXPECT_DOUBLE_EQ(extended.AvgPostingLength(), full.AvgPostingLength());
  // prev still indexes the base table alone.
  EXPECT_TRUE(prev.Lookup("d").empty());
  EXPECT_EQ(Rows(prev.Lookup("b")), (std::vector<RowId>{0, 2, 5}));
  EXPECT_EQ(prev.num_entities(), 3u);
}

// Readers look up every entity of a pinned index while a writer keeps
// extending indexes built off it, whose postings share its buffers and
// grow in place past the lengths the pinned index reads.
TEST(EntityIndexTest, PinnedIndexReadsWhileIncrementalBuildsAppend) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  ASSERT_TRUE(schema.ok());
  auto name = [](int i) { return "e" + std::to_string(i); };
  Table table(*schema);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        table.AppendRow({Value::String(name(i % 40)), Value::Int64(i)}).ok());
  }
  const EntityIndex pinned = EntityIndex::Build(table);

  // atomic: the lookup loop's stop flag; the lookups read no state the
  // flag orders.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int rounds = 0;
    while (rounds < 2 || !done.load()) {
      for (int e = 0; e < 40; ++e) {
        const std::span<const RowId> rows = pinned.Lookup(name(e));
        ASSERT_EQ(rows.size(), 50u);
        for (size_t j = 0; j < rows.size(); ++j) {
          ASSERT_EQ(rows[j], static_cast<RowId>(e + 40 * j));
        }
      }
      EXPECT_TRUE(pinned.Lookup(name(40)).empty());
      ++rounds;
    }
  });

  EntityIndex current = pinned;
  Table grown = table;
  for (int b = 0; b < 300; ++b) {
    const size_t old_rows = grown.num_rows();
    for (int j = 0; j < 4; ++j) {
      // Mostly the pinned entities; a new one every tenth batch.
      const int e = j == 0 && b % 10 == 0 ? 40 + b / 10 : (b * 4 + j) % 40;
      ASSERT_TRUE(grown
                      .AppendRow({Value::String(name(e)),
                                  Value::Int64(static_cast<int64_t>(b))})
                      .ok());
    }
    current = EntityIndex::BuildIncremental(current, grown, old_rows);
  }
  done.store(true);
  reader.join();

  const EntityIndex full = EntityIndex::Build(grown);
  for (int e = 0; e < 70; ++e) {
    EXPECT_EQ(Rows(current.Lookup(name(e))), Rows(full.Lookup(name(e))))
        << name(e);
  }
  EXPECT_EQ(current.num_entities(), 70u);
}

TEST(EntityIndexTest, EmptyTable) {
  auto schema = Schema::Make({
      {"e", DataType::kString, FieldRole::kEntity},
      {"v", DataType::kInt64, FieldRole::kMeasure},
  });
  Table t(*schema);
  EntityIndex index = EntityIndex::Build(t);
  EXPECT_EQ(index.num_entities(), 0u);
  EXPECT_EQ(index.AvgPostingLength(), 0.0);
  EXPECT_TRUE(index.Lookup("x").empty());
}

}  // namespace
}  // namespace paleo
