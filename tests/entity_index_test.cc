// Tests for the EntityIndex built over the entity column.

#include <gtest/gtest.h>

#include "datagen/traffic_gen.h"
#include "index/entity_index.h"

namespace paleo {
namespace {

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
  EXPECT_EQ(index.Lookup("b"), (std::vector<RowId>{0, 2, 5}));
  EXPECT_EQ(index.Lookup("a"), (std::vector<RowId>{1, 4}));
  EXPECT_EQ(index.Lookup("c"), (std::vector<RowId>{3}));
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
    const std::vector<RowId>& posting = index.Lookup(name);
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
  EXPECT_EQ(index.Lookup("a"), (std::vector<RowId>{1, 4}));
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
    EXPECT_EQ(extended.Lookup(dict.Get(code)), full.Lookup(dict.Get(code)))
        << dict.Get(code);
  }
  EXPECT_EQ(extended.Lookup("d"), (std::vector<RowId>{6, 9}));
  EXPECT_TRUE(extended.Lookup("zzz").empty());
  EXPECT_EQ(extended.num_entities(), full.num_entities());
  EXPECT_EQ(extended.MaxPostingLength(), full.MaxPostingLength());
  EXPECT_DOUBLE_EQ(extended.AvgPostingLength(), full.AvgPostingLength());
  // prev still indexes the base table alone.
  EXPECT_TRUE(prev.Lookup("d").empty());
  EXPECT_EQ(prev.Lookup("b"), (std::vector<RowId>{0, 2, 5}));
  EXPECT_EQ(prev.num_entities(), 3u);
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
