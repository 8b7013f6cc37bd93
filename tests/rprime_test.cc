// Tests for R' materialization.

#include <gtest/gtest.h>

#include "datagen/traffic_gen.h"
#include "paleo/rprime.h"

namespace paleo {
namespace {

struct Fixture {
  Table table;
  EntityIndex index;

  static Fixture Make() {
    auto t = TrafficGen::PaperExample();
    EXPECT_TRUE(t.ok());
    Table table = *std::move(t);
    EntityIndex index = EntityIndex::Build(table);
    return Fixture{std::move(table), std::move(index)};
  }
};

TopKList PaperList() {
  TopKList l;
  l.Append("Lara Ellis", 784);
  l.Append("Jane O'Neal", 699);
  l.Append("John Smith", 654);
  l.Append("Richard Fox", 596);
  l.Append("Jack Stiles", 586);
  return l;
}

TEST(RPrimeTest, GathersAllTuplesOfInputEntities) {
  Fixture f = Fixture::Make();
  auto rp = RPrime::Build(f.table, f.index, PaperList());
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->num_entities(), 5);
  // Table 1 shows 8 rows for the five California customers.
  EXPECT_EQ(rp->num_rows(), 8u);
  EXPECT_TRUE(rp->missing_entities().empty());

  // Row -> entity mapping is consistent with the slice's entity column.
  for (size_t r = 0; r < rp->num_rows(); ++r) {
    uint32_t e = rp->row_entity()[r];
    EXPECT_EQ(rp->entity_names()[e],
              rp->table().entity_column().StringAt(static_cast<RowId>(r)));
  }
  // Slice shares the base dictionary.
  EXPECT_EQ(rp->table().entity_column().dict(),
            f.table.entity_column().dict());
}

TEST(RPrimeTest, EntityOrderFollowsInputList) {
  Fixture f = Fixture::Make();
  auto rp = RPrime::Build(f.table, f.index, PaperList());
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->entity_names()[0], "Lara Ellis");
  EXPECT_EQ(rp->entity_names()[4], "Jack Stiles");
  EXPECT_EQ(rp->entity_values()[0], 784.0);
  EXPECT_EQ(rp->entity_values()[4], 586.0);
}

TEST(RPrimeTest, CountsSeenAndTotalTuples) {
  Fixture f = Fixture::Make();
  auto rp = RPrime::Build(f.table, f.index, PaperList());
  ASSERT_TRUE(rp.ok());
  // Full R': seen == total for every entity.
  for (int e = 0; e < rp->num_entities(); ++e) {
    EXPECT_EQ(rp->entity_row_counts()[static_cast<size_t>(e)],
              rp->entity_total_counts()[static_cast<size_t>(e)]);
  }
  // John Smith and Jack Stiles have two tuples each.
  EXPECT_EQ(rp->entity_row_counts()[2], 2);
  EXPECT_EQ(rp->entity_row_counts()[4], 2);
  EXPECT_EQ(rp->entity_row_counts()[0], 1);  // Lara Ellis
}

TEST(RPrimeTest, MissingEntitiesAreReported) {
  Fixture f = Fixture::Make();
  TopKList list;
  list.Append("Lara Ellis", 784);
  list.Append("Ghost Person", 123);
  auto rp = RPrime::Build(f.table, f.index, list);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->num_entities(), 2);
  ASSERT_EQ(rp->missing_entities().size(), 1u);
  EXPECT_EQ(rp->missing_entities()[0], "Ghost Person");
  EXPECT_EQ(rp->entity_total_counts()[1], 0);
}

TEST(RPrimeTest, DuplicateEntitiesCollapse) {
  Fixture f = Fixture::Make();
  TopKList list;  // no-aggregation style list with a repeated entity
  list.Append("John Smith", 654);
  list.Append("John Smith", 175);
  list.Append("Lara Ellis", 784);
  auto rp = RPrime::Build(f.table, f.index, list);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->num_entities(), 2);
  EXPECT_EQ(rp->entity_names()[0], "John Smith");
  EXPECT_EQ(rp->entity_values()[0], 654.0);  // first occurrence
}

TEST(RPrimeTest, SampleRestriction) {
  Fixture f = Fixture::Make();
  // Keep only the first tuple of each entity: global rows of the paper
  // rows are 0..7; John Smith rows are 0,1; Jack Stiles rows are 5,6.
  std::vector<RowId> sample = {0, 2, 4, 5, 7};
  auto rp = RPrime::Build(f.table, f.index, PaperList(), &sample);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->num_rows(), 5u);
  for (int e = 0; e < rp->num_entities(); ++e) {
    EXPECT_EQ(rp->entity_row_counts()[static_cast<size_t>(e)], 1);
  }
  // Totals still reflect the full base table.
  EXPECT_EQ(rp->entity_total_counts()[2], 2);  // John Smith
  // Global row mapping points back into the base table.
  for (size_t r = 0; r < rp->num_rows(); ++r) {
    RowId global = rp->GlobalRow(static_cast<RowId>(r));
    EXPECT_TRUE(std::binary_search(sample.begin(), sample.end(), global));
  }
}

TEST(RPrimeTest, EmptyInputIsRejected) {
  Fixture f = Fixture::Make();
  EXPECT_TRUE(RPrime::Build(f.table, f.index, TopKList())
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace paleo
