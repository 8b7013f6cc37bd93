// Tests for TopKList comparison semantics.

#include <gtest/gtest.h>

#include <limits>

#include "engine/topk_list.h"

namespace paleo {
namespace {

TopKList MakeList(std::initializer_list<TopKEntry> entries) {
  return TopKList(std::vector<TopKEntry>(entries));
}

TEST(ValuesCloseTest, RelativeTolerance) {
  EXPECT_TRUE(ValuesClose(100.0, 100.0));
  EXPECT_TRUE(ValuesClose(100.0, 100.0 + 1e-8, 1e-9));
  EXPECT_FALSE(ValuesClose(100.0, 100.1, 1e-9));
  EXPECT_TRUE(ValuesClose(0.0, 1e-12));
  EXPECT_FALSE(ValuesClose(0.0, 0.1));
}

// A non-finite value is close only to its own kind: a tolerance
// scaled by an infinite operand is infinite, and would tie +-inf with
// every number. Any NaN is close to any NaN, as the executor ranks an
// all-NaN group's NaN like a value.
TEST(ValuesCloseTest, NonFiniteIsCloseOnlyToItself) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(ValuesClose(kInf, kInf));
  EXPECT_TRUE(ValuesClose(-kInf, -kInf));
  EXPECT_FALSE(ValuesClose(kInf, 5.0));
  EXPECT_FALSE(ValuesClose(5.0, kInf));
  EXPECT_FALSE(ValuesClose(-kInf, 5.0));
  EXPECT_FALSE(ValuesClose(-kInf, kInf));
  EXPECT_FALSE(ValuesClose(kInf, std::numeric_limits<double>::max()));
  EXPECT_FALSE(ValuesClose(kInf, 5.0, /*rel_eps=*/0.5));
  EXPECT_TRUE(ValuesClose(kNaN, kNaN));
  EXPECT_TRUE(ValuesClose(kNaN, -kNaN));
  EXPECT_FALSE(ValuesClose(kNaN, 5.0));
  EXPECT_FALSE(ValuesClose(5.0, kNaN));
  EXPECT_FALSE(ValuesClose(kNaN, kInf));
  EXPECT_FALSE(ValuesClose(kNaN, 5.0, /*rel_eps=*/0.5));
}

// The list a max query gives when one group's rows are all NaN: it
// must match itself, or no query could ever reproduce it.
TEST(TopKListTest, ListHoldingNanInstanceEqualsItself) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const TopKList list =
      MakeList({{"B", 5.0}, {"D", 4.0}, {"C", 3.0}, {"A", kNaN}});
  EXPECT_TRUE(list.InstanceEquals(list));
  EXPECT_TRUE(MakeList({{"A", kNaN}}).InstanceEquals(MakeList({{"A", -kNaN}})));
  // NaN still differs from every number, and ties only with NaN.
  EXPECT_FALSE(list.InstanceEquals(
      MakeList({{"B", 5.0}, {"D", 4.0}, {"C", 3.0}, {"A", 2.0}})));
  EXPECT_FALSE(MakeList({{"A", kNaN}, {"B", kNaN}})
                   .InstanceEquals(MakeList({{"A", kNaN}, {"C", kNaN}})));
  EXPECT_TRUE(MakeList({{"A", kNaN}, {"B", kNaN}})
                  .InstanceEquals(MakeList({{"B", kNaN}, {"A", kNaN}})));
}

TEST(TopKListTest, InstanceEqualsTellsInfinityFromNumbers) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(MakeList({{"A", kInf}}).InstanceEquals(MakeList({{"A", 5.0}})));
  EXPECT_TRUE(MakeList({{"A", kInf}}).InstanceEquals(MakeList({{"A", kInf}})));
  // A tied run through +inf: before, [A +inf, B 100] tied with
  // [A 5, B 5] because +inf was close to both 5 and 100.
  EXPECT_FALSE(MakeList({{"A", kInf}, {"B", 100.0}})
                   .InstanceEquals(MakeList({{"A", 5.0}, {"B", 5.0}})));
  EXPECT_FALSE(MakeList({{"A", kInf}, {"B", -kInf}})
                   .InstanceEquals(MakeList({{"B", kInf}, {"A", kInf}})));
}

TEST(TopKListTest, BasicAccessors) {
  TopKList l = MakeList({{"a", 3.0}, {"b", 2.0}, {"a", 1.0}});
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.Entities(), (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(l.DistinctEntities(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(l.Values(), (std::vector<double>{3.0, 2.0, 1.0}));
}

TEST(TopKListTest, InstanceEqualsExactMatch) {
  TopKList a = MakeList({{"x", 5.0}, {"y", 4.0}});
  TopKList b = MakeList({{"x", 5.0}, {"y", 4.0}});
  EXPECT_TRUE(a.InstanceEquals(b));
}

TEST(TopKListTest, InstanceEqualsRejectsDifferentLength) {
  TopKList a = MakeList({{"x", 5.0}});
  TopKList b = MakeList({{"x", 5.0}, {"y", 4.0}});
  EXPECT_FALSE(a.InstanceEquals(b));
}

TEST(TopKListTest, InstanceEqualsRejectsDifferentOrder) {
  TopKList a = MakeList({{"x", 5.0}, {"y", 4.0}});
  TopKList b = MakeList({{"y", 4.0}, {"x", 5.0}});
  EXPECT_FALSE(a.InstanceEquals(b));
}

TEST(TopKListTest, InstanceEqualsRejectsDifferentValues) {
  TopKList a = MakeList({{"x", 5.0}, {"y", 4.0}});
  TopKList b = MakeList({{"x", 5.0}, {"y", 4.5}});
  EXPECT_FALSE(a.InstanceEquals(b));
}

TEST(TopKListTest, InstanceEqualsAllowsTiePermutation) {
  // x and y are tied at 5.0 — their relative order is not significant.
  TopKList a = MakeList({{"x", 5.0}, {"y", 5.0}, {"z", 3.0}});
  TopKList b = MakeList({{"y", 5.0}, {"x", 5.0}, {"z", 3.0}});
  EXPECT_TRUE(a.InstanceEquals(b));
}

TEST(TopKListTest, InstanceEqualsRejectsWrongEntityInTieGroup) {
  TopKList a = MakeList({{"x", 5.0}, {"y", 5.0}});
  TopKList b = MakeList({{"x", 5.0}, {"q", 5.0}});
  EXPECT_FALSE(a.InstanceEquals(b));
}

TEST(TopKListTest, InstanceEqualsValueTolerance) {
  TopKList a = MakeList({{"x", 1000.0}});
  TopKList b = MakeList({{"x", 1000.0 * (1 + 1e-12)}});
  EXPECT_TRUE(a.InstanceEquals(b, 1e-9));
  EXPECT_FALSE(a.InstanceEquals(b, 1e-15));
}

TEST(TopKListTest, EmptyListsAreEqual) {
  EXPECT_TRUE(TopKList().InstanceEquals(TopKList()));
}

TEST(TopKListTest, EntityJaccard) {
  TopKList a = MakeList({{"x", 1}, {"y", 2}, {"z", 3}});
  TopKList b = MakeList({{"y", 9}, {"z", 8}, {"w", 7}});
  EXPECT_DOUBLE_EQ(a.EntityJaccard(b), 0.5);  // {y,z} / {x,y,z,w}
  EXPECT_DOUBLE_EQ(a.EntityJaccard(a), 1.0);
  EXPECT_DOUBLE_EQ(TopKList().EntityJaccard(TopKList()), 1.0);
  EXPECT_DOUBLE_EQ(a.EntityJaccard(TopKList()), 0.0);
}

TEST(TopKListTest, ValueJaccard) {
  TopKList a = MakeList({{"x", 1.0}, {"y", 2.0}});
  TopKList b = MakeList({{"p", 2.0}, {"q", 3.0}});
  EXPECT_DOUBLE_EQ(a.ValueJaccard(b), 1.0 / 3.0);  // shared {2.0}
  EXPECT_DOUBLE_EQ(a.ValueJaccard(a), 1.0);
}

TEST(TopKListCsvTest, ParsesPlainRows) {
  auto list = TopKList::FromCsv("Lara Ellis,784\nJane O'Neal,699\n");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ(list->entry(0), TopKEntry("Lara Ellis", 784));
  EXPECT_EQ(list->entry(1), TopKEntry("Jane O'Neal", 699));
}

TEST(TopKListCsvTest, SkipsHeaderAndBlankLines) {
  auto list = TopKList::FromCsv("\nname,total traffic\n\na,1.5\nb,2\n");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ(list->entry(0), TopKEntry("a", 1.5));
}

TEST(TopKListCsvTest, CustomSeparatorAndEmbeddedSeparators) {
  // Entities may contain the separator; the value is the LAST field.
  auto list = TopKList::FromCsv("Smith, John\t42\n", '\t');
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->entry(0), TopKEntry("Smith, John", 42));
  auto embedded = TopKList::FromCsv("a,b,3\n");
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(embedded->entry(0), TopKEntry("a,b", 3));
}

TEST(TopKListCsvTest, RejectsMalformedRows) {
  EXPECT_TRUE(TopKList::FromCsv("justone\n").status().IsInvalidArgument());
  EXPECT_TRUE(
      TopKList::FromCsv("a,1\nb,notanumber\n").status().IsInvalidArgument());
  EXPECT_TRUE(TopKList::FromCsv(",5\n").status().IsInvalidArgument());
}

TEST(TopKListCsvTest, EmptyInputYieldsEmptyList) {
  auto list = TopKList::FromCsv("");
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->empty());
}

TEST(TopKListCsvTest, RoundTrip) {
  TopKList original = MakeList({{"x", 5.5}, {"y", 4.0}, {"z", -1.25}});
  auto parsed = TopKList::FromCsv(original.ToCsv());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, original);
  // Tab-separated round trip too.
  auto tsv = TopKList::FromCsv(original.ToCsv('\t'), '\t');
  ASSERT_TRUE(tsv.ok());
  EXPECT_EQ(*tsv, original);
}

TEST(TopKListTest, ToStringShowsRanks) {
  TopKList l = MakeList({{"Lara Ellis", 784}, {"Jane O'Neal", 699}});
  std::string s = l.ToString();
  EXPECT_NE(s.find("1. Lara Ellis"), std::string::npos);
  EXPECT_NE(s.find("784"), std::string::npos);
  EXPECT_NE(s.find("2. Jane O'Neal"), std::string::npos);
}

}  // namespace
}  // namespace paleo
