// Unit and property tests for the tuple-set primitives: sorted
// intersection (merge and galloping paths), entity coverage counting,
// and hashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "index/dimension_index.h"
#include "paleo/tuple_set.h"

namespace paleo {
namespace {

TEST(IntersectSortedTest, BasicCases) {
  EXPECT_EQ(IntersectSorted({}, {}), TupleSet{});
  EXPECT_EQ(IntersectSorted(TupleSet{1, 2, 3}, {}), TupleSet{});
  EXPECT_EQ(IntersectSorted({}, TupleSet{1, 2, 3}), TupleSet{});
  EXPECT_EQ(IntersectSorted(TupleSet{1, 2, 3}, TupleSet{2, 3, 4}),
            (TupleSet{2, 3}));
  EXPECT_EQ(IntersectSorted(TupleSet{1, 3, 5}, TupleSet{2, 4, 6}), TupleSet{});
  EXPECT_EQ(IntersectSorted(TupleSet{7}, TupleSet{7}), TupleSet{7});
}

TEST(IntersectSortedTest, IdenticalSets) {
  TupleSet s = {0, 5, 9, 100, 1000};
  EXPECT_EQ(IntersectSorted(s, s), s);
}

TEST(IntersectSortedTest, GallopingPathMatchesMerge) {
  // Strongly skewed sizes route through the galloping implementation;
  // cross-check against a std::set_intersection oracle.
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    TupleSet small, large;
    std::set<RowId> small_set, large_set;
    uint32_t universe = 100000;
    for (int i = 0; i < 25; ++i) {
      small_set.insert(static_cast<RowId>(rng.Uniform(universe)));
    }
    for (int i = 0; i < 5000; ++i) {
      large_set.insert(static_cast<RowId>(rng.Uniform(universe)));
    }
    // Force some overlap.
    int j = 0;
    for (RowId v : small_set) {
      if (++j % 3 == 0) large_set.insert(v);
    }
    small.assign(small_set.begin(), small_set.end());
    large.assign(large_set.begin(), large_set.end());

    TupleSet expected;
    std::set_intersection(small.begin(), small.end(), large.begin(),
                          large.end(), std::back_inserter(expected));
    EXPECT_EQ(IntersectSorted(small, large), expected) << "trial " << trial;
    EXPECT_EQ(IntersectSorted(large, small), expected) << "trial " << trial;
  }
}

TEST(IntersectSortedTest, BalancedSizesMatchOracle) {
  Rng rng(34);
  for (int trial = 0; trial < 20; ++trial) {
    std::set<RowId> a_set, b_set;
    for (int i = 0; i < 300; ++i) {
      a_set.insert(static_cast<RowId>(rng.Uniform(1000)));
      b_set.insert(static_cast<RowId>(rng.Uniform(1000)));
    }
    TupleSet a(a_set.begin(), a_set.end());
    TupleSet b(b_set.begin(), b_set.end());
    TupleSet expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(IntersectSorted(a, b), expected);
  }
}

TEST(CountCoveredEntitiesTest, CountsDistinctEntities) {
  // rows 0..5 belong to entities 0,0,1,2,2,2.
  std::vector<uint32_t> row_entity = {0, 0, 1, 2, 2, 2};
  std::vector<uint64_t> scratch;
  EXPECT_EQ(CountCoveredEntities({}, row_entity, 3, &scratch), 0);
  EXPECT_EQ(CountCoveredEntities({0, 1}, row_entity, 3, &scratch), 1);
  EXPECT_EQ(CountCoveredEntities({0, 2}, row_entity, 3, &scratch), 2);
  EXPECT_EQ(CountCoveredEntities({0, 2, 3, 4, 5}, row_entity, 3, &scratch),
            3);
}

TEST(CountCoveredEntitiesTest, ManyEntitiesAcrossWords) {
  // > 64 entities exercises the multi-word bitmap.
  const int m = 150;
  std::vector<uint32_t> row_entity;
  TupleSet all;
  for (int e = 0; e < m; ++e) {
    row_entity.push_back(static_cast<uint32_t>(e));
    all.push_back(static_cast<RowId>(e));
  }
  std::vector<uint64_t> scratch;
  EXPECT_EQ(CountCoveredEntities(all, row_entity, m, &scratch), m);
  TupleSet evens;
  for (int e = 0; e < m; e += 2) evens.push_back(static_cast<RowId>(e));
  EXPECT_EQ(CountCoveredEntities(evens, row_entity, m, &scratch),
            (m + 1) / 2);
  // Scratch is reused across calls without stale bits.
  EXPECT_EQ(CountCoveredEntities({static_cast<RowId>(3)}, row_entity, m,
                                 &scratch),
            1);
}

TEST(HashTupleSetTest, EqualSetsHashEqual) {
  TupleSet a = {1, 5, 9};
  TupleSet b = {1, 5, 9};
  EXPECT_EQ(HashTupleSet(a), HashTupleSet(b));
}

TEST(HashTupleSetTest, DistinguishesContentAndLength) {
  EXPECT_NE(HashTupleSet({1, 5, 9}), HashTupleSet({1, 5}));
  EXPECT_NE(HashTupleSet({1, 5, 9}), HashTupleSet({1, 5, 10}));
  EXPECT_NE(HashTupleSet({}), HashTupleSet({0}));
  // Prefix-sensitivity: {0,1} vs {1,0}-as-sorted would be the same set,
  // but order within the (sorted) representation matters to the hash
  // only through content.
  EXPECT_NE(HashTupleSet({0, 1}), HashTupleSet({1, 2}));
}

TEST(HashTupleSetTest, LowCollisionRateOnRandomSets) {
  Rng rng(35);
  std::set<uint64_t> hashes;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    TupleSet s;
    int len = 1 + static_cast<int>(rng.Uniform(20));
    std::set<RowId> rows;
    for (int j = 0; j < len; ++j) {
      rows.insert(static_cast<RowId>(rng.Uniform(100000)));
    }
    s.assign(rows.begin(), rows.end());
    hashes.insert(HashTupleSet(s));
  }
  // Essentially no collisions expected over 2000 random sets.
  EXPECT_GT(hashes.size(), static_cast<size_t>(n - 3));
}

}  // namespace
}  // namespace paleo
