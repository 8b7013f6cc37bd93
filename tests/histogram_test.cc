// Tests for the equi-width histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/random.h"
#include "stats/histogram.h"

namespace paleo {
namespace {

TEST(HistogramTest, EmptyColumn) {
  Histogram h = Histogram::BuildFromValues({}, 10);
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.num_cells(), 0);
  Rng rng(1);
  EXPECT_TRUE(h.Sample(&rng, 5).empty());
  EXPECT_TRUE(h.TopValues(5).empty());
}

TEST(HistogramTest, SingleValueDegenerates) {
  Histogram h = Histogram::BuildFromValues({7.0, 7.0, 7.0}, 10);
  EXPECT_EQ(h.total_count(), 3);
  EXPECT_EQ(h.min(), 7.0);
  EXPECT_EQ(h.max(), 7.0);
  // All mass in the first cell.
  EXPECT_EQ(h.cell_count(0), 3);
  Rng rng(1);
  for (double v : h.Sample(&rng, 20)) {
    EXPECT_GE(v, 7.0);
    EXPECT_LE(v, 8.0);  // one unit-width cell
  }
}

TEST(HistogramTest, CountsPreserveTotalMass) {
  std::vector<double> values;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) values.push_back(rng.UniformDouble(0, 100));
  Histogram h = Histogram::BuildFromValues(values, 1000);
  int64_t total = 0;
  for (int c = 0; c < h.num_cells(); ++c) total += h.cell_count(c);
  EXPECT_EQ(total, 10000);
  EXPECT_EQ(h.total_count(), 10000);
}

TEST(HistogramTest, CellForClampsAndRoutes) {
  Histogram h = Histogram::BuildFromValues({0.0, 10.0}, 10);
  EXPECT_EQ(h.CellFor(-5.0), 0);
  EXPECT_EQ(h.CellFor(0.0), 0);
  EXPECT_EQ(h.CellFor(10.0), 9);
  EXPECT_EQ(h.CellFor(99.0), 9);
  EXPECT_EQ(h.CellFor(4.9), 4);
}

TEST(HistogramTest, SampleFollowsDistribution) {
  // 90% of mass near 0, 10% near 100.
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) values.push_back(1.0);
  for (int i = 0; i < 100; ++i) values.push_back(99.0);
  Histogram h = Histogram::BuildFromValues(values, 100);
  Rng rng(7);
  std::vector<double> sample = h.Sample(&rng, 5000);
  int low = 0;
  for (double v : sample) low += (v < 50.0);
  EXPECT_NEAR(static_cast<double>(low) / 5000.0, 0.9, 0.03);
}

TEST(HistogramTest, SampleIsDeterministicGivenSeed) {
  Histogram h = Histogram::BuildFromValues({1, 2, 3, 4, 5}, 5);
  Rng a(42), b(42);
  EXPECT_EQ(h.Sample(&a, 10), h.Sample(&b, 10));
}

TEST(HistogramTest, TopValuesWalksFromTheTop) {
  std::vector<double> values = {1, 1, 1, 50, 100};
  Histogram h = Histogram::BuildFromValues(values, 10);
  std::vector<double> top = h.TopValues(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_GT(top[0], 90.0);   // from the highest cell
  EXPECT_GT(top[1], 40.0);   // from the middle cell
  EXPECT_GE(top[0], top[1]);
}

TEST(HistogramTest, BuildFromColumnMatchesBuildFromValues) {
  Column col(DataType::kInt64);
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformInt(0, 1000);
    col.AppendInt64(v);
    values.push_back(static_cast<double>(v));
  }
  Histogram from_col = Histogram::Build(col, 50);
  Histogram from_vals = Histogram::BuildFromValues(values, 50);
  ASSERT_EQ(from_col.num_cells(), from_vals.num_cells());
  for (int c = 0; c < from_col.num_cells(); ++c) {
    EXPECT_EQ(from_col.cell_count(c), from_vals.cell_count(c)) << c;
  }
}

TEST(HistogramTest, NegativeRanges) {
  Histogram h = Histogram::BuildFromValues({-100, -50, 0, 50, 100}, 4);
  EXPECT_EQ(h.min(), -100.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.total_count(), 5);
  EXPECT_EQ(h.CellFor(-100), 0);
  EXPECT_EQ(h.CellFor(100), 3);
}

// NaN is not binned: the range spans the numbers, however the NaN
// rows are placed, and Extend keeps Build's counts.
TEST(HistogramTest, NanIsNotBinned) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {nan};
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  Histogram h = Histogram::BuildFromValues(values, 10);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.total_count(), 100);
  int64_t binned = 0;
  for (int c = 0; c < h.num_cells(); ++c) binned += h.cell_count(c);
  EXPECT_EQ(binned, 100);

  // The same rows, folded in through Extend with NaN in both parts.
  Histogram grown = Histogram::BuildFromValues({nan, 1.0, 100.0}, 10);
  std::vector<double> rest = {nan};
  for (int i = 2; i <= 99; ++i) rest.push_back(i);
  rest.push_back(nan);
  ASSERT_TRUE(grown.Extend(rest));
  EXPECT_EQ(grown.min(), 1.0);
  EXPECT_EQ(grown.max(), 100.0);
  EXPECT_EQ(grown.total_count(), 100);
  for (int c = 0; c < h.num_cells(); ++c) {
    EXPECT_EQ(grown.cell_count(c), h.cell_count(c)) << c;
  }

  // No number at all: an empty histogram, as for no rows.
  Histogram none = Histogram::BuildFromValues({nan, nan}, 10);
  EXPECT_EQ(none.total_count(), 0);
  EXPECT_EQ(none.num_cells(), 0);
}

// An infinite range makes a cell offset inf / inf; it lands in a cell
// instead of reaching an int cast.
TEST(HistogramTest, InfiniteRangeRoutesEveryValue) {
  const double inf = std::numeric_limits<double>::infinity();
  Histogram h = Histogram::BuildFromValues({-inf, 0.0, 5.0, inf}, 10);
  EXPECT_EQ(h.total_count(), 4);
  EXPECT_EQ(h.CellFor(-inf), 0);
  EXPECT_EQ(h.CellFor(3.0), 0);
  EXPECT_EQ(h.CellFor(inf), 9);
  EXPECT_EQ(h.CellFor(std::numeric_limits<double>::quiet_NaN()), 0);
}

}  // namespace
}  // namespace paleo
