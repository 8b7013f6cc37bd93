// Tests for the report explanation renderer.

#include <gtest/gtest.h>

#include "datagen/traffic_gen.h"
#include "paleo/explain.h"

namespace paleo {
namespace {

TopKList PaperList() {
  TopKList l;
  l.Append("Lara Ellis", 784);
  l.Append("Jane O'Neal", 699);
  l.Append("John Smith", 654);
  l.Append("Richard Fox", 596);
  l.Append("Jack Stiles", 586);
  return l;
}

TEST(ExplainTest, RendersFoundReport) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  Paleo paleo(&*table, PaleoOptions{});
  const TopKList input = PaperList();
  auto report = paleo.Run({.input = &input, .keep_candidates = true});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());

  std::string text = ExplainReport(*report, table->schema());
  EXPECT_NE(text.find("Step 1"), std::string::npos);
  EXPECT_NE(text.find("candidate predicates:"), std::string::npos);
  EXPECT_NE(text.find("Step 2"), std::string::npos);
  EXPECT_NE(text.find("Step 3"), std::string::npos);
  EXPECT_NE(text.find("valid quer"), std::string::npos);
  EXPECT_NE(text.find("max(minutes)"), std::string::npos);
  EXPECT_NE(text.find("Top-scored candidates"), std::string::npos);
  EXPECT_NE(text.find("Timings"), std::string::npos);
}

TEST(ExplainTest, RendersNotFoundReportWithoutCandidates) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  TopKList bogus;
  bogus.Append("Lara Ellis", 1.0);
  bogus.Append("Jane O'Neal", 0.5);
  bogus.Append("John Smith", 0.25);
  bogus.Append("Richard Fox", 0.125);
  bogus.Append("Jack Stiles", 0.0625);
  Paleo paleo(&*table, PaleoOptions{});
  auto report = paleo.Run({.input = &bogus});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->found());

  std::string text = ExplainReport(*report, table->schema());
  EXPECT_NE(text.find("no valid query found"), std::string::npos);
  // No retained candidates, so no candidate section.
  EXPECT_EQ(text.find("Top-scored candidates"), std::string::npos);
}

TEST(ExplainTest, OptionsControlSections) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  Paleo paleo(&*table, PaleoOptions{});
  const TopKList input = PaperList();
  auto report = paleo.Run({.input = &input, .keep_candidates = true});
  ASSERT_TRUE(report.ok());

  ExplainOptions options;
  options.show_candidates = 0;
  options.show_timings = false;
  std::string text = ExplainReport(*report, table->schema(), options);
  EXPECT_EQ(text.find("Top-scored candidates"), std::string::npos);
  EXPECT_EQ(text.find("Timings"), std::string::npos);

  options.show_candidates = 1;
  text = ExplainReport(*report, table->schema(), options);
  EXPECT_NE(text.find("[1]"), std::string::npos);
  EXPECT_NE(text.find("more)"), std::string::npos);
}

}  // namespace
}  // namespace paleo
