// Unit tests for the process-wide fault-point registry: trigger
// semantics (Nth hit, seeded probability, max_fires), action payloads,
// and counters. Chaos behavior of the sites themselves is covered by
// chaos_test.cc.

#include "common/fault_points.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace paleo {
namespace {

// Each test disarms on entry and exit so a failing ASSERT in one test
// cannot leak an armed spec into the next.
class FaultPointsTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultPoints::DisarmAll(); }
  void TearDown() override { FaultPoints::DisarmAll(); }
};

TEST_F(FaultPointsTest, DisarmedPointDoesNothing) {
  EXPECT_FALSE(FaultPoints::AnyArmed());
  FaultResult result = PALEO_FAULT_POINT("test.unit.disarmed");
  EXPECT_FALSE(result.fired());
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(FaultPoints::StatsFor("test.unit.disarmed").hits, 0);
}

TEST_F(FaultPointsTest, ArmedOtherPointLeavesThisOneQuiet) {
  FaultSpec spec;
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.other", spec);
  EXPECT_TRUE(FaultPoints::AnyArmed());
  FaultResult result = PALEO_FAULT_POINT("test.unit.this");
  EXPECT_FALSE(result.fired());
  // The miss is not even counted: only armed points track hits.
  EXPECT_EQ(FaultPoints::StatsFor("test.unit.this").hits, 0);
}

TEST_F(FaultPointsTest, FiresExactlyAtNthHit) {
  FaultSpec spec;
  spec.action = FaultAction::kStatusError;
  spec.code = StatusCode::kIoError;
  spec.at_hit = 3;
  FaultPoints::Arm("test.unit.nth", spec);
  for (int hit = 1; hit <= 5; ++hit) {
    FaultResult result = PALEO_FAULT_POINT("test.unit.nth");
    EXPECT_EQ(result.fired(), hit == 3) << "hit " << hit;
  }
  FaultPoints::PointStats stats = FaultPoints::StatsFor("test.unit.nth");
  EXPECT_EQ(stats.hits, 5);
  EXPECT_EQ(stats.fires, 1);
}

TEST_F(FaultPointsTest, ErrorPayloadCarriesCodeAndMessage) {
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.message = "injected: scratch pool exhausted";
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.payload", spec);
  FaultResult result = PALEO_FAULT_POINT("test.unit.payload");
  ASSERT_TRUE(result.error());
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.status.message(), "injected: scratch pool exhausted");
}

TEST_F(FaultPointsTest, EmptyMessageSynthesizedFromPointName) {
  FaultSpec spec;
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.synth", spec);
  FaultResult result = PALEO_FAULT_POINT("test.unit.synth");
  ASSERT_TRUE(result.error());
  EXPECT_NE(result.status.message().find("test.unit.synth"),
            std::string::npos);
}

TEST_F(FaultPointsTest, ProbabilityPatternReplaysFromSeed) {
  auto run = [](uint64_t seed) {
    FaultSpec spec;
    spec.probability = 0.5;
    spec.seed = seed;
    FaultPoints::Arm("test.unit.prob", spec);
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) {
      pattern.push_back(PALEO_FAULT_POINT("test.unit.prob").fired());
    }
    FaultPoints::Disarm("test.unit.prob");
    return pattern;
  };
  std::vector<bool> first = run(7);
  EXPECT_EQ(first, run(7));   // same seed, same firing pattern
  EXPECT_NE(first, run(8));   // 2^-64 flake odds, accepted
  int fires = 0;
  for (bool fired : first) fires += fired;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST_F(FaultPointsTest, MaxFiresCapsInjections) {
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 2;
  FaultPoints::Arm("test.unit.cap", spec);
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    fires += PALEO_FAULT_POINT("test.unit.cap").fired();
  }
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(FaultPoints::StatsFor("test.unit.cap").fires, 2);
  EXPECT_EQ(FaultPoints::StatsFor("test.unit.cap").hits, 10);
}

TEST_F(FaultPointsTest, DelayActionSleepsInsideHit) {
  FaultSpec spec;
  spec.action = FaultAction::kDelay;
  spec.delay_micros = 20000;  // 20ms: measurable, not slow
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.delay", spec);
  auto start = std::chrono::steady_clock::now();
  FaultResult result = PALEO_FAULT_POINT("test.unit.delay");
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_TRUE(result.fired());
  EXPECT_FALSE(result.error());  // a delay is not a Status failure
  EXPECT_GE(elapsed_ms, 15.0);   // scheduler slop tolerated downward
}

TEST_F(FaultPointsTest, SpuriousWakeupAndAllocFlagsMapToActions) {
  FaultSpec spec;
  spec.action = FaultAction::kSpuriousWakeup;
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.wake", spec);
  EXPECT_TRUE(PALEO_FAULT_POINT("test.unit.wake").spurious_wakeup());

  spec.action = FaultAction::kAllocFailure;
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.alloc", spec);
  FaultResult result = PALEO_FAULT_POINT("test.unit.alloc");
  EXPECT_TRUE(result.alloc_failure());
  EXPECT_FALSE(result.error());
  EXPECT_FALSE(result.spurious_wakeup());
}

TEST_F(FaultPointsTest, ReArmResetsCountersDisarmSilences) {
  FaultSpec spec;
  spec.at_hit = 1;
  FaultPoints::Arm("test.unit.rearm", spec);
  EXPECT_TRUE(PALEO_FAULT_POINT("test.unit.rearm").fired());
  FaultPoints::Arm("test.unit.rearm", spec);  // counters reset
  EXPECT_EQ(FaultPoints::StatsFor("test.unit.rearm").hits, 0);
  EXPECT_TRUE(PALEO_FAULT_POINT("test.unit.rearm").fired());

  FaultPoints::Disarm("test.unit.rearm");
  EXPECT_FALSE(PALEO_FAULT_POINT("test.unit.rearm").fired());
  EXPECT_EQ(FaultPoints::StatsFor("test.unit.rearm").hits, 0);
}

TEST_F(FaultPointsTest, TotalInjectedCountsFirings) {
  const int64_t before = FaultPoints::TotalInjected();
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 3;
  FaultPoints::Arm("test.unit.metric", spec);
  for (int i = 0; i < 5; ++i) {
    // Discard: only the injection COUNT matters here, not the Status.
    (void)PALEO_FAULT_POINT("test.unit.metric");
  }
  EXPECT_EQ(FaultPoints::TotalInjected() - before, 3);
}

TEST_F(FaultPointsTest, DisarmAllQuiescesEverything) {
  FaultSpec spec;
  spec.probability = 1.0;
  FaultPoints::Arm("test.unit.a", spec);
  FaultPoints::Arm("test.unit.b", spec);
  EXPECT_TRUE(FaultPoints::AnyArmed());
  FaultPoints::DisarmAll();
  EXPECT_FALSE(FaultPoints::AnyArmed());
  EXPECT_FALSE(PALEO_FAULT_POINT("test.unit.a").fired());
  EXPECT_FALSE(PALEO_FAULT_POINT("test.unit.b").fired());
}

TEST_F(FaultPointsTest, ConcurrentHitsAndArmDisarmAreSafe) {
  // Hammer one point from several threads while another thread arms
  // and disarms it; TSan is the real assertion, counters the sanity.
  FaultSpec spec;
  spec.probability = 0.5;
  spec.seed = 99;
  FaultPoints::Arm("test.unit.race", spec);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> observed_fires{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        observed_fires.fetch_add(
            PALEO_FAULT_POINT("test.unit.race").fired() ? 1 : 0,
            std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    FaultPoints::Arm("test.unit.race", spec);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    FaultPoints::Disarm("test.unit.race");
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : hitters) t.join();
  EXPECT_GE(observed_fires.load(), 0);
}

}  // namespace
}  // namespace paleo
