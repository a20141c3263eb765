// FaultInjector unit coverage: schedules are virtual-trigger state machines
// and every query site must be exact — off-by-one windows or double-fired
// kills would make the scenario suites above unreproducible.

#include "stream/fault.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace astro::stream {
namespace {

TEST(FaultInjector, KillFiresOnceAtTrigger) {
  FaultInjector inj(5);
  inj.kill_engine(1, 100);
  EXPECT_FALSE(inj.should_kill(1, 99));
  EXPECT_FALSE(inj.should_kill(0, 100));  // wrong engine
  EXPECT_TRUE(inj.should_kill(1, 100));
  EXPECT_FALSE(inj.should_kill(1, 100));  // fired: never again
  EXPECT_FALSE(inj.should_kill(1, 5000));
  EXPECT_EQ(inj.injected(Fault::kKill), 1u);
}

TEST(FaultInjector, SeparateKillEventsFireIndependently) {
  FaultInjector inj(5);
  inj.kill_engine(0, 10);
  inj.kill_engine(0, 20);
  EXPECT_TRUE(inj.should_kill(0, 10));
  EXPECT_FALSE(inj.should_kill(0, 11));
  EXPECT_TRUE(inj.should_kill(0, 20));
  EXPECT_EQ(inj.injected(Fault::kKill), 2u);
}

TEST(FaultInjector, MergeKillIsSeparateFromDataKill) {
  FaultInjector inj(5);
  inj.kill_engine_on_merge(2, 1);
  EXPECT_FALSE(inj.should_kill(2, 1));  // data path unaffected
  EXPECT_FALSE(inj.should_kill_on_merge(2, 0));
  EXPECT_TRUE(inj.should_kill_on_merge(2, 1));
  EXPECT_FALSE(inj.should_kill_on_merge(2, 1));
}

TEST(FaultInjector, DropWindowIsHalfOpenAndExact) {
  FaultInjector inj(5);
  inj.drop_on_channel("ch", 10, 3);  // attempts 10, 11, 12
  std::vector<std::uint64_t> dropped;
  for (std::uint64_t attempt = 1; attempt <= 20; ++attempt) {
    if (inj.on_push("ch", attempt).action == FaultAction::kDrop) {
      dropped.push_back(attempt);
    }
  }
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{10, 11, 12}));
  EXPECT_EQ(inj.injected(Fault::kDrop), 3u);
}

TEST(FaultInjector, ChannelEventsDoNotCrossChannels) {
  FaultInjector inj(5);
  inj.drop_on_channel("a", 1, 5);
  EXPECT_TRUE(inj.watches_channel("a"));
  EXPECT_FALSE(inj.watches_channel("b"));
  EXPECT_EQ(inj.on_push("b", 1).action, FaultAction::kNone);
  EXPECT_EQ(inj.on_push("a", 1).action, FaultAction::kDrop);
}

TEST(FaultInjector, RandomDropsAreSeedDeterministicAndBudgeted) {
  const auto run = [](std::uint64_t seed) {
    FaultInjector inj(seed);
    inj.drop_randomly("ch", 0.3, 10);
    std::vector<std::uint64_t> dropped;
    for (std::uint64_t attempt = 1; attempt <= 500; ++attempt) {
      if (inj.on_push("ch", attempt).action == FaultAction::kDrop) {
        dropped.push_back(attempt);
      }
    }
    return dropped;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);              // same seed: identical attempt pattern
  EXPECT_EQ(a.size(), 10u);     // p=0.3 over 500 attempts exhausts the budget
  EXPECT_NE(a, c);              // different seed: different pattern
}

// Golden replay positions: seeded schedules must fire at exactly these
// points on every build, not only agree between two runs of one binary.
TEST(FaultInjector, SeededSchedulesReplayGoldenPositions) {
  {
    FaultInjector inj(42);
    inj.drop_randomly("ch", 0.3, 10);
    std::vector<std::uint64_t> dropped;
    for (std::uint64_t attempt = 1; attempt <= 500; ++attempt) {
      if (inj.on_push("ch", attempt).action == FaultAction::kDrop) {
        dropped.push_back(attempt);
      }
    }
    EXPECT_EQ(dropped, (std::vector<std::uint64_t>{1, 2, 8, 12, 13, 16, 19,
                                                   29, 30, 32}));
  }
  {
    struct Corruption {
      std::uint64_t attempt;
      CorruptionKind kind;
      std::uint64_t salt;
      bool operator==(const Corruption&) const = default;
    };
    const std::vector<Corruption> golden{
        {2, CorruptionKind::kNaN, 0x009872D0E2DF5F5Cull},
        {3, CorruptionKind::kGarble, 0x195110CF71643525ull},
        {13, CorruptionKind::kGarble, 0x0C78ACF19D2302E7ull},
        {18, CorruptionKind::kNaN, 0x2AF995255CDE2A62ull},
        {21, CorruptionKind::kInf, 0x2CCFB4899227188Cull},
        {23, CorruptionKind::kNaN, 0x10BB4930E72FFB19ull},
        {24, CorruptionKind::kInf, 0x29283CA415BD65DBull},
        {31, CorruptionKind::kNaN, 0x13BC060170D0216Dull}};
    FaultInjector inj(7);
    inj.corrupt_randomly("ch", 0.2, 8);
    std::vector<Corruption> fired;
    for (std::uint64_t attempt = 1; attempt <= 500; ++attempt) {
      const FaultDecision d = inj.on_push("ch", attempt);
      if (d.action == FaultAction::kCorrupt) {
        fired.push_back({attempt, d.corruption, d.corruption_salt});
      }
    }
    EXPECT_TRUE(fired == golden);
    EXPECT_EQ(inj.injected(Fault::kCorrupt), 8u);
  }
  {
    using Flip = std::tuple<std::uint64_t, std::size_t, std::uint8_t>;
    FaultInjector inj(1234);
    inj.corrupt_random(6, 200, 12, 40);
    std::vector<Flip> fired;
    for (std::uint64_t seq = 1; seq <= 200; ++seq) {
      for (const auto& [offset, mask] : inj.plan_commit(seq, 128).flips) {
        fired.emplace_back(seq, offset, mask);
      }
    }
    EXPECT_EQ(fired, (std::vector<Flip>{{6, 32, 0xE6},
                                        {31, 17, 0x83},
                                        {56, 14, 0xB2},
                                        {156, 39, 0xB7},
                                        {180, 24, 0x11},
                                        {196, 27, 0xDA}}));
  }
}

TEST(FaultInjector, DelayDecisionCarriesDuration) {
  FaultInjector inj(5);
  inj.delay_on_channel("ch", 2, 1, std::chrono::microseconds(750));
  EXPECT_EQ(inj.on_push("ch", 1).action, FaultAction::kNone);
  const FaultDecision d = inj.on_push("ch", 2);
  EXPECT_EQ(d.action, FaultAction::kDelay);
  EXPECT_EQ(d.delay, std::chrono::microseconds(750));
  EXPECT_EQ(inj.on_push("ch", 3).action, FaultAction::kNone);
  EXPECT_EQ(inj.injected(Fault::kDelay), 1u);
}

TEST(FaultInjector, PartitionWindowIsHalfOpenAndDirectional) {
  FaultInjector inj(5);
  inj.partition_link(0, 1, 5, 8, /*bidirectional=*/false);
  EXPECT_FALSE(inj.link_blocked(0, 1, 4));
  EXPECT_TRUE(inj.link_blocked(0, 1, 5));
  EXPECT_TRUE(inj.link_blocked(0, 1, 7));
  EXPECT_FALSE(inj.link_blocked(0, 1, 8));   // window closed: link healed
  EXPECT_FALSE(inj.link_blocked(1, 0, 6));   // reverse direction intact
  EXPECT_EQ(inj.injected(Fault::kPartition), 2u);  // only true queries count
}

TEST(FaultInjector, BidirectionalPartitionCutsBothWays) {
  FaultInjector inj(5);
  inj.partition_link(0, 1, 0, 10);
  EXPECT_TRUE(inj.link_blocked(0, 1, 3));
  EXPECT_TRUE(inj.link_blocked(1, 0, 3));
  EXPECT_FALSE(inj.link_blocked(0, 2, 3));  // other links untouched
}

}  // namespace
}  // namespace astro::stream
