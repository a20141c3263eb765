#include "stream/fault.h"

#include <gtest/gtest.h>

namespace astro::stream {
namespace {

TEST(SocketFault, ConnectFailWindowIsExact) {
  FaultInjector inj(7);
  inj.fail_connect(/*first=*/2, /*count=*/2);
  EXPECT_FALSE(inj.on_connect_attempt());  // attempt 1
  EXPECT_TRUE(inj.on_connect_attempt());   // attempt 2: fails
  EXPECT_TRUE(inj.on_connect_attempt());   // attempt 3: fails
  EXPECT_FALSE(inj.on_connect_attempt());  // attempt 4
  EXPECT_FALSE(inj.on_connect_attempt());  // attempt 5
  EXPECT_EQ(inj.injected(Fault::kConnectFail), 2u);
}

TEST(SocketFault, TwoConnectFailWindowsBothFire) {
  FaultInjector inj(7);
  inj.fail_connect(/*first=*/1, /*count=*/1);
  inj.fail_connect(/*first=*/3, /*count=*/1);  // adds a window, keeps (1, 1)
  EXPECT_TRUE(inj.on_connect_attempt());   // attempt 1: fails
  EXPECT_FALSE(inj.on_connect_attempt());  // attempt 2
  EXPECT_TRUE(inj.on_connect_attempt());   // attempt 3: fails
  EXPECT_FALSE(inj.on_connect_attempt());  // attempt 4
  EXPECT_EQ(inj.injected(Fault::kConnectFail), 2u);
}

TEST(SocketFault, NoFaultsBeforeFirstConnection) {
  FaultInjector inj(1);
  inj.flip_at(0, 0, 0xFF);
  inj.reset_at(0, 0);
  // Before note_connected() there is no connection to attribute faults to.
  const auto plan = inj.plan_send(100);
  EXPECT_FALSE(plan.reset);
  EXPECT_EQ(plan.len, 100u);
  EXPECT_TRUE(plan.flips.empty());
}

TEST(SocketFault, ChunkCapCountsPartialSends) {
  FaultInjector inj(1);
  inj.chunk_writes(FaultInjector::kEveryConnection, 10);
  inj.note_connected();
  auto plan = inj.plan_send(25);
  EXPECT_EQ(plan.len, 10u);
  inj.note_sent(10);
  plan = inj.plan_send(15);
  EXPECT_EQ(plan.len, 10u);
  inj.note_sent(10);
  plan = inj.plan_send(5);
  EXPECT_EQ(plan.len, 5u);  // under the cap: untouched
  inj.note_sent(5);
  EXPECT_EQ(inj.injected(Fault::kPartialSend), 2u);
}

TEST(SocketFault, ResetFiresOnceAtItsOffset) {
  FaultInjector inj(1);
  inj.reset_at(/*connection=*/0, /*byte_offset=*/30);
  inj.note_connected();
  EXPECT_FALSE(inj.plan_send(20).reset);  // [0, 20): before the offset
  inj.note_sent(20);
  EXPECT_TRUE(inj.plan_send(20).reset);  // [20, 40) covers 30
  EXPECT_EQ(inj.injected(Fault::kReset), 1u);
  // The connection died; after reconnecting the event never re-fires.
  inj.note_connected();
  EXPECT_FALSE(inj.plan_send(100).reset);
  EXPECT_EQ(inj.injected(Fault::kReset), 1u);
}

TEST(SocketFault, OffsetsRestartPerConnection) {
  FaultInjector inj(1);
  inj.flip_at(/*connection=*/1, /*byte_offset=*/5, 0x01);
  inj.note_connected();  // connection 0
  auto plan = inj.plan_send(50);
  EXPECT_TRUE(plan.flips.empty());  // scheduled for connection 1
  inj.note_sent(50);
  inj.note_connected();  // connection 1; offset restarts at 0
  plan = inj.plan_send(50);
  ASSERT_EQ(plan.flips.size(), 1u);
  EXPECT_EQ(plan.flips[0].first, 5u);
  inj.note_sent(50);
  EXPECT_EQ(inj.injected(Fault::kFlip), 1u);
  EXPECT_EQ(inj.connections(), 2u);
}

TEST(SocketFault, FlipRearmsAfterShortWrite) {
  FaultInjector inj(1);
  inj.flip_at(0, /*byte_offset=*/50, 0x08);
  inj.note_connected();
  auto plan = inj.plan_send(100);
  ASSERT_EQ(plan.flips.size(), 1u);
  EXPECT_EQ(plan.flips[0].first, 50u);
  // The kernel accepted only 40 bytes: the flip's offset was never sent, so
  // it must re-arm for the retry instead of being counted as injected.
  inj.note_sent(40);
  EXPECT_EQ(inj.injected(Fault::kFlip), 0u);
  plan = inj.plan_send(60);  // resumes at offset 40
  ASSERT_EQ(plan.flips.size(), 1u);
  EXPECT_EQ(plan.flips[0].first, 10u);  // 50 - 40, relative to the buffer
  inj.note_sent(60);
  EXPECT_EQ(inj.injected(Fault::kFlip), 1u);
}

TEST(SocketFault, StallFiresOnceWithItsDelay) {
  FaultInjector inj(1);
  inj.stall_at(0, 10, std::chrono::milliseconds(75));
  inj.note_connected();
  auto plan = inj.plan_send(30);
  EXPECT_EQ(plan.stall.count(), 75);
  inj.note_sent(30);
  EXPECT_EQ(inj.plan_send(30).stall.count(), 0);
  EXPECT_EQ(inj.injected(Fault::kStall), 1u);
}

}  // namespace
}  // namespace astro::stream
