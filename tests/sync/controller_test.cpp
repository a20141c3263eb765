// SyncController against plain channels and fake probes: the controller
// paces its own commands (one per period, no catch-up burst) and takes
// every decision — health and liveness filters, the rejoin check — on the
// tick that emits the command.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sync/controller.h"

namespace astro::sync {
namespace {

using Clock = std::chrono::steady_clock;
using stream::ChannelPtr;
using stream::ControlTuple;
using namespace std::chrono_literals;

std::vector<ChannelPtr<ControlTuple>> make_ports(std::size_t n) {
  std::vector<ChannelPtr<ControlTuple>> ports;
  for (std::size_t i = 0; i < n; ++i) {
    ports.push_back(stream::make_channel<ControlTuple>(256));
  }
  return ports;
}

std::uint64_t pushed(const std::vector<ChannelPtr<ControlTuple>>& ports) {
  std::uint64_t total = 0;
  for (const auto& p : ports) total += p->gauges().pushed.load();
  return total;
}

std::vector<ControlTuple> drain(
    const std::vector<ChannelPtr<ControlTuple>>& ports) {
  std::vector<ControlTuple> out;
  for (const auto& p : ports) {
    while (auto c = p->try_pop()) out.push_back(*c);
  }
  return out;
}

bool names(const ControlTuple& c, int engine) {
  return c.sender == engine || c.receiver == engine;
}

/// Spins until `pred` holds or `limit` passes.
template <typename Pred>
bool poll_until(Pred pred, Clock::duration limit = 5s) {
  const auto deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(200us);
  }
  return pred();
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

TEST(SyncController, RoundsTrackCommandsAtThePorts) {
  constexpr double kRate = 100.0;
  auto ports = make_ports(3);
  SyncController c("sync", make_strategy("ring"), ports, kRate);
  const auto t0 = Clock::now();
  c.start();
  // A ring round is one command, so rounds run == commands at the ports.
  // rounds() counts after the push lands: it may trail by one, never lead.
  while (Clock::now() - t0 < 200ms) {
    const std::uint64_t before = pushed(ports);
    const std::uint64_t rounds = c.rounds();
    const std::uint64_t after = pushed(ports);
    ASSERT_LE(rounds, after);
    ASSERT_LE(before, rounds + 1);
    std::this_thread::sleep_for(1ms);
  }
  c.request_stop();
  c.join();
  const double elapsed = seconds(Clock::now() - t0);
  EXPECT_EQ(c.rounds(), pushed(ports));
  EXPECT_GE(c.rounds(), 5u);
  // Nothing is decided ahead of its tick.
  EXPECT_LE(double(c.rounds()), elapsed * kRate + 1.0);
  for (const auto& p : ports) EXPECT_TRUE(p->closed());
}

TEST(SyncController, UnhealthyEngineNamedInNoCommandAfterThePeriod) {
  constexpr auto kPeriod = 20ms;
  auto ports = make_ports(4);
  std::vector<std::atomic<bool>> healthy(4);
  for (auto& h : healthy) h = true;
  SyncController c("sync", make_strategy("ring"), ports, 50.0);
  c.set_health([&](std::size_t i) { return healthy[i].load(); });
  c.start();
  ASSERT_TRUE(poll_until([&] { return pushed(ports) >= 4; }));
  healthy[2] = false;
  std::this_thread::sleep_for(kPeriod);
  (void)drain(ports);  // decided before the flip
  std::this_thread::sleep_for(8 * kPeriod);
  c.request_stop();
  c.join();
  const auto after_flip = drain(ports);
  EXPECT_GE(after_flip.size(), 2u);  // 3->0 and 0->1 keep running
  for (const ControlTuple& cmd : after_flip) {
    EXPECT_FALSE(names(cmd, 2)) << cmd.sender << "->" << cmd.receiver;
  }
  EXPECT_GE(c.skipped_unhealthy(), 2u);
  EXPECT_EQ(c.skipped_dead(), 0u);
}

TEST(SyncController, RejoinPairWithinTwoPeriods) {
  constexpr auto kPeriod = 50ms;
  auto ports = make_ports(3);
  std::vector<std::atomic<std::uint64_t>> generation(3);
  for (auto& g : generation) g = 0;
  SyncController c("sync", make_strategy("ring"), ports, 20.0);
  c.set_liveness([](std::size_t) { return true; },
                 [&](std::size_t i) { return generation[i].load(); });
  c.start();
  ASSERT_TRUE(poll_until([&] { return c.rounds() >= 2; }));
  EXPECT_EQ(c.rejoin_syncs(), 0u);
  const auto t_bump = Clock::now();
  generation[2] = 1;
  ASSERT_TRUE(poll_until([&] { return c.rejoin_syncs() >= 2; }));
  const auto took = Clock::now() - t_bump;
  c.request_stop();
  c.join();
  // The pull lands on the first tick after the bump and the push-back on
  // the next one; the allowance covers scheduling only.
  EXPECT_LE(took, 2 * kPeriod + 40ms)
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms";
  EXPECT_EQ(c.rejoin_syncs(), 2u);
  // The ring over 3 engines never sends 0->2: that command is the pull.
  bool saw_pull = false;
  bool saw_push_back = false;
  for (const ControlTuple& cmd : drain(ports)) {
    saw_pull |= cmd.sender == 0 && cmd.receiver == 2;
    saw_push_back |= cmd.sender == 2 && cmd.receiver == 0;
  }
  EXPECT_TRUE(saw_pull);
  EXPECT_TRUE(saw_push_back);
}

TEST(SyncController, PacesEachCommandNotEachRound) {
  // Broadcast over 4 engines is 3 commands a round: per-round pacing would
  // deliver 41 commands in 14 periods, per-command pacing needs 40.
  constexpr double kRate = 500.0;  // period 2 ms
  auto ports = make_ports(4);
  SyncController c("sync", make_strategy("broadcast"), ports, kRate);
  const auto t0 = Clock::now();
  c.start();
  ASSERT_TRUE(poll_until([&] { return pushed(ports) >= 41; }));
  const auto elapsed = Clock::now() - t0;
  c.request_stop();
  c.join();
  EXPECT_GE(elapsed, 78ms);  // 40 gaps of 2 ms = 80 ms minimum
}

TEST(SyncController, NoBurstAfterFilteredRounds) {
  // Regression, carried over from the throttle the controller replaced: a
  // stretch where every command is filtered must bank no credit.  Once the
  // engines are back, consecutive commands are still a period apart.
  constexpr auto kPeriod = 10ms;
  constexpr std::size_t kEngines = 4;
  auto ports = make_ports(kEngines);
  std::atomic<bool> healthy{false};
  SyncController c("sync", make_strategy("ring"), ports, 100.0);
  c.set_health([&](std::size_t) { return healthy.load(); });
  const auto t0 = Clock::now();
  c.start();
  std::this_thread::sleep_for(6 * kPeriod);  // 6 periods of "credit"
  const auto stall = Clock::now() - t0;
  const std::uint64_t skipped = c.skipped_unhealthy();
  EXPECT_EQ(pushed(ports), 0u);
  EXPECT_GT(skipped, 0u);
  // Filtered rounds idle at the period instead of spinning: each tick
  // draws at most one round per engine.
  const double ticks = seconds(stall) / seconds(kPeriod) + 2.0;
  EXPECT_LE(double(skipped), double(kEngines) * ticks);

  const auto t_back = Clock::now();
  healthy = true;
  ASSERT_TRUE(poll_until([&] { return pushed(ports) >= 6; }));
  const auto took = Clock::now() - t_back;
  c.request_stop();
  c.join();
  // A burst would deliver all six at once; pacing needs five full periods.
  EXPECT_GE(took, 5 * kPeriod);
}

TEST(SyncController, RejectsBadArguments) {
  EXPECT_THROW(SyncController("sync", nullptr, make_ports(2), 1.0),
               std::invalid_argument);
  EXPECT_THROW(SyncController("sync", make_strategy("ring"), {}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(SyncController("sync", make_strategy("ring"), make_ports(2), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace astro::sync
