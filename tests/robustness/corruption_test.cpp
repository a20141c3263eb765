// Corruption injection: apply_corruption's damage must be deterministic in
// the decision salt, the injector's corrupt schedules must fire at exact
// seeded attempts, and a corrupting channel must count the event in
// `corrupted` while keeping pushed/popped conservation intact.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stream/fault.h"
#include "stream/queue.h"
#include "stream/tuple.h"

namespace astro::stream {
namespace {

DataTuple make_tuple(std::size_t d) {
  DataTuple t;
  t.values = linalg::Vector(d, 1.0);
  return t;
}

FaultDecision corrupt_decision(CorruptionKind kind, std::uint64_t salt) {
  FaultDecision d;
  d.action = FaultAction::kCorrupt;
  d.corruption = kind;
  d.corruption_salt = salt;
  return d;
}

TEST(ApplyCorruption, NaNDamagesExactlyOnePixel) {
  DataTuple t = make_tuple(8);
  apply_corruption(t, corrupt_decision(CorruptionKind::kNaN, 42));
  std::size_t nans = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (std::isnan(t.values[i])) ++nans;
  }
  EXPECT_EQ(nans, 1u);
  EXPECT_EQ(t.values.size(), 8u);
}

TEST(ApplyCorruption, InfSignFollowsSalt) {
  DataTuple a = make_tuple(8);
  DataTuple b = make_tuple(8);
  apply_corruption(a, corrupt_decision(CorruptionKind::kInf, 2));  // even
  apply_corruption(b, corrupt_decision(CorruptionKind::kInf, 3));  // odd
  bool saw_inf_a = false, saw_inf_b = false;
  for (std::size_t i = 0; i < 8; ++i) {
    saw_inf_a |= std::isinf(a.values[i]);
    saw_inf_b |= std::isinf(b.values[i]);
  }
  EXPECT_TRUE(saw_inf_a);
  EXPECT_TRUE(saw_inf_b);
}

TEST(ApplyCorruption, TruncateShortensVectorBelowOriginalLength) {
  DataTuple t = make_tuple(8);
  apply_corruption(t, corrupt_decision(CorruptionKind::kTruncate, 1234));
  EXPECT_LT(t.values.size(), 8u);  // salt % d is always < d
}

TEST(ApplyCorruption, GarbleWritesHugeFiniteValues) {
  DataTuple t = make_tuple(16);
  apply_corruption(t, corrupt_decision(CorruptionKind::kGarble, 99));
  std::size_t huge = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_FALSE(std::isnan(t.values[i]));
    if (std::abs(t.values[i]) >= 1e30) ++huge;
  }
  EXPECT_GE(huge, 1u);
  EXPECT_LE(huge, 4u);
}

TEST(ApplyCorruption, SameSaltSameDamage) {
  DataTuple a = make_tuple(12);
  DataTuple b = make_tuple(12);
  const FaultDecision d = corrupt_decision(CorruptionKind::kGarble, 777);
  apply_corruption(a, d);
  apply_corruption(b, d);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]) << i;
  }
}

TEST(ApplyCorruption, GenericOverloadIsNoOp) {
  int not_a_tuple = 7;
  apply_corruption(not_a_tuple, corrupt_decision(CorruptionKind::kNaN, 1));
  EXPECT_EQ(not_a_tuple, 7);
}

TEST(CorruptSchedule, WindowIsHalfOpenAndExact) {
  FaultInjector inj(5);
  inj.corrupt_on_channel("ch", 10, 3, CorruptionKind::kNaN);
  std::vector<std::uint64_t> hit;
  for (std::uint64_t attempt = 1; attempt <= 20; ++attempt) {
    const FaultDecision d = inj.on_push("ch", attempt);
    if (d.action == FaultAction::kCorrupt) {
      EXPECT_EQ(d.corruption, CorruptionKind::kNaN);
      hit.push_back(attempt);
    }
  }
  EXPECT_EQ(hit, (std::vector<std::uint64_t>{10, 11, 12}));
  EXPECT_EQ(inj.injected(Fault::kCorrupt), 3u);
  EXPECT_TRUE(inj.watches_channel("ch"));
}

TEST(CorruptSchedule, RandomCorruptionsAreSeedDeterministicAndBudgeted) {
  const auto run = [](std::uint64_t seed) {
    FaultInjector inj(seed);
    inj.corrupt_randomly("ch", 0.2, 15);
    std::vector<std::uint64_t> hit;
    std::vector<int> kinds;
    for (std::uint64_t attempt = 1; attempt <= 500; ++attempt) {
      const FaultDecision d = inj.on_push("ch", attempt);
      if (d.action == FaultAction::kCorrupt) {
        hit.push_back(attempt);
        kinds.push_back(int(d.corruption));
      }
    }
    return std::pair(hit, kinds);
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);                        // exact replay
  EXPECT_NE(a.first, c.first);            // the seed matters
  EXPECT_EQ(a.first.size(), 15u);         // the budget is exhausted...
  EXPECT_GT(a.first.front(), 0u);         // ...at seeded attempts
}

TEST(CorruptSchedule, EmptyKindListCyclesThroughAllFour) {
  FaultInjector inj(7);
  inj.corrupt_randomly("ch", 1.0, 64);  // fire on every attempt
  std::vector<bool> seen(4, false);
  for (std::uint64_t attempt = 1; attempt <= 64; ++attempt) {
    const FaultDecision d = inj.on_push("ch", attempt);
    ASSERT_EQ(d.action, FaultAction::kCorrupt);
    seen[std::size_t(d.corruption)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(CorruptSchedule, RestrictedKindListIsHonored) {
  FaultInjector inj(7);
  inj.corrupt_randomly("ch", 1.0, 32, {CorruptionKind::kNaN});
  for (std::uint64_t attempt = 1; attempt <= 32; ++attempt) {
    EXPECT_EQ(inj.on_push("ch", attempt).corruption, CorruptionKind::kNaN);
  }
}

TEST(CorruptChannel, TupleLandsDamagedAndConservationHolds) {
  // Unlike a drop (swallowed, counted in `faulted`), a corrupted push
  // *lands*: pushed/popped/depth accounting must be identical to a clean
  // channel, with the damage visible only in the payload and the
  // `corrupted` gauge.
  auto inj = std::make_shared<FaultInjector>(11);
  inj->corrupt_on_channel("q", 2, 1, CorruptionKind::kNaN);
  BoundedQueue<DataTuple> q(8);
  q.set_fault_hook(
      [inj](std::uint64_t attempt) { return inj->on_push("q", attempt); });

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(make_tuple(4)));
  q.close();

  std::vector<DataTuple> popped;
  DataTuple t;
  while (q.pop(t)) popped.push_back(t);

  ASSERT_EQ(popped.size(), 3u);
  EXPECT_TRUE(std::isfinite(popped[0].values[0]));
  bool second_has_nan = false;
  for (std::size_t i = 0; i < popped[1].values.size(); ++i) {
    second_has_nan |= std::isnan(popped[1].values[i]);
  }
  EXPECT_TRUE(second_has_nan);
  EXPECT_TRUE(std::isfinite(popped[2].values[0]));

  const QueueGauges& g = q.gauges();
  EXPECT_EQ(g.corrupted.load(), 1u);
  EXPECT_EQ(g.faulted.load(), 0u);
  EXPECT_EQ(g.pushed.load(), 3u);
  EXPECT_EQ(g.popped.load(), 3u);
  EXPECT_EQ(g.depth.load(), 0u);
  EXPECT_EQ(inj->injected(Fault::kCorrupt), 1u);
}

TEST(CorruptChannel, TryPushPathAlsoCorrupts) {
  auto inj = std::make_shared<FaultInjector>(13);
  inj->corrupt_on_channel("q", 1, 1, CorruptionKind::kTruncate);
  BoundedQueue<DataTuple> q(8);
  q.set_fault_hook(
      [inj](std::uint64_t attempt) { return inj->on_push("q", attempt); });
  DataTuple t = make_tuple(6);
  ASSERT_TRUE(q.try_push(t));
  DataTuple out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_LT(out.values.size(), 6u);
  EXPECT_EQ(q.gauges().corrupted.load(), 1u);
}

}  // namespace
}  // namespace astro::stream
