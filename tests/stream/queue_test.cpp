#include "stream/queue.h"
#include "stream/tuple.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

namespace astro::stream {
namespace {

using namespace std::chrono_literals;

TEST(BoundedQueue, PushPopFifo) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, TryPushDoesNotConsumeOnFailure) {
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> first{1};
  ASSERT_TRUE(q.try_push(first));
  std::vector<int> second{2, 3};
  ASSERT_FALSE(q.try_push(second));
  EXPECT_EQ(second.size(), 2u);  // untouched: can be rerouted
}

TEST(BoundedQueue, CloseDrainsThenSignals) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));  // rejected after close
  int out = 0;
  EXPECT_TRUE(q.pop(out));  // backlog still drains
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));  // exhausted
}

TEST(BoundedQueue, TryPopEmpty) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop().has_value());
  int x = 5;
  q.try_push(x);
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(BoundedQueue, PopForTimesOut) {
  BoundedQueue<int> q(2);
  int out = 0;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(out, 20ms));
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
}

TEST(BoundedQueue, PopForReturnsData) {
  BoundedQueue<int> q(2);
  q.push(9);
  int out = 0;
  EXPECT_TRUE(q.pop_for(out, 1s));
  EXPECT_EQ(out, 9);
}

TEST(BoundedQueue, BlockedPushUnblocksOnClose) {
  BoundedQueue<int> q(1);
  q.push(1);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    const bool ok = q.push(2);  // blocks: full
    EXPECT_FALSE(ok);           // close() rejects it
    returned = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load());
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, PopForTimeoutWhileOpenLeavesQueueUsable) {
  // A timed-out pop on an open queue is a non-event: later traffic flows
  // and the gauges record the blocked wait but no pop.
  BoundedQueue<int> q(2);
  int out = 0;
  EXPECT_FALSE(q.pop_for(out, 5ms));
  EXPECT_EQ(q.gauges().pop_blocked.load(), 1u);
  EXPECT_EQ(q.gauges().popped.load(), 0u);
  EXPECT_TRUE(q.push(3));
  EXPECT_TRUE(q.pop_for(out, 1s));
  EXPECT_EQ(out, 3);
}

TEST(BoundedQueue, PopForRacingCloseReturnsFalseNotData) {
  // close() lands while a consumer waits in pop_for: the wait must wake
  // promptly (not run out the full timeout) and report exhaustion.
  BoundedQueue<int> q(2);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    int out = 0;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(q.pop_for(out, 10s));
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
    woke = true;
  });
  std::this_thread::sleep_for(20ms);
  q.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(BoundedQueue, PopForSurvivesSpuriousWake) {
  // A notify with nothing enqueued (here: a push immediately stolen by a
  // competing try_pop) must not let pop_for return true without data — the
  // predicate re-check has to hold the line until real data or timeout.
  BoundedQueue<int> q(4);
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    int out = 0;
    while (!done.load()) {
      if (q.pop_for(out, 2ms)) {
        EXPECT_EQ(out, 42);  // only genuine data may come through
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(q.push(42));
    (void)q.try_pop();  // may or may not beat the waiter to it
  }
  done = true;
  waiter.join();
  const auto& g = q.gauges();
  EXPECT_EQ(g.pushed.load(), 200u);
  EXPECT_EQ(g.pushed.load() - g.popped.load(), q.size());
}

TEST(BoundedQueue, FaultHookDropIsCountedAsFaultedNotRejected) {
  // Lossy-link semantics: the producer sees success, the tuple vanishes,
  // and the loss is attributed to injection — `rejected` (the queue's own
  // refusal signal) stays untouched.
  BoundedQueue<int> q(4);
  q.set_fault_hook([](std::uint64_t attempt) {
    FaultDecision d;
    if (attempt == 2) d.action = FaultAction::kDrop;
    return d;
  });
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));  // swallowed by the fault, still reports success
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 2u);
  const auto& g = q.gauges();
  EXPECT_EQ(g.faulted.load(), 1u);
  EXPECT_EQ(g.rejected.load(), 0u);
  EXPECT_EQ(g.pushed.load(), 2u);  // only real enqueues count as pushed
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
}

TEST(BoundedQueue, ClosedRejectionDistinctFromInjectedDrop) {
  // The regression the gauges exist to prevent: a close-time rejection and
  // an injected drop must land in different counters, or conservation
  // checks would blame the wrong subsystem.
  BoundedQueue<int> q(4);
  q.set_fault_hook([](std::uint64_t attempt) {
    FaultDecision d;
    if (attempt == 1) d.action = FaultAction::kDrop;
    return d;
  });
  EXPECT_TRUE(q.push(1));  // injected drop: success to the producer
  q.close();
  EXPECT_FALSE(q.push(2));  // closed: honest rejection
  int item = 3;
  EXPECT_FALSE(q.try_push(item));
  EXPECT_EQ(item, 3);  // rejection does not consume
  const auto& g = q.gauges();
  EXPECT_EQ(g.faulted.load(), 1u);
  EXPECT_EQ(g.rejected.load(), 2u);
  EXPECT_EQ(g.pushed.load(), 0u);
}

TEST(BoundedQueue, FaultHookDelayHoldsBlockingPushOnly) {
  BoundedQueue<int> q(4);
  q.set_fault_hook([](std::uint64_t attempt) {
    FaultDecision d;
    if (attempt == 1) {
      d.action = FaultAction::kDelay;
      d.delay = std::chrono::microseconds(20000);
    }
    return d;
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.push(1));  // held ~20 ms, then lands
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
  EXPECT_EQ(q.gauges().delayed.load(), 1u);
  EXPECT_EQ(q.size(), 1u);
  int item = 2;
  EXPECT_TRUE(q.try_push(item));  // non-blocking path ignores delays
  EXPECT_EQ(q.gauges().delayed.load(), 1u);
}

TEST(BoundedQueue, TryPushDropConsumesItem) {
  // On the non-blocking path an injected drop still reports success and
  // consumes the tuple — the caller must not reroute a "sent" tuple.
  BoundedQueue<std::vector<int>> q(4);
  q.set_fault_hook([](std::uint64_t) {
    FaultDecision d;
    d.action = FaultAction::kDrop;
    return d;
  });
  std::vector<int> item{1, 2, 3};
  EXPECT_TRUE(q.try_push(item));
  EXPECT_TRUE(item.empty());  // moved-from: ownership transferred
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.gauges().faulted.load(), 1u);
}

TEST(BoundedQueue, RefusedTryPushUsesNoFaultAttempt) {
  // A full queue refuses the push before its fault hook runs: the caller's
  // tuple comes back undamaged (the split reroutes it to another engine's
  // edge) and the attempt numbering only counts pushes that land, so the
  // next push that does is attempt 1 and takes the damage.
  BoundedQueue<DataTuple> q(1);
  DataTuple filler;
  filler.values = linalg::Vector(4, 1.0);
  ASSERT_TRUE(q.try_push(filler));  // fills the only slot; no hook yet
  std::vector<std::uint64_t> attempts;
  q.set_fault_hook([&attempts](std::uint64_t attempt) {
    attempts.push_back(attempt);
    FaultDecision d;
    if (attempt == 1) {
      d.action = FaultAction::kCorrupt;
      d.corruption = CorruptionKind::kNaN;
    }
    return d;
  });

  DataTuple t;
  t.values = linalg::Vector(4, 2.0);
  EXPECT_FALSE(q.try_push(t));  // full
  EXPECT_TRUE(attempts.empty());
  ASSERT_EQ(t.values.size(), 4u);
  for (std::size_t i = 0; i < t.values.size(); ++i) {
    EXPECT_EQ(t.values[i], 2.0) << i;  // untouched, not corrupted
  }
  EXPECT_EQ(q.gauges().corrupted.load(), 0u);
  EXPECT_EQ(q.gauges().rejected.load(), 1u);

  DataTuple out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_TRUE(q.try_push(t));  // lands: attempt 1, corrupted
  ASSERT_EQ(attempts, std::vector<std::uint64_t>{1});
  EXPECT_EQ(q.gauges().corrupted.load(), 1u);
  ASSERT_TRUE(q.pop(out));
  bool has_nan = false;
  for (std::size_t i = 0; i < out.values.size(); ++i) {
    has_nan = has_nan || std::isnan(out.values[i]);
  }
  EXPECT_TRUE(has_nan);
}

TEST(BoundedQueue, ProducerConsumerTransfersEverything) {
  BoundedQueue<int> q(8);
  constexpr int kItems = 10000;
  std::atomic<long long> sum{0};

  std::thread consumer([&] {
    int v = 0;
    while (q.pop(v)) sum += v;
  });
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) q.push(i);
    q.close();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), (long long)kItems * (kItems + 1) / 2);
}

TEST(BoundedQueue, MultipleProducersAndConsumers) {
  BoundedQueue<int> q(16);
  constexpr int kPerProducer = 2000;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (q.pop(v)) {
        sum += v;
        ++popped;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) q.push(1);
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), 3 * kPerProducer);
  EXPECT_EQ(sum.load(), 3 * kPerProducer);
}

// --- pop_batch (ISSUE 8: one-lock batched drains) ------------------------

TEST(BoundedQueue, PopBatchTakesUpToMaxWithoutWaitingForMore) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 5; ++i) q.push(i);
  std::vector<int> out;
  out.reserve(8);
  // More available than max: take exactly max, FIFO order.
  EXPECT_EQ(q.pop_batch(out, 3, 10ms), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 3);
  // Fewer available than max: take what is there, do not wait for more.
  EXPECT_EQ(q.pop_batch(out, 10, 10ms), 2u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(out[4], 5);
  EXPECT_EQ(q.gauges().popped.load(), 5u);
  EXPECT_EQ(q.gauges().depth.load(), 0u);
}

TEST(BoundedQueue, PopBatchTimesOutEmptyAndDrainsAfterClose) {
  BoundedQueue<int> q(4);
  std::vector<int> out;
  out.reserve(4);
  EXPECT_EQ(q.pop_batch(out, 4, 1ms), 0u);  // timeout, nothing taken
  EXPECT_TRUE(out.empty());
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop_batch(out, 4, 1ms), 1u);  // backlog drains after close
  EXPECT_EQ(q.pop_batch(out, 4, 1ms), 0u);  // exhausted close
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(BoundedQueue, PopBatchUnblocksAllWaitingProducers) {
  BoundedQueue<int> q(2);
  q.push(1);
  q.push(2);
  // Two producers block on the full queue; one pop_batch frees both slots
  // and must wake both (notify_all), or one would hang until close.
  std::thread p1([&] { q.push(3); });
  std::thread p2([&] { q.push(4); });
  while (q.gauges().push_blocked.load() < 2) std::this_thread::yield();
  std::vector<int> out;
  out.reserve(4);
  EXPECT_EQ(q.pop_batch(out, 2, 100ms), 2u);
  p1.join();
  p2.join();
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.gauges().push_blocked_ns.snapshot().total, 2u);
}

TEST(BoundedQueue, BlockedTimeHistogramsRecordWaits) {
  BoundedQueue<int> q(1);
  // Consumer wait: pop_for on empty queue records one pop_blocked sample.
  int v = 0;
  EXPECT_FALSE(q.pop_for(v, 1ms));
  EXPECT_EQ(q.gauges().pop_blocked.load(), 1u);
  const auto pop_hist = q.gauges().pop_blocked_ns.snapshot();
  EXPECT_EQ(pop_hist.total, 1u);
  EXPECT_GE(pop_hist.max, 100000u);  // waited at least 0.1ms of the 1ms

  // Producer wait: fill the queue, block a push, then free a slot.
  q.push(1);
  std::thread blocked([&] { q.push(2); });
  while (q.gauges().push_blocked.load() < 1) std::this_thread::yield();
  ASSERT_TRUE(q.pop(v));
  blocked.join();
  EXPECT_EQ(q.gauges().push_blocked_ns.snapshot().total, 1u);
}

TEST(BoundedQueue, RingWrapsAroundManyTimesPreservingFifo) {
  BoundedQueue<int> q(3);  // tiny ring: forces head wrap every 3 items
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    q.push(next_push++);
    q.push(next_push++);
    int v = 0;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, next_pop++);
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, next_pop++);
  }
  EXPECT_EQ(q.gauges().pushed.load(), 100u);
  EXPECT_EQ(q.gauges().popped.load(), 100u);
}

}  // namespace
}  // namespace astro::stream
