#include "stream/split.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "stream/fault.h"
#include "stream/graph.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace astro::stream {
namespace {

std::vector<linalg::Vector> tiny_data(std::size_t n, std::size_t d = 4) {
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector v(d);
    v[0] = double(i);
    out.push_back(v);
  }
  return out;
}

/// Source = split -> one collector per output: the split is fused into the
/// source and routes on its thread.  The consumers live in a graph of
/// their own so a test can choose whether they drain while the split
/// routes (run) or only after it has routed the whole stream
/// (run_then_drain).
struct SplitHarness {
  FlowGraph graph;
  FlowGraph consumers;
  std::shared_ptr<SplitRouter> split;
  std::vector<ChannelPtr<DataTuple>> outs;
  std::vector<CollectorSink<DataTuple>*> sinks;

  SplitHarness(std::size_t n_tuples, std::size_t n_outputs,
               SplitStrategy strategy, std::size_t out_capacity = 64) {
    for (std::size_t i = 0; i < n_outputs; ++i) {
      outs.push_back(make_channel<DataTuple>(out_capacity));
    }
    split = std::make_shared<SplitRouter>(outs, strategy);
    graph.add<ReplaySource>("source", tiny_data(n_tuples), split);
    for (std::size_t i = 0; i < n_outputs; ++i) {
      sinks.push_back(consumers.add<CollectorSink<DataTuple>>(
          "sink" + std::to_string(i), outs[i]));
    }
  }

  void run() {
    consumers.start();
    graph.start();
    graph.wait();
    consumers.wait();
  }

  /// Routes the whole stream before any consumer runs.  With every output
  /// able to hold the whole stream no try_push can fail, so no reroute
  /// fires and the counts are the strategy's own choices — independent of
  /// how the scheduler interleaves the consumers.
  void run_then_drain() {
    graph.start();
    graph.wait();
    consumers.start();
    consumers.wait();
  }

  [[nodiscard]] std::size_t total_received() const {
    std::size_t total = 0;
    for (const auto* s : sinks) total += s->count();
    return total;
  }

  [[nodiscard]] std::uint64_t rejected_pushes() const {
    std::uint64_t total = 0;
    for (const auto& o : outs) total += o->gauges().rejected.load();
    return total;
  }

  /// Every seq 0..n-1 arrived exactly once across the sinks.
  void expect_exactly_once(std::size_t n) const {
    EXPECT_EQ(total_received(), n);
    std::vector<int> seen(n, 0);
    for (const auto* s : sinks) {
      for (const auto& t : s->snapshot()) seen[std::size_t(t.seq)]++;
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << "seq " << i;
  }
};

TEST(Split, NoOutputsThrows) {
  EXPECT_THROW(SplitRouter(std::vector<ChannelPtr<DataTuple>>{}),
               std::invalid_argument);
}

TEST(Split, AllTuplesDeliveredExactlyOnce) {
  SplitHarness h(500, 4, SplitStrategy::kRandom);
  h.run();
  h.expect_exactly_once(500);
}

TEST(Split, LeastLoadedDeliversEverything) {
  SplitHarness h(1000, 3, SplitStrategy::kLeastLoaded);
  h.run();
  h.expect_exactly_once(1000);
}

// Strategy choices, pinned where no reroute can fire: the outputs hold the
// whole stream and nothing drains them until the split is done.  (With
// 64-slot outputs and live consumers a loaded box fills a queue now and
// then, try_push falls back to least-loaded rerouting, and exact counts
// stop holding.)

TEST(Split, RoundRobinIsBalanced) {
  SplitHarness h(400, 4, SplitStrategy::kRoundRobin, /*out_capacity=*/400);
  h.run_then_drain();
  EXPECT_EQ(h.rejected_pushes(), 0u);
  for (const auto* s : h.sinks) EXPECT_EQ(s->count(), 100u);
}

TEST(Split, RandomIsApproximatelyBalanced) {
  SplitHarness h(4000, 4, SplitStrategy::kRandom, /*out_capacity=*/4000);
  h.run_then_drain();
  EXPECT_EQ(h.rejected_pushes(), 0u);
  for (const auto* s : h.sinks) {
    EXPECT_GT(s->count(), 800u);
    EXPECT_LT(s->count(), 1200u);
  }
}

TEST(Split, LeastLoadedRotatesTieBreaks) {
  // Regression: when every queue has the same depth at every decision (as
  // when consumers keep them empty), the old scan started at index 0 each
  // time and funnelled the whole stream to target 0.  Closed outputs pin
  // that tie deterministically: each reads depth 0 forever, and each
  // decision is counted on the target it chose as two refused pushes (the
  // try_push, then the blocking fallback).  A rotating start must spread
  // the ties exactly evenly.
  SplitHarness h(900, 3, SplitStrategy::kLeastLoaded);
  for (const auto& o : h.outs) o->close();
  h.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.outs[i]->gauges().rejected.load(), 2u * 300u) << "target " << i;
  }
  EXPECT_EQ(h.split->metrics().dropped(), 900u);
  EXPECT_EQ(h.total_received(), 0u);
}

TEST(Split, RerouteDeliversEverythingExactlyOnce) {
  // Two-slot outputs and sink 0 held back until output 0 has refused a
  // push: rerouting is certain to fire, and must still deliver every tuple
  // exactly once, with the split's per-target counts matching the sinks.
  std::vector<ChannelPtr<DataTuple>> outs;
  for (int i = 0; i < 4; ++i) outs.push_back(make_channel<DataTuple>(2));
  FlowGraph graph, late;
  auto split = std::make_shared<SplitRouter>(outs, SplitStrategy::kRandom);
  graph.add<ReplaySource>("source", tiny_data(3000), split);
  std::vector<CollectorSink<DataTuple>*> sinks;
  sinks.push_back(late.add<CollectorSink<DataTuple>>("sink0", outs[0]));
  for (int i = 1; i < 4; ++i) {
    sinks.push_back(graph.add<CollectorSink<DataTuple>>(
        "sink" + std::to_string(i), outs[i]));
  }
  graph.start();
  while (outs[0]->gauges().rejected.load() == 0) std::this_thread::yield();
  late.start();
  graph.wait();
  late.wait();

  std::vector<int> seen(3000, 0);
  std::uint64_t total = 0;
  const auto counts = split->per_target_counts();
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    EXPECT_EQ(counts[i], sinks[i]->count()) << "target " << i;
    total += sinks[i]->count();
    for (const auto& t : sinks[i]->snapshot()) seen[std::size_t(t.seq)]++;
  }
  EXPECT_EQ(total, 3000u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "seq " << i;
  }
  EXPECT_EQ(split->metrics().tuples_out(), 3000u);
}

TEST(Split, PerTargetCountsMatchSinks) {
  SplitHarness h(600, 3, SplitStrategy::kRoundRobin);
  h.run();
  const auto counts = h.split->per_target_counts();
  ASSERT_EQ(counts.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(counts[i], h.sinks[i]->count());
  }
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 600ull);
}

TEST(Split, MetricsCountBytes) {
  SplitHarness h(10, 2, SplitStrategy::kRoundRobin);
  h.run();
  // 4 doubles + 16-byte header per tuple.
  EXPECT_EQ(h.split->metrics().bytes_in(), 10u * (16 + 4 * 8));
}

TEST(Split, FusedEdgeFaultsFireWhereAQueueEdgeFires) {
  // One seeded schedule (drops and corruptions) replayed on a queue edge
  // and on the fused edge: the same attempts are dropped and damaged, and
  // the two edges' gauges agree.
  const auto schedule = [] {
    auto inj = std::make_shared<FaultInjector>(5);
    inj->drop_on_channel("edge", 7, 3);
    inj->corrupt_on_channel("edge", 20, 2, CorruptionKind::kNaN);
    inj->drop_randomly("edge", 0.05, 8);
    return inj;
  };
  const auto hook = [](std::shared_ptr<FaultInjector> inj) {
    return [inj](std::uint64_t attempt) {
      return inj->on_push("edge", attempt);
    };
  };
  const auto seqs_and_nan = [](BoundedQueue<DataTuple>& q) {
    std::vector<std::pair<std::uint64_t, bool>> out;
    while (auto t = q.try_pop()) {
      out.emplace_back(t->seq, std::isnan(t->values[0] + t->values[1] +
                                          t->values[2] + t->values[3]));
    }
    return out;
  };
  constexpr std::size_t kTuples = 200;

  auto queue = make_channel<DataTuple>(kTuples);
  queue->set_fault_hook(hook(schedule()));
  auto port = make_channel<DataTuple>(kTuples);
  SplitRouter split({port}, SplitStrategy::kRoundRobin);
  split.set_fault_hook(hook(schedule()));
  split.open();
  const auto data = tiny_data(kTuples);
  for (std::size_t i = 0; i < kTuples; ++i) {
    DataTuple a;
    a.seq = i;
    a.values = data[i];
    DataTuple b = a;
    ASSERT_TRUE(queue->push(std::move(a)));
    split.route(std::move(b));
  }
  split.close();

  const QueueGauges& qg = queue->gauges();
  const QueueGauges& fg = split.edge_gauges();
  EXPECT_GE(qg.faulted.load(), 3u);
  EXPECT_EQ(qg.corrupted.load(), 2u);
  EXPECT_EQ(fg.faulted.load(), qg.faulted.load());
  EXPECT_EQ(fg.corrupted.load(), qg.corrupted.load());
  EXPECT_EQ(fg.pushed.load(), qg.pushed.load());
  EXPECT_EQ(fg.pushed.load(), fg.popped.load());  // a fused edge holds none
  EXPECT_EQ(fg.depth.load(), 0u);
  EXPECT_EQ(fg.capacity, 0u);
  EXPECT_EQ(seqs_and_nan(*queue), seqs_and_nan(*port));
}

TEST(Split, RouteRacingEnginePopsAndCloseLosesNothingUncounted) {
  // The fused split's producer routes into tiny ports that consumer
  // threads drain, while another thread closes the ports mid-stream (what
  // StreamingPcaPipeline::stop does).  Every tuple is routed exactly once
  // or counted dropped, and every routed tuple reaches a consumer.
  std::vector<ChannelPtr<DataTuple>> outs;
  for (int i = 0; i < 3; ++i) outs.push_back(make_channel<DataTuple>(4));
  SplitRouter split(outs, SplitStrategy::kRandom);
  std::atomic<std::uint64_t> received{0};
  std::vector<std::thread> consumers;
  for (auto& out : outs) {
    consumers.emplace_back([&received, out] {
      DataTuple t;
      while (out->pop(t)) received.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::atomic<bool> stop{false};
  std::uint64_t emitted = 0;
  std::thread producer([&] {
    split.open();
    while (!stop.load(std::memory_order_relaxed)) {
      DataTuple t;
      t.seq = emitted++;
      t.values = linalg::Vector(4, 1.0);
      split.route(std::move(t));
    }
    split.close();
  });
  while (split.metrics().tuples_out() < 5000) std::this_thread::yield();
  for (auto& out : outs) out->close();
  while (split.metrics().dropped() == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  for (auto& c : consumers) c.join();

  const auto counts = split.per_target_counts();
  const std::uint64_t routed = std::accumulate(counts.begin(), counts.end(),
                                               std::uint64_t{0});
  EXPECT_EQ(split.metrics().tuples_in(), emitted);
  EXPECT_EQ(routed, split.metrics().tuples_out());
  EXPECT_EQ(routed + split.metrics().dropped(), emitted);
  EXPECT_EQ(received.load(), routed);
}

}  // namespace
}  // namespace astro::stream
