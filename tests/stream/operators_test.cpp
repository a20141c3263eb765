// Source, sink, graph and metrics behaviour.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "stream/graph.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace astro::stream {
namespace {

using namespace std::chrono_literals;

TEST(GeneratorSource, EmitsUntilGeneratorEnds) {
  auto out = make_channel<DataTuple>(16);
  int remaining = 25;
  FlowGraph graph;
  graph.add<GeneratorSource>(
      "gen",
      [&]() -> std::optional<linalg::Vector> {
        if (remaining-- <= 0) return std::nullopt;
        return linalg::Vector(3, 1.0);
      },
      out);
  auto* sink = graph.add<CollectorSink<DataTuple>>("sink", out);
  graph.start();
  graph.wait();
  EXPECT_EQ(sink->count(), 25u);
  const auto items = sink->snapshot();
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].seq, i);  // monotone sequence numbers
    EXPECT_EQ(items[i].values.size(), 3u);
  }
}

TEST(GeneratorSource, RateLimitHolds) {
  auto out = make_channel<DataTuple>(512);
  int remaining = 50;
  FlowGraph graph;
  graph.add<GeneratorSource>(
      "gen",
      [&]() -> std::optional<linalg::Vector> {
        if (remaining-- <= 0) return std::nullopt;
        return linalg::Vector(1);
      },
      out, /*max_rate=*/1000.0);
  auto* sink = graph.add<CollectorSink<DataTuple>>("sink", out);
  const auto start = std::chrono::steady_clock::now();
  graph.start();
  graph.wait();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(sink->count(), 50u);
  EXPECT_GE(elapsed, 45ms);  // 50 tuples at 1000/s ~ 49 ms minimum
}

TEST(ReplaySource, PreservesOrderAndMasks) {
  std::vector<linalg::Vector> data{linalg::Vector(2, 1.0),
                                   linalg::Vector(2, 2.0)};
  std::vector<pca::PixelMask> masks{{true, false}, {}};
  auto out = make_channel<DataTuple>(4);
  FlowGraph graph;
  graph.add<ReplaySource>("replay", data, masks, out);
  auto* sink = graph.add<CollectorSink<DataTuple>>("sink", out);
  graph.start();
  graph.wait();
  const auto items = sink->snapshot();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].values[0], 1.0);
  ASSERT_EQ(items[0].mask.size(), 2u);
  EXPECT_FALSE(items[0].mask[1]);
  EXPECT_TRUE(items[1].mask.empty());
}

TEST(CallbackSink, InvokedPerTuple) {
  auto out = make_channel<DataTuple>(8);
  std::vector<std::uint64_t> seqs;
  FlowGraph graph;
  graph.add<ReplaySource>("src", std::vector<linalg::Vector>(5, linalg::Vector(1)),
                          out);
  graph.add<CallbackSink<DataTuple>>(
      "cb", out, [&](const DataTuple& t) { seqs.push_back(t.seq); });
  graph.start();
  graph.wait();
  EXPECT_EQ(seqs.size(), 5u);
}

TEST(FlowGraph, FindLocatesOperators) {
  FlowGraph graph;
  auto out = make_channel<DataTuple>(4);
  graph.add<ReplaySource>("the-source", std::vector<linalg::Vector>{}, out);
  EXPECT_NE(graph.find("the-source"), nullptr);
  EXPECT_EQ(graph.find("nope"), nullptr);
}

TEST(FlowGraph, AddAfterStartThrows) {
  FlowGraph graph;
  auto out = make_channel<DataTuple>(4);
  graph.add<ReplaySource>("src", std::vector<linalg::Vector>{}, out);
  graph.add<CollectorSink<DataTuple>>("sink", out);
  graph.start();
  EXPECT_THROW(
      graph.add<CollectorSink<DataTuple>>("late", make_channel<DataTuple>(1)),
      std::logic_error);
  graph.wait();
}

TEST(Operator, RequestStopEndsSource) {
  auto out = make_channel<DataTuple>(4);
  FlowGraph graph;
  auto* src = graph.add<GeneratorSource>(
      "endless", [] { return std::optional<linalg::Vector>(linalg::Vector(1)); },
      out);
  auto* sink = graph.add<CollectorSink<DataTuple>>("sink", out);
  graph.start();
  std::this_thread::sleep_for(20ms);
  src->request_stop();
  graph.wait();
  EXPECT_EQ(src->stop_reason(), StopReason::kRequested);
  EXPECT_GT(sink->count(), 0u);
}

TEST(Metrics, ThroughputPositiveAfterRun) {
  auto out = make_channel<DataTuple>(64);
  FlowGraph graph;
  auto* src = graph.add<ReplaySource>(
      "src", std::vector<linalg::Vector>(100, linalg::Vector(2)), out);
  graph.add<CollectorSink<DataTuple>>("sink", out);
  graph.start();
  graph.wait();
  EXPECT_EQ(src->metrics().tuples_out(), 100u);
  EXPECT_GT(src->metrics().throughput(), 0.0);
  EXPECT_GT(src->metrics().elapsed_seconds(), 0.0);
}

TEST(StopReasonNames, Strings) {
  EXPECT_EQ(to_string(StopReason::kNone), "none");
  EXPECT_EQ(to_string(StopReason::kUpstreamClosed), "upstream-closed");
  EXPECT_EQ(to_string(StopReason::kRequested), "requested");
}

}  // namespace
}  // namespace astro::stream
