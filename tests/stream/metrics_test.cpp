// Histogram, OperatorMetrics, MetricsRegistry and MetricsSampler behaviour
// — the observability layer standing in for InfoSphere's §III-D profiler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "stats/rng.h"
#include "stream/histogram.h"
#include "stream/metrics.h"
#include "stream/queue.h"
#include "stream/registry.h"
#include "stream/sampler.h"
#include "tests/stream/json_mini.h"

namespace astro::stream {
namespace {

using astro::testing::JsonParser;
using astro::testing::JsonValue;

TEST(LatencyHistogram, ValuesLandInLogBuckets) {
  LatencyHistogram h;
  // bucket_of = bit_width: 0->0, 1->1, [2,3]->2, [4,7]->3, 1023->10, 1024->11.
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(1023);
  h.record(1024);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 2u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.counts[10], 1u);
  EXPECT_EQ(s.counts[11], 1u);
  EXPECT_EQ(s.total, 7u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
  EXPECT_EQ(s.max, 1024u);
}

TEST(LatencyHistogram, BucketBoundsMatchBucketOf) {
  for (std::size_t b = 1; b < HistogramSnapshot::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::bucket_of(HistogramSnapshot::bucket_lo(b)), b);
    EXPECT_EQ(LatencyHistogram::bucket_of(HistogramSnapshot::bucket_hi(b)), b);
  }
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
}

TEST(LatencyHistogram, PercentilesAreOrderedAndBracketed) {
  stats::Rng rng(1234);
  LatencyHistogram h;
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish latencies from ns to ms.
    const std::uint64_t v = std::uint64_t(1) << rng.index(21);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    h.record(v);
  }
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.p50(), p95 = s.p95(), p99 = s.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, double(lo));
  // p99 interpolates inside the top sample's log2 bucket, so it is bounded
  // by that bucket's upper edge (< 2 * max sample).
  EXPECT_LE(p99, 2.0 * double(hi));
  EXPECT_EQ(s.max, hi);
  EXPECT_GT(s.mean(), 0.0);
}

TEST(LatencyHistogram, MergeEqualsHistogramOfConcatenatedSamples) {
  // Property: recording a sample stream into one histogram must equal
  // recording a split of it into two and merging the snapshots.
  stats::Rng rng(77);
  LatencyHistogram all, left, right;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.index(1000000);
    all.record(v);
    (i % 3 == 0 ? left : right).record(v);
  }
  HistogramSnapshot merged = left.snapshot();
  merged.merge(right.snapshot());
  const HistogramSnapshot whole = all.snapshot();
  EXPECT_EQ(merged.total, whole.total);
  EXPECT_EQ(merged.sum, whole.sum);
  EXPECT_EQ(merged.min, whole.min);
  EXPECT_EQ(merged.max, whole.max);
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    EXPECT_EQ(merged.counts[b], whole.counts[b]) << "bucket " << b;
  }
  // Percentiles are a pure function of the counts, so they agree exactly.
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.percentile(q), whole.percentile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogram, PercentilesStayInsideObservedRange) {
  // 90 samples at 10 ns and a sparse top bucket: 10 samples at 5000 ns in
  // [4096, 8191].  p95 lands halfway up that bucket, and unclamped
  // interpolation read about 6140 ns, above every recorded sample.
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(5000);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 5000u);
  EXPECT_DOUBLE_EQ(s.p95(), 5000.0);
  EXPECT_DOUBLE_EQ(s.p99(), 5000.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);  // [8, 15] bucket floor was 8
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_GE(s.percentile(q), double(s.min)) << "q=" << q;
    EXPECT_LE(s.percentile(q), double(s.max)) << "q=" << q;
  }
}

TEST(LatencyHistogram, MergeWithEmptyKeepsExtremes) {
  LatencyHistogram h;
  h.record(300);
  h.record(70);
  HistogramSnapshot s = h.snapshot();
  s.merge(HistogramSnapshot{});
  EXPECT_EQ(s.min, 70u);
  EXPECT_EQ(s.max, 300u);
  HistogramSnapshot empty;
  empty.merge(h.snapshot());
  EXPECT_EQ(empty.min, 70u);
  EXPECT_EQ(empty.max, 300u);
  EXPECT_EQ(empty.total, 2u);
}

TEST(LatencyHistogram, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(std::uint64_t(t) * 1000 + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 4u * kPerThread);
}

TEST(OperatorMetrics, ElapsedReadableWhileRunning) {
  // The old implementation stored plain TimePoints — a data race between
  // the operator thread (mark_start/mark_stop) and a sampler calling
  // elapsed_seconds().  Now both sides are atomics; hammer the pair to give
  // TSan something to chew on and sanity-check values meanwhile.
  OperatorMetrics m;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      m.mark_start();
      m.mark_stop();
    }
    done = true;
  });
  while (!done.load()) {
    const double e = m.elapsed_seconds();
    EXPECT_GE(e, 0.0);
    EXPECT_LT(e, 60.0);
  }
  writer.join();
  m.mark_start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(m.elapsed_seconds(), 0.0);  // stop unset: measures to now
  m.mark_stop();
  const double settled = m.elapsed_seconds();
  EXPECT_GT(settled, 0.0);
  EXPECT_EQ(settled, m.elapsed_seconds());  // stable once stopped
}

TEST(OperatorMetrics, HistogramAccessorsRecord) {
  OperatorMetrics m;
  m.record_proc_ns(100);
  m.record_push_wait_ns(200);
  m.record_push_wait_ns(300);
  m.record_pop_wait_ns(400);
  EXPECT_EQ(m.proc_histogram().count(), 1u);
  EXPECT_EQ(m.push_wait_histogram().count(), 2u);
  EXPECT_EQ(m.pop_wait_histogram().count(), 1u);
}

TEST(MetricsRegistry, SnapshotReflectsCountersAndGauges) {
  MetricsRegistry reg;
  OperatorMetrics m;
  m.record_in(10);
  m.record_in(20);
  m.record_out(5);
  m.record_proc_ns(1000);
  reg.add_operator("op-a", &m, {}, &reg);

  BoundedQueue<int> q(8);
  reg.add_queue("chan.a->b", q, &reg);
  int v = 1;
  q.push(1);
  q.push(2);
  q.try_push(v);
  q.pop(v);

  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.operators.size(), 1u);
  ASSERT_EQ(snap.queues.size(), 1u);
  const OperatorSnapshot* op = snap.find_operator("op-a");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->tuples_in, 2u);
  EXPECT_EQ(op->tuples_out, 1u);
  EXPECT_EQ(op->bytes_in, 30u);
  EXPECT_EQ(op->proc_ns.total, 1u);
  const QueueSnapshot* ch = snap.find_queue("chan.a->b");
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->pushed, 3u);
  EXPECT_EQ(ch->popped, 1u);
  EXPECT_EQ(ch->depth, 2u);
  EXPECT_EQ(ch->high_watermark, 3u);
  EXPECT_EQ(ch->capacity, 8u);

  reg.remove_owner(&reg);
  EXPECT_EQ(reg.operator_count(), 0u);
  EXPECT_EQ(reg.queue_count(), 0u);
}

TEST(MetricsRegistry, ExtrasAreSampledAtSnapshotTime) {
  MetricsRegistry reg;
  OperatorMetrics m;
  std::uint64_t rounds = 0;
  reg.add_operator("ctl", &m, [&rounds] {
    return std::vector<std::pair<std::string, double>>{
        {"rounds", double(rounds)}};
  });
  rounds = 17;
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.operators[0].extras.size(), 1u);
  EXPECT_EQ(snap.operators[0].extras[0].first, "rounds");
  EXPECT_EQ(snap.operators[0].extras[0].second, 17.0);
}

TEST(MetricsRegistry, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  OperatorMetrics m;
  m.record_in(100);
  m.record_out(64);
  for (int i = 1; i <= 1000; ++i) m.record_proc_ns(std::uint64_t(i));
  reg.add_operator("engine \"0\"", &m);  // name needing escaping
  BoundedQueue<int> q(4);
  q.push(1);
  reg.add_queue("chan.x", q);

  const std::string json = reg.to_json();
  const JsonValue root = JsonParser::parse(json);
  ASSERT_TRUE(root.is_object());
  EXPECT_GT(root.num("timestamp_ns"), 0.0);
  const JsonValue& ops = root.at("operators");
  ASSERT_TRUE(ops.is_array());
  ASSERT_EQ(ops.array.size(), 1u);
  const JsonValue& op = ops.array[0];
  EXPECT_EQ(op.str("name"), "engine \"0\"");
  EXPECT_EQ(op.num("tuples_in"), 1.0);
  EXPECT_EQ(op.num("bytes_in"), 100.0);
  EXPECT_EQ(op.num("tuples_out"), 1.0);
  EXPECT_EQ(op.num("bytes_out"), 64.0);
  const JsonValue& proc = op.at("proc_ns");
  EXPECT_EQ(proc.num("count"), 1000.0);
  EXPECT_LE(proc.num("p50_ns"), proc.num("p95_ns"));
  EXPECT_LE(proc.num("p95_ns"), proc.num("p99_ns"));
  EXPECT_EQ(proc.num("max_ns"), 1000.0);
  ASSERT_TRUE(proc.at("buckets").is_array());
  double bucket_total = 0;
  for (const JsonValue& pair : proc.at("buckets").array) {
    ASSERT_TRUE(pair.is_array());
    ASSERT_EQ(pair.array.size(), 2u);
    bucket_total += pair.array[1].number;
  }
  EXPECT_EQ(bucket_total, 1000.0);
  const JsonValue& queues = root.at("queues");
  ASSERT_EQ(queues.array.size(), 1u);
  EXPECT_EQ(queues.array[0].str("name"), "chan.x");
  EXPECT_EQ(queues.array[0].num("depth"), 1.0);
  EXPECT_EQ(queues.array[0].num("capacity"), 4.0);
}

TEST(MetricsSampler, CollectsHistoryAndStopsPromptly) {
  MetricsRegistry reg;
  OperatorMetrics m;
  reg.add_operator("op", &m);

  MetricsSampler sampler(reg, /*interval_seconds=*/0.005, /*max_history=*/8);
  sampler.start();
  for (int i = 0; i < 50; ++i) {
    m.record_in();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  sampler.stop();
  const auto stop_took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(stop_took, std::chrono::seconds(1));  // pop_for, not a full sleep

  const auto history = sampler.history();
  ASSERT_GE(history.size(), 2u);
  EXPECT_LE(history.size(), 8u);  // ring bounded by max_history
  // Monotone timestamps and monotone counters along the history.
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].timestamp_ns, history[i - 1].timestamp_ns);
    EXPECT_GE(history[i].operators[0].tuples_in,
              history[i - 1].operators[0].tuples_in);
  }
  // The final snapshot (taken inside stop()) sees all 50 records.
  EXPECT_EQ(history.back().operators[0].tuples_in, 50u);
}

TEST(MetricsSampler, GlobalRegistryIsUsableProcessWide) {
  OperatorMetrics m;
  MetricsRegistry::global().add_operator("tmp-op", &m, {}, &m);
  m.record_out();
  const RegistrySnapshot snap = MetricsRegistry::global().snapshot();
  const OperatorSnapshot* op = snap.find_operator("tmp-op");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->tuples_out, 1u);
  MetricsRegistry::global().remove_owner(&m);
}

}  // namespace
}  // namespace astro::stream
