// In-process ShmTupleSink / ShmTupleServer session scenarios (DESIGN.md
// "Transport", "Shared-memory leg"): exactly-once delivery over the ring,
// slot corruption riding the dead-letter quarantine with exact
// conservation, consumer restart replaying the unconsumed suffix,
// producer death mid-commit, the degraded counted-lossy fallback with
// heal, stalled-consumer backpressure, and the full pipeline running with
// transport.kind = kShm.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "io/frame.h"
#include "stream/shm_net.h"

namespace astro::stream {
namespace {

using std::chrono::milliseconds;

std::string unique_segment(const std::string& tag) {
  return "astro-sess-" + std::to_string(::getpid()) + "-" + tag;
}

DataTuple make_tuple(std::uint64_t seq, std::size_t dim) {
  DataTuple t;
  t.seq = seq;
  t.timestamp_us = std::int64_t(seq);
  t.values = linalg::Vector(dim, double(seq % 89) + 0.5);
  return t;
}

/// Feed kN tuples (seq 0..kN-1) and close the channel.
void feed(const ChannelPtr<DataTuple>& in, std::size_t n, std::size_t dim) {
  for (std::uint64_t i = 0; i < n; ++i) {
    DataTuple t = make_tuple(i, dim);
    if (!in->push(std::move(t))) return;
  }
  in->close();
}

/// Drain a channel into a seq vector until it closes.
std::vector<std::uint64_t> collect(const ChannelPtr<DataTuple>& out) {
  std::vector<std::uint64_t> seqs;
  DataTuple t;
  while (out->pop(t)) seqs.push_back(t.seq);
  return seqs;
}

TEST(ShmSession, ExactlyOnceCleanStream) {
  constexpr std::size_t kN = 500;
  constexpr std::size_t kDim = 6;
  ShmTransportOptions opts;
  opts.ring_capacity = 32;  // << kN: wraps and backpressure on the way
  opts.max_frame_bytes = 256;

  auto in = make_channel<DataTuple>(64);
  auto out = make_channel<DataTuple>(64);
  const std::string seg = unique_segment("clean");
  ShmTupleSink sink("uplink", seg, in, opts);
  ShmTupleServer server("downlink", seg, out, opts);
  server.start();
  sink.start();

  std::thread feeder(feed, in, kN, kDim);
  const std::vector<std::uint64_t> got = collect(out);
  feeder.join();
  sink.join();
  server.join();

  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);

  const ShmSinkCounters sc = sink.counters();
  EXPECT_EQ(sc.accepted, kN);
  EXPECT_EQ(sc.acked, kN);
  EXPECT_EQ(sc.lossy_dropped, 0u);
  EXPECT_EQ(sc.frames_committed, kN);
  EXPECT_GE(sc.wraps, kN / opts.ring_capacity - 1);
  EXPECT_FALSE(sc.degraded);
  EXPECT_EQ(sink.stop_reason(), StopReason::kUpstreamClosed);

  const ShmServerCounters vc = server.counters();
  EXPECT_EQ(vc.delivered, kN);
  EXPECT_EQ(vc.duplicates, 0u);
  EXPECT_EQ(vc.crc_rejects, 0u);
  EXPECT_EQ(vc.quarantined, 0u);
  EXPECT_EQ(vc.sessions, 1u);
  EXPECT_EQ(vc.byes, 1u);
  EXPECT_EQ(server.stop_reason(), StopReason::kUpstreamClosed);
}

TEST(ShmSession, CorruptSlotsQuarantineWithExactConservation) {
  constexpr std::size_t kN = 300;
  constexpr std::size_t kDim = 6;
  auto fault = std::make_shared<FaultInjector>(11);
  // Offsets past the header (>= 28) keep the frame decodable but CRC-dead:
  // the quarantine path, not the protocol-error path.
  fault->corrupt_slot(17, 30);
  fault->corrupt_slot(100, 55, 0x40);
  fault->corrupt_slot(250, 80, 0xFF);

  ShmTransportOptions opts;
  opts.ring_capacity = 32;
  opts.max_frame_bytes = 256;
  opts.fault = fault;

  auto in = make_channel<DataTuple>(64);
  auto out = make_channel<DataTuple>(64);
  Recorder<DeadLetter> dead(64);
  const std::string seg = unique_segment("corrupt");
  ShmTupleSink sink("uplink", seg, in, opts);
  ShmTupleServer server("downlink", seg, out, opts);
  server.set_dead_letters(&dead);
  server.start();
  sink.start();

  std::thread feeder(feed, in, kN, kDim);
  const std::vector<std::uint64_t> got = collect(out);
  feeder.join();
  sink.join();
  server.join();

  // Conservation: every committed frame is either delivered or a counted
  // quarantined husk — nothing vanishes, nothing doubles.
  const ShmServerCounters vc = server.counters();
  EXPECT_EQ(vc.crc_rejects, 3u);
  EXPECT_EQ(vc.quarantined, 3u);
  EXPECT_EQ(vc.delivered, kN - 3);
  EXPECT_EQ(vc.delivered + vc.quarantined, kN);
  EXPECT_EQ(vc.dead_letters, 3u);
  EXPECT_EQ(got.size(), kN - 3);
  const std::set<std::uint64_t> got_set(got.begin(), got.end());
  EXPECT_EQ(got_set.size(), got.size()) << "duplicated delivery";
  // Transport seqs 17/100/250 carry tuple seqs 16/99/249.
  EXPECT_EQ(got_set.count(16), 0u);
  EXPECT_EQ(got_set.count(99), 0u);
  EXPECT_EQ(got_set.count(249), 0u);

  // The husks carry the claimed transport seqs, typed kCorruptFrame.
  std::vector<std::uint64_t> husk_seqs;
  for (const DeadLetter& dl : dead.retained()) {
    EXPECT_EQ(dl.reason, spectra::RejectReason::kCorruptFrame);
    husk_seqs.push_back(dl.tuple.seq);
  }
  EXPECT_EQ(husk_seqs, (std::vector<std::uint64_t>{17, 100, 250}));

  // Every judged frame counts once in and lands in exactly one bin (the
  // ring has no out-of-order bin).
  const OperatorMetrics& m = server.metrics();
  EXPECT_EQ(m.tuples_in(), m.tuples_out() + m.dropped() + vc.duplicates);

  // Sink-side: corruption is a receiver-side reject, not a sender loss —
  // the tail still covers the husks, so the flush completes cleanly.
  const ShmSinkCounters sc = sink.counters();
  EXPECT_EQ(sc.accepted, kN);
  EXPECT_EQ(sc.acked, kN);
  EXPECT_EQ(sc.lossy_dropped, 0u);
  EXPECT_EQ(fault->injected(Fault::kFlip), 3u);
}

TEST(ShmSession, MalformedBodiesAndFullDeadLettersNeverBlock) {
  // Frames staged by hand: one CRC-valid kTuple frame whose body is
  // malformed, then frames damaged after their CRC was computed.  Every
  // one is rejected; the dead-letter recorder retains one husk, the
  // newest, and counts them all, while the consumer keeps going until the
  // bye.
  constexpr std::size_t kDamaged = 3;
  ShmTransportOptions opts;
  opts.ring_capacity = 8;
  opts.max_frame_bytes = 256;
  const std::string seg = unique_segment("malformed");
  auto segment = ShmRingSegment::create(
      seg, opts.ring_capacity, kShmSlotPrefixBytes + opts.max_frame_bytes);
  ShmRingProducer prod(*segment);
  const auto stage = [&prod](const std::vector<std::uint8_t>& frame) {
    const std::uint64_t seq = prod.next_seq();
    const std::span<std::uint8_t> slot = prod.stage(seq);
    std::copy(frame.begin(), frame.end(), slot.begin());
    prod.commit(seq, frame.size());
  };
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};  // too short
  stage(io::encode_frame(io::FrameType::kTuple, 1, body));
  for (std::uint64_t k = 0; k < kDamaged; ++k) {
    auto frame = io::encode_tuple(make_tuple(k, 4), 2 + k);
    frame[io::kFrameHeaderBytes + 4] ^= 0x10;
    stage(frame);
  }
  prod.set_bye();

  auto out = make_channel<DataTuple>(16);
  Recorder<DeadLetter> dead(1);
  ShmTupleServer server("downlink", seg, out, opts);
  server.set_dead_letters(&dead);
  server.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().byes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_EQ(server.counters().byes, 1u) << "the consumer blocked";
  server.join();

  const ShmServerCounters vc = server.counters();
  EXPECT_EQ(vc.payload_rejects, 1u);
  EXPECT_EQ(vc.crc_rejects, kDamaged);
  EXPECT_EQ(vc.quarantined, 1 + kDamaged);
  EXPECT_EQ(vc.dead_letters, vc.crc_rejects + vc.payload_rejects);
  EXPECT_EQ(dead.count(spectra::RejectReason::kCorruptFrame), vc.dead_letters);
  ASSERT_EQ(dead.retained().size(), 1u);
  EXPECT_EQ(dead.retained().front().tuple.seq, 1 + kDamaged);
  EXPECT_EQ(vc.delivered, 0u);
  EXPECT_EQ(out->size(), 0u) << "a rejected frame was delivered";
  EXPECT_EQ(prod.tail(), prod.head()) << "husks must free their slots";
  const OperatorMetrics& m = server.metrics();
  EXPECT_EQ(m.tuples_in(), m.tuples_out() + m.dropped() + vc.duplicates);
}

TEST(ShmSession, ConsumerRestartReplaysExactlyTheUnconsumedSuffix) {
  constexpr std::size_t kN = 400;
  constexpr std::size_t kDim = 4;
  ShmTransportOptions opts;
  opts.ring_capacity = 512;  // everything stays resident for the replay
  opts.max_frame_bytes = 256;

  auto in = make_channel<DataTuple>(64);
  const std::string seg = unique_segment("restart");
  ShmTupleSink sink("uplink", seg, in, opts);

  // The durable application state shared by both consumer incarnations:
  // the count of applied tuples IS the applied transport watermark.
  std::atomic<std::uint64_t> applied{0};
  std::vector<std::uint64_t> log;

  auto out1 = make_channel<DataTuple>(16);
  auto server1 = std::make_unique<ShmTupleServer>("downlink", seg, out1, opts);
  server1->set_applied_watermark(
      [&applied] { return applied.load(std::memory_order_acquire); });
  server1->start();
  sink.start();
  std::thread feeder(feed, in, kN, kDim);

  // Apply roughly half the stream durably, then "crash" the consumer.
  DataTuple t;
  while (applied.load(std::memory_order_relaxed) < kN / 2 && out1->pop(t)) {
    log.push_back(t.seq);
    applied.fetch_add(1, std::memory_order_release);
  }
  server1->request_stop();
  // Whatever was already delivered into the channel when the stop landed
  // still gets applied (a real consumer drains its queue before dying —
  // tuples past the watermark are replayed anyway).
  while (out1->pop(t)) {
    log.push_back(t.seq);
    applied.fetch_add(1, std::memory_order_release);
  }
  server1->join();
  const std::uint64_t durable_at_crash = applied.load();
  ASSERT_LT(durable_at_crash, kN);

  // Second incarnation: resumes at the recovered durable count.
  auto out2 = make_channel<DataTuple>(16);
  ShmTupleServer server2("downlink", seg, out2, opts);
  server2.set_resume_point([durable_at_crash] { return durable_at_crash; });
  server2.set_applied_watermark(
      [&applied] { return applied.load(std::memory_order_acquire); });
  server2.start();
  while (out2->pop(t)) {
    log.push_back(t.seq);
    applied.fetch_add(1, std::memory_order_release);
  }
  feeder.join();
  sink.join();
  server2.join();

  // The merged durable log: every tuple exactly once, in order.
  ASSERT_EQ(log.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(log[i], i);

  const ShmServerCounters v2 = server2.counters();
  EXPECT_EQ(v2.resumes, 1u);
  EXPECT_EQ(v2.byes, 1u);
  EXPECT_EQ(v2.delivered, kN - durable_at_crash);

  const ShmSinkCounters sc = sink.counters();
  EXPECT_EQ(sc.accepted, kN);
  EXPECT_EQ(sc.acked, kN);
  EXPECT_EQ(sc.lossy_dropped, 0u);
  EXPECT_GE(sc.consumer_generations, 2u);
  EXPECT_EQ(sink.stop_reason(), StopReason::kUpstreamClosed);
}

TEST(ShmSession, ProducerDeathMidCommitIsDetected) {
  constexpr std::size_t kN = 120;
  constexpr std::size_t kDim = 4;
  auto fault = std::make_shared<FaultInjector>(3);
  fault->die_at_commit(50);

  ShmTransportOptions opts;
  opts.ring_capacity = 256;
  opts.max_frame_bytes = 256;
  // In-process both ends share a pid, so death shows only as heartbeat
  // staleness — keep it short so the test is brisk.
  opts.peer_timeout = milliseconds(150);
  opts.fault = fault;

  auto in = make_channel<DataTuple>(kN + 8);  // feeder never blocks on a
  auto out = make_channel<DataTuple>(256);    // dead sink
  const std::string seg = unique_segment("die");
  ShmTupleSink sink("uplink", seg, in, opts);
  ShmTupleServer server("downlink", seg, out, opts);
  server.start();
  sink.start();
  std::thread feeder(feed, in, kN, kDim);
  const std::vector<std::uint64_t> got = collect(out);
  feeder.join();
  sink.join();
  server.join();

  // Seq 50's slot was written but never committed: the stream ends at 49.
  EXPECT_EQ(got.size(), 49u);
  EXPECT_EQ(sink.stop_reason(), StopReason::kError);
  EXPECT_EQ(fault->injected(Fault::kDie), 1u);

  const ShmServerCounters vc = server.counters();
  EXPECT_EQ(vc.delivered, 49u);
  EXPECT_EQ(vc.byes, 0u) << "a crashed producer never says goodbye";
  EXPECT_EQ(vc.producer_deaths, 1u);
  EXPECT_EQ(server.stop_reason(), StopReason::kError);
}

TEST(ShmSession, DegradedWithoutConsumerThenHealsOnAttach) {
  constexpr std::size_t kN = 200;
  constexpr std::size_t kDim = 4;
  ShmTransportOptions opts;
  opts.ring_capacity = 8;
  opts.max_frame_bytes = 256;
  opts.peer_timeout = milliseconds(100);
  opts.restart_timeout = milliseconds(150);  // degrade fast: nobody attaches

  auto in = make_channel<DataTuple>(32);
  const std::string seg = unique_segment("degrade");
  ShmTupleSink sink("uplink", seg, in, opts);
  sink.start();
  for (std::uint64_t i = 0; i < kN / 2; ++i) {
    DataTuple t = make_tuple(i, kDim);
    ASSERT_TRUE(in->push(std::move(t)));  // channel stays open for phase two
  }

  // No consumer: the ring fills, the wait gives up after restart_timeout,
  // and the sink flows on counting every drop.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sink.counters().degraded &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  ASSERT_TRUE(sink.counters().degraded) << "sink never degraded";
  EXPECT_GE(sink.counters().blocked_waits, 1u);

  // A consumer finally attaches: the sink heals and the rest flows.  The
  // second half is fed only once the sink has healed, so a server thread
  // the scheduler starts late cannot leave phase two to a sink that still
  // (correctly) has no consumer to send to.
  auto out = make_channel<DataTuple>(256);
  ShmTupleServer server("downlink", seg, out, opts);
  server.start();
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sink.counters().degraded &&
         std::chrono::steady_clock::now() < heal_deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_FALSE(sink.counters().degraded) << "sink never healed on attach";
  std::thread feeder2([&] {
    for (std::uint64_t i = kN / 2; i < kN; ++i) {
      DataTuple t = make_tuple(i, kDim);
      if (!in->push(std::move(t))) return;
    }
    in->close();
  });
  const std::vector<std::uint64_t> got = collect(out);
  feeder2.join();
  sink.join();
  server.join();

  const ShmSinkCounters sc = sink.counters();
  EXPECT_EQ(sc.accepted, kN);
  EXPECT_GT(sc.lossy_dropped, 0u) << "the outage must be visible";
  EXPECT_EQ(sc.acked + sc.lossy_dropped, sc.accepted)
      << "conservation must close exactly";
  EXPECT_FALSE(sc.degraded) << "the heal must stick";
  EXPECT_GE(sc.acked, opts.ring_capacity + kN / 2)
      << "all of phase two must be delivered";
  EXPECT_EQ(got.size(), sc.acked);
  EXPECT_EQ(server.counters().delivered, sc.acked);
}

TEST(ShmSession, StalledConsumerExercisesBackpressure) {
  constexpr std::size_t kN = 100;
  constexpr std::size_t kDim = 4;
  auto fault = std::make_shared<FaultInjector>(5);
  fault->stall_consume(10, milliseconds(120));

  ShmTransportOptions opts;
  opts.ring_capacity = 8;  // stall backs the ring up behind seq 10
  opts.max_frame_bytes = 256;
  opts.peer_timeout = milliseconds(500);  // the stalled consumer still beats
  opts.fault = fault;

  auto in = make_channel<DataTuple>(32);
  auto out = make_channel<DataTuple>(256);
  const std::string seg = unique_segment("stall");
  ShmTupleSink sink("uplink", seg, in, opts);
  ShmTupleServer server("downlink", seg, out, opts);
  server.start();
  sink.start();
  std::thread feeder(feed, in, kN, kDim);
  const std::vector<std::uint64_t> got = collect(out);
  feeder.join();
  sink.join();
  server.join();

  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i);
  const ShmSinkCounters sc = sink.counters();
  EXPECT_EQ(sc.acked, kN);
  EXPECT_EQ(sc.lossy_dropped, 0u);
  EXPECT_GE(sc.blocked_waits, 1u) << "the stall must back the producer up";
  EXPECT_GE(sc.wraps, 1u);
  EXPECT_EQ(fault->injected(Fault::kStall), 1u);
}

TEST(ShmSession, OversizedTupleIsCountedNeverTruncated) {
  ShmTransportOptions opts;
  opts.ring_capacity = 8;
  opts.max_frame_bytes = 96;  // fits dim 4, not dim 32

  auto in = make_channel<DataTuple>(16);
  auto out = make_channel<DataTuple>(16);
  const std::string seg = unique_segment("oversize");
  ShmTupleSink sink("uplink", seg, in, opts);
  ShmTupleServer server("downlink", seg, out, opts);
  server.start();
  sink.start();
  in->push(make_tuple(0, 4));
  in->push(make_tuple(1, 32));  // too big for a slot
  in->push(make_tuple(2, 4));
  in->close();
  const std::vector<std::uint64_t> got = collect(out);
  sink.join();
  server.join();

  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 2}));
  const ShmSinkCounters sc = sink.counters();
  EXPECT_EQ(sc.accepted, 3u);
  EXPECT_EQ(sc.oversize_dropped, 1u);
  EXPECT_EQ(sc.lossy_dropped, 1u);
  EXPECT_EQ(sc.acked, 2u);
}

TEST(ShmSession, PipelineRunsStageBehindTheRing) {
  // The full Figure 2 graph with the source->split boundary behind the shm
  // ring: conservation through the transport, engines see every tuple, and
  // the ring's counters surface in the metrics registry.
  constexpr std::size_t kN = 400;
  constexpr std::size_t kDim = 8;
  std::vector<linalg::Vector> data;
  data.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    linalg::Vector v(kDim);
    for (std::size_t j = 0; j < kDim; ++j) {
      v[j] = double((i * 31 + j * 7) % 101) / 10.0;
    }
    data.push_back(std::move(v));
  }

  app::PipelineConfig config;
  config.pca.dim = kDim;
  config.pca.rank = 3;
  config.engines = 2;
  config.sync_rate_hz = 0.0;
  config.transport.enabled = true;
  config.transport.kind = app::PipelineConfig::TransportOptions::Kind::kShm;
  config.transport.shm.ring_capacity = 64;

  app::StreamingPcaPipeline pipeline(config, std::move(data));
  pipeline.run();

  const ShmTupleSink* uplink = pipeline.transport_shm_uplink();
  const ShmTupleServer* downlink = pipeline.transport_shm_downlink();
  ASSERT_NE(uplink, nullptr);
  ASSERT_NE(downlink, nullptr);
  EXPECT_EQ(pipeline.transport_uplink(), nullptr) << "TCP leg must be off";

  const ShmSinkCounters sc = uplink->counters();
  EXPECT_EQ(sc.accepted, kN);
  EXPECT_EQ(sc.acked, kN);
  EXPECT_EQ(sc.lossy_dropped, 0u);
  const ShmServerCounters vc = downlink->counters();
  EXPECT_EQ(vc.delivered, kN);
  EXPECT_EQ(vc.byes, 1u);

  // Every tuple crossed the ring and reached an engine.
  std::uint64_t applied = 0;
  for (const auto& st : pipeline.engine_stats()) applied += st.tuples;
  EXPECT_EQ(applied, kN);
  EXPECT_EQ(pipeline.result().mean().size(), kDim);

  // Ring metrics ride the registry; the arena stays engaged on the shm
  // path (the zero-alloc property the bench gates).
  const std::string json = pipeline.metrics_json();
  EXPECT_NE(json.find("ring_depth"), std::string::npos);
  EXPECT_NE(json.find("blocked_waits"), std::string::npos);
  EXPECT_NE(json.find("wraps"), std::string::npos);
  EXPECT_NE(json.find("arena_leased"), std::string::npos);
}

}  // namespace
}  // namespace astro::stream
