// Seeded fault-schedule property for the session transport: for 20 seeds,
// derive a schedule of one in-flight bit flip, one connection reset, and
// forced partial writes from the seed, run a full stream through a
// loopback sink/server pair, and assert the conservation and determinism
// invariants the transport guarantees:
//
//   * exactly-once delivery — every tuple the source produced reaches the
//     receiver once (no loss, no duplication), faults notwithstanding;
//   * accepted == acked + lossy_dropped on the sender (here: all acked —
//     the listener never goes away, so the link never degrades);
//   * crc_rejects == flips injected and every reject is quarantined with
//     a typed reason (the schedule places flips past the header's
//     length-critical prefix, so damage is always a CRC reject, never a
//     connection-dropping protocol error);
//   * the retransmit window fully drains (window_depth == 0 at exit).
//
// Faults trigger at byte offsets of the outgoing stream, never at
// wall-clock times, so a seed's schedule replays identically run after run.
//
// The sink coalesces frames: each send() carries a whole run of them.  A
// second property cuts those runs with a partial send at every byte offset
// of a frame, with a flip and a reset landing inside a run, and asserts the
// same exactly-once and conservation ledger.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "io/frame.h"
#include "stream/fault.h"
#include "stream/graph.h"
#include "stream/net.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace astro::stream {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kDim = 6;
constexpr std::size_t kTupleFrame = io::kFrameHeaderBytes + 24 + kDim * 8;
constexpr std::size_t kHello = io::kFrameHeaderBytes;
constexpr std::size_t kTuples = 48;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct RunOutcome {
  TcpSinkCounters sink;
  TcpServerCounters server;
  std::uint64_t flips = 0;
  std::uint64_t resets = 0;
  std::size_t delivered_unique = 0;
  bool delivered_all_once = false;
};

RunOutcome run_schedule(std::uint64_t seed) {
  auto fault = std::make_shared<FaultInjector>(seed);
  std::uint64_t s = seed;

  // Partial writes everywhere: cap chunks to [5, 27] bytes.
  fault->chunk_writes(FaultInjector::kEveryConnection,
                      5 + splitmix64(s) % 23);
  // One in-flight flip on connection 0, somewhere in data frame f0's
  // payload values (frame-relative offset >= kFrameHeaderBytes keeps the
  // header intact: the damage must surface as a CRC reject).
  const std::size_t f0 = 4 + splitmix64(s) % 10;
  const std::uint64_t flip_off = kHello + f0 * kTupleFrame +
                                 io::kFrameHeaderBytes + 24 +
                                 splitmix64(s) % (kDim * 8);
  fault->flip_at(0, flip_off, std::uint8_t(1u << (splitmix64(s) % 8)));
  // One reset on connection 1 (the connection the flip recovery
  // establishes), a few frames into the replay.
  fault->reset_at(1, kHello + (1 + splitmix64(s) % 3) * kTupleFrame + 17);

  std::vector<linalg::Vector> data;
  for (std::size_t i = 0; i < kTuples; ++i) {
    linalg::Vector v(kDim);
    v[0] = double(i);
    v[kDim - 1] = double(seed);
    data.push_back(v);
  }

  TcpTransportOptions opts;
  opts.retransmit_window = 16;
  opts.connect_attempts = 10;
  opts.write_timeout = milliseconds(500);
  opts.ack_timeout = milliseconds(120);
  opts.backoff_initial = milliseconds(2);
  opts.backoff_max = milliseconds(20);
  opts.jitter_seed = seed;
  opts.fault = fault;
  TcpServerOptions sopts;
  sopts.ack_every = 4;
  sopts.exit_on_bye = true;

  auto to_sink = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  FlowGraph graph;
  auto* server =
      graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
  graph.add<ReplaySource>("replay", data, to_sink);
  auto* sink = graph.add<TcpTupleSink>("sink", server->port(), to_sink, opts);
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", from_server);
  graph.start();
  graph.wait();

  RunOutcome out;
  out.sink = sink->counters();
  out.server = server->counters();
  out.flips = fault->injected(Fault::kFlip);
  out.resets = fault->injected(Fault::kReset);
  std::set<std::uint64_t> seqs;
  bool once = true;
  for (const auto& t : collector->snapshot()) {
    once = seqs.insert(t.seq).second && once;
  }
  out.delivered_unique = seqs.size();
  out.delivered_all_once = once && seqs.size() == kTuples &&
                           (seqs.empty() || (*seqs.begin() == 0 &&
                                             *seqs.rbegin() == kTuples - 1));
  return out;
}

TEST(TransportProperty, ConservationHoldsAcross20Seeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunOutcome r = run_schedule(seed);

    // Exactly once, every seed.
    EXPECT_TRUE(r.delivered_all_once)
        << "unique=" << r.delivered_unique << " of " << kTuples;
    EXPECT_EQ(r.server.delivered, kTuples);

    // Sender-side conservation: with a live listener nothing degrades.
    EXPECT_EQ(r.sink.accepted, kTuples);
    EXPECT_EQ(r.sink.accepted, r.sink.acked + r.sink.lossy_dropped);
    EXPECT_EQ(r.sink.lossy_dropped, 0u);
    EXPECT_EQ(r.sink.window_depth, 0u);
    EXPECT_FALSE(r.sink.degraded);

    // Every scheduled fault fired, and every flip surfaced as exactly one
    // CRC reject (quarantined, not applied, later healed by retransmit).
    EXPECT_EQ(r.flips, 1u);
    EXPECT_EQ(r.resets, 1u);
    EXPECT_EQ(r.server.crc_rejects, r.flips);
    EXPECT_EQ(r.server.protocol_errors, 0u);

    // Both faults forced a reconnect: the flip stalls acks (outage), and
    // the reset kills the recovery's replay connection mid-episode — so at
    // least one outage episode but two fresh connections and sessions.
    EXPECT_GE(r.sink.outages, 1u);
    EXPECT_GE(r.sink.reconnects, 2u);
    EXPECT_GE(r.sink.retransmits, 1u);
    EXPECT_GE(r.sink.sessions, 3u);
    EXPECT_LE(r.sink.sessions, r.sink.reconnects + 1);
    EXPECT_GE(r.server.resumes + 1, r.server.sessions);
    EXPECT_EQ(r.server.byes, 1u);
  }
}

TEST(TransportProperty, CoalescedBurstsCutAtEveryOffsetConserve) {
  // The whole stream is queued before the sink starts, so it never waits
  // for input: every send carries a run of half the window (4 frames, 384
  // bytes).  Chunk cap `cut` ends the first partial send of every run
  // `cut` bytes in; over cut = 1..frame size that is every byte offset of
  // a frame.  The flip damages frame 5, the middle of the second run; the
  // reset kills the recovery's replay inside its first run.
  constexpr std::size_t kN = 24;
  for (std::size_t cut = 1; cut <= kTupleFrame; ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    auto fault = std::make_shared<FaultInjector>(cut);
    fault->chunk_writes(FaultInjector::kEveryConnection, cut);
    fault->flip_at(0, kHello + 5 * kTupleFrame + io::kFrameHeaderBytes + 24 +
                          cut % (kDim * 8));
    fault->reset_at(1, kHello + 2 * kTupleFrame + cut % kTupleFrame);

    auto to_sink = make_channel<DataTuple>(kN);
    auto from_server = make_channel<DataTuple>(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      DataTuple t;
      t.seq = i;
      t.values = linalg::Vector(kDim, double(i));
      ASSERT_TRUE(to_sink->push(std::move(t)));
    }
    to_sink->close();

    TcpTransportOptions opts;
    opts.retransmit_window = 8;
    opts.write_timeout = milliseconds(500);
    opts.ack_timeout = milliseconds(40);
    opts.backoff_initial = milliseconds(1);
    opts.backoff_max = milliseconds(4);
    opts.fault = fault;
    TcpServerOptions sopts;
    sopts.ack_every = 4;
    sopts.exit_on_bye = true;
    FlowGraph graph;
    auto* server =
        graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
    auto* sink =
        graph.add<TcpTupleSink>("sink", server->port(), to_sink, opts);
    auto* collector =
        graph.add<CollectorSink<DataTuple>>("collect", from_server);
    graph.start();
    graph.wait();

    std::set<std::uint64_t> seqs;
    for (const auto& t : collector->snapshot()) {
      EXPECT_TRUE(seqs.insert(t.seq).second) << "duplicate seq " << t.seq;
    }
    EXPECT_EQ(seqs.size(), kN);
    EXPECT_EQ(fault->injected(Fault::kFlip), 1u);
    EXPECT_EQ(fault->injected(Fault::kReset), 1u);

    // Applied + quarantined == emitted, on both sides of the link.
    const TcpServerCounters sc = server->counters();
    const TcpSinkCounters kc = sink->counters();
    EXPECT_EQ(sc.delivered, kN);
    EXPECT_EQ(sc.crc_rejects, 1u);
    EXPECT_EQ(sc.protocol_errors, 0u);
    const OperatorMetrics& m = server->metrics();
    EXPECT_EQ(m.tuples_in(),
              m.tuples_out() + m.dropped() + sc.duplicates + sc.out_of_order);
    EXPECT_EQ(kc.accepted, kN);
    EXPECT_EQ(kc.acked, kN);
    EXPECT_EQ(kc.lossy_dropped, 0u);
    EXPECT_EQ(kc.window_depth, 0u);
    EXPECT_GE(kc.retransmits, 1u);
  }
}

TEST(TransportProperty, SameSeedReplaysTheSameFaultSchedule) {
  // Determinism spot-check: a seed's schedule produces the same fault
  // counts and the same conservation outcome on a second run.
  const RunOutcome a = run_schedule(7);
  const RunOutcome b = run_schedule(7);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.resets, b.resets);
  EXPECT_EQ(a.server.crc_rejects, b.server.crc_rejects);
  EXPECT_EQ(a.sink.accepted, b.sink.accepted);
  EXPECT_EQ(a.sink.acked, b.sink.acked);
  EXPECT_TRUE(a.delivered_all_once);
  EXPECT_TRUE(b.delivered_all_once);
}

}  // namespace
}  // namespace astro::stream
