// In-process scenario tests for the session transport: one loopback
// TcpTupleSink / TcpTupleServer pair per test, driven through a seeded
// FaultInjector so every reconnect, retransmit, and CRC reject
// happens at an exact byte offset of the outgoing stream — the scenarios
// replay identically run after run.
//
// Wire geometry the offsets rely on (io/frame.h): a dim-6 unmasked tuple
// frame is kFrameHeaderBytes (24) + 24 bytes of fixed payload fields +
// 6 * 8 value bytes = 96 bytes; a control frame is bare 24-byte header.
// Connection 0's outgoing stream is therefore
//     [0, 24)               HELLO
//     [24 + 96k, 24+96(k+1)) data frame with transport seq k+1.

#include "stream/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "io/frame.h"
#include "stream/dead_letter.h"
#include "stream/fault.h"
#include "stream/graph.h"
#include "stream/recorder.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace astro::stream {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kDim = 6;
constexpr std::size_t kTupleFrame = io::kFrameHeaderBytes + 24 + kDim * 8;
constexpr std::size_t kHello = io::kFrameHeaderBytes;

/// Byte offset (within a connection whose stream starts with a HELLO) of
/// data frame `k` (0-based), plus `within` bytes into that frame.
constexpr std::uint64_t frame_offset(std::size_t k, std::size_t within) {
  return kHello + k * kTupleFrame + within;
}

std::vector<linalg::Vector> payload(std::size_t n) {
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector v(kDim);
    v[0] = double(i);
    v[kDim - 1] = -double(i);
    out.push_back(v);
  }
  return out;
}

/// Fast-failure transport options for tests: small deadlines, tiny backoff.
TcpTransportOptions fast_opts(std::shared_ptr<FaultInjector> fault) {
  TcpTransportOptions o;
  o.retransmit_window = 16;
  o.connect_attempts = 10;
  o.connect_timeout = milliseconds(500);
  o.write_timeout = milliseconds(200);
  o.ack_timeout = milliseconds(150);
  o.backoff_initial = milliseconds(5);
  o.backoff_max = milliseconds(40);
  o.heal_interval = milliseconds(150);
  o.fault = std::move(fault);
  return o;
}

void expect_exactly_once(const std::vector<DataTuple>& items, std::size_t n) {
  std::set<std::uint64_t> seqs;
  for (const auto& t : items) {
    EXPECT_TRUE(seqs.insert(t.seq).second) << "duplicate seq " << t.seq;
  }
  EXPECT_EQ(seqs.size(), n);
  if (!seqs.empty()) {
    EXPECT_EQ(*seqs.begin(), 0u);
    EXPECT_EQ(*seqs.rbegin(), n - 1);
  }
}

TEST(TransportSession, ResumesAfterConnectionReset) {
  constexpr std::size_t kN = 60;
  auto fault = std::make_shared<FaultInjector>(11);
  // Kill the send covering data frame 20 on the first connection.
  fault->reset_at(0, frame_offset(20, 40));

  auto to_sink = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  FlowGraph graph;
  TcpServerOptions sopts;
  sopts.ack_every = 4;
  sopts.exit_on_bye = true;
  auto* server =
      graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
  graph.add<ReplaySource>("replay", payload(kN), to_sink);
  auto* sink = graph.add<TcpTupleSink>("sink", server->port(), to_sink,
                                       fast_opts(fault));
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", from_server);
  graph.start();
  graph.wait();

  expect_exactly_once(collector->snapshot(), kN);
  EXPECT_EQ(fault->injected(Fault::kReset), 1u);
  const TcpSinkCounters c = sink->counters();
  EXPECT_EQ(c.accepted, kN);
  EXPECT_EQ(c.acked, kN);
  EXPECT_EQ(c.lossy_dropped, 0u);
  EXPECT_GE(c.outages, 1u);
  EXPECT_GE(c.reconnects, 1u);
  EXPECT_GE(c.sessions, 2u);
  EXPECT_LE(c.sessions, c.reconnects + 1);
  EXPECT_EQ(c.window_depth, 0u);
  EXPECT_FALSE(c.degraded);
  const TcpServerCounters s = server->counters();
  EXPECT_EQ(s.delivered, kN);
  EXPECT_EQ(s.crc_rejects, 0u);
  EXPECT_GE(s.resumes, 1u);
  EXPECT_EQ(s.byes, 1u);
}

TEST(TransportSession, CrcRejectQuarantinedThenHealedByRetransmit) {
  constexpr std::size_t kN = 30;
  auto fault = std::make_shared<FaultInjector>(12);
  // Damage one payload byte of data frame 5 in flight.  The header stays
  // intact, so the receiver sees a well-framed message whose CRC32C fails:
  // it must quarantine the frame (dead letter, typed reason), never apply
  // it, and never ack it — the sender's resume replays it clean.
  fault->flip_at(0, frame_offset(5, 40), 0x20);

  auto to_sink = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  Recorder<DeadLetter> dead(16);
  FlowGraph graph;
  TcpServerOptions sopts;
  sopts.ack_every = 4;
  sopts.exit_on_bye = true;
  auto* server =
      graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
  server->set_dead_letters(&dead);
  graph.add<ReplaySource>("replay", payload(kN), to_sink);
  auto* sink = graph.add<TcpTupleSink>("sink", server->port(), to_sink,
                                       fast_opts(fault));
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", from_server);
  graph.start();
  graph.wait();

  expect_exactly_once(collector->snapshot(), kN);
  EXPECT_EQ(fault->injected(Fault::kFlip), 1u);
  const TcpServerCounters s = server->counters();
  EXPECT_EQ(s.crc_rejects, 1u);
  EXPECT_EQ(s.dead_letters, 1u);
  EXPECT_EQ(s.delivered, kN);
  EXPECT_EQ(dead.count(spectra::RejectReason::kCorruptFrame), 1u);
  // Every judged data frame counts once in and lands in exactly one bin.
  const OperatorMetrics& m = server->metrics();
  EXPECT_EQ(m.tuples_in(),
            m.tuples_out() + m.dropped() + s.duplicates + s.out_of_order);
  const TcpSinkCounters c = sink->counters();
  EXPECT_EQ(c.acked, kN);
  EXPECT_EQ(c.lossy_dropped, 0u);
  // The damaged frame was never acked, so the recovery must have re-sent it.
  EXPECT_GE(c.retransmits, 1u);
  EXPECT_GE(c.outages, 1u);
}

TEST(TransportSession, MalformedBodiesAndFullDeadLettersNeverBlock) {
  // A raw client speaks the wire protocol by hand: one CRC-valid kTuple
  // frame whose body is malformed, then frames damaged after their CRC was
  // computed.  Every one is rejected; the dead-letter recorder retains one
  // husk, the newest, and counts them all, while the receive loop keeps
  // going until the kBye.
  constexpr std::size_t kDamaged = 3;
  auto out = make_channel<DataTuple>(16);
  Recorder<DeadLetter> dead(1);
  TcpServerOptions sopts;
  sopts.exit_on_bye = true;
  TcpTupleServer server("server", 0, out, 1, sopts);
  server.set_dead_letters(&dead);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::vector<std::uint8_t> wire =
      io::encode_control_frame(io::FrameType::kHello, 0);
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};  // too short
  const auto malformed = io::encode_frame(io::FrameType::kTuple, 1, body);
  wire.insert(wire.end(), malformed.begin(), malformed.end());
  DataTuple t;
  t.values = linalg::Vector(kDim, 1.0);
  for (std::uint64_t k = 0; k < kDamaged; ++k) {
    auto frame = io::encode_tuple(t, 2 + k);
    frame[io::kFrameHeaderBytes + 4] ^= 0x10;
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  const auto bye = io::encode_control_frame(io::FrameType::kBye, 1 + kDamaged);
  wire.insert(wire.end(), bye.begin(), bye.end());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            ssize_t(wire.size()));

  // exit_on_bye: the server ends once it read everything up to the kBye.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().byes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ::close(fd);
  ASSERT_EQ(server.counters().byes, 1u) << "the receive loop blocked";
  server.join();

  const TcpServerCounters s = server.counters();
  EXPECT_EQ(s.payload_rejects, 1u);
  EXPECT_EQ(s.crc_rejects, kDamaged);
  EXPECT_EQ(s.dead_letters, s.crc_rejects + s.payload_rejects);
  EXPECT_EQ(dead.count(spectra::RejectReason::kCorruptFrame), s.dead_letters);
  ASSERT_EQ(dead.retained().size(), 1u);
  EXPECT_EQ(dead.retained().front().tuple.seq, 1 + kDamaged);
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(out->size(), 0u) << "a rejected frame was delivered";
  const OperatorMetrics& m = server.metrics();
  EXPECT_EQ(m.tuples_in(),
            m.tuples_out() + m.dropped() + s.duplicates + s.out_of_order);
}

TEST(TransportSession, StalledLinkHitsWriteDeadlineAndRecovers) {
  constexpr std::size_t kN = 40;
  auto fault = std::make_shared<FaultInjector>(13);
  // Hold the send covering data frame 10 for longer than the write
  // deadline: the sink must declare the connection dead instead of
  // blocking, then reconnect and resume.
  fault->stall_at(0, frame_offset(10, 8), milliseconds(600));

  auto to_sink = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  FlowGraph graph;
  TcpServerOptions sopts;
  sopts.exit_on_bye = true;
  auto* server =
      graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
  graph.add<ReplaySource>("replay", payload(kN), to_sink);
  auto* sink = graph.add<TcpTupleSink>("sink", server->port(), to_sink,
                                       fast_opts(fault));
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", from_server);
  graph.start();
  graph.wait();

  expect_exactly_once(collector->snapshot(), kN);
  EXPECT_EQ(fault->injected(Fault::kStall), 1u);
  const TcpSinkCounters c = sink->counters();
  EXPECT_EQ(c.acked, kN);
  EXPECT_EQ(c.lossy_dropped, 0u);
  EXPECT_GE(c.outages, 1u);
}

TEST(TransportSession, ForcedPartialWritesDeliverEverything) {
  // Cap every send to 7 bytes: each 96-byte frame takes >= 14 kernel
  // writes, exercising the poll-driven partial-write loop on every frame.
  constexpr std::size_t kN = 50;
  auto fault = std::make_shared<FaultInjector>(14);
  fault->chunk_writes(FaultInjector::kEveryConnection, 7);

  auto to_sink = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  FlowGraph graph;
  TcpServerOptions sopts;
  sopts.exit_on_bye = true;
  auto* server =
      graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
  graph.add<ReplaySource>("replay", payload(kN), to_sink);
  auto* sink = graph.add<TcpTupleSink>("sink", server->port(), to_sink,
                                       fast_opts(fault));
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", from_server);
  graph.start();
  graph.wait();

  expect_exactly_once(collector->snapshot(), kN);
  EXPECT_GT(fault->injected(Fault::kPartialSend), kN);
  const TcpSinkCounters c = sink->counters();
  EXPECT_EQ(c.acked, kN);
  EXPECT_EQ(c.lossy_dropped, 0u);
  EXPECT_EQ(c.outages, 0u);
}

/// TCP_NODELAY of every connected loopback socket of this process with
/// `port` at either end, found through /proc/self/fd.
std::vector<int> nodelay_of_connections_on(std::uint16_t port) {
  std::vector<int> out;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t len = sizeof(local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET) {
      continue;
    }
    len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
      continue;  // the listener, or not connected
    }
    if (ntohs(local.sin_port) != port && ntohs(peer.sin_port) != port) {
      continue;
    }
    int nodelay = 0;
    len = sizeof(nodelay);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    out.push_back(nodelay);
  }
  return out;
}

TEST(TransportSession, BothSocketsSetNoDelay) {
  // Batching is the sink's decision: neither end may leave a small send to
  // Nagle's ACK-timed hold.
  auto to_sink = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  TcpServerOptions sopts;
  sopts.exit_on_bye = true;
  TcpTupleServer server("server", 0, from_server, 0, sopts);
  TcpTupleSink sink("sink", server.port(), to_sink, fast_opts(nullptr));
  server.start();
  sink.start();
  DataTuple t;
  t.values = linalg::Vector(kDim, 1.0);
  ASSERT_TRUE(to_sink->push(std::move(t)));
  DataTuple got;
  EXPECT_TRUE(from_server->pop_for(got, std::chrono::seconds(10)));

  // Both ends of the live connection: the sink's socket and the server's
  // accepted one.
  const std::vector<int> nodelay = nodelay_of_connections_on(server.port());
  EXPECT_EQ(nodelay.size(), 2u);
  for (const int on : nodelay) EXPECT_NE(on, 0);

  to_sink->close();  // ends the stream even when nothing arrived
  sink.join();
  server.join();
  EXPECT_EQ(sink.counters().acked, 1u);
}

TEST(TransportSession, DegradedLinkCountsDropsThenReheals) {
  // The retry budget is 2 attempts and the injector fails attempts 1..3:
  // the initial session fails -> degraded (counted lossy drops), the first
  // heal probe (attempt 3) fails, the second (attempt 4) finds the healthy
  // listener and the session re-heals.  Tuples popped while degraded are
  // counted drops; tuples after the heal are delivered — conservation
  // stays exact throughout.
  auto fault = std::make_shared<FaultInjector>(15);
  fault->fail_connect(/*first=*/1, /*count=*/3);
  TcpTransportOptions opts = fast_opts(fault);
  opts.connect_attempts = 2;

  auto in = make_channel<DataTuple>(64);
  auto from_server = make_channel<DataTuple>(64);
  FlowGraph graph;
  TcpServerOptions sopts;
  sopts.exit_on_bye = true;
  auto* server =
      graph.add<TcpTupleServer>("server", 0, from_server, 0, sopts);
  auto* sink = graph.add<TcpTupleSink>("sink", server->port(), in, opts);
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", from_server);

  // First batch is queued before the sink starts: it is consumed while the
  // link is degraded (the first heal probe can only fire after
  // heal_interval = 150 ms, long after these pops).
  DataTuple t;
  for (std::uint64_t i = 0; i < 5; ++i) {
    t.seq = i;
    t.values = linalg::Vector(kDim, double(i));
    ASSERT_TRUE(in->push(t));
  }
  graph.start();
  // Wait until the link has re-healed (two heal intervals plus slack).
  for (int spins = 0; spins < 500 && sink->counters().sessions == 0; ++spins) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  ASSERT_EQ(sink->counters().sessions, 1u);
  for (std::uint64_t i = 5; i < 10; ++i) {
    t.seq = i;
    t.values = linalg::Vector(kDim, double(i));
    ASSERT_TRUE(in->push(t));
  }
  in->close();
  graph.wait();

  const TcpSinkCounters c = sink->counters();
  EXPECT_EQ(sink->metrics().tuples_in(), 10u);
  EXPECT_EQ(c.accepted, 10u);
  EXPECT_EQ(c.lossy_dropped, 5u);
  EXPECT_EQ(c.acked, 5u);
  EXPECT_EQ(c.acked + c.lossy_dropped, 10u);
  EXPECT_EQ(c.accepted, c.acked + c.lossy_dropped);
  EXPECT_FALSE(c.degraded);
  EXPECT_EQ(fault->injected(Fault::kConnectFail), 3u);
  const auto items = collector->snapshot();
  ASSERT_EQ(items.size(), 5u);
  for (const auto& item : items) EXPECT_GE(item.seq, 5u);
}

TEST(TransportSession, DurableResumeAcrossServerRestart) {
  // Receiver-crash drill, in process: server 1 dies mid-stream; server 2
  // binds the same port with a resume point equal to what reached the
  // durable side (here: the collector) — the sink reconnects, the
  // HELLO/HELLO-ACK handshake rewinds it to the resume point, and the
  // union of both servers' deliveries is exactly-once.
  constexpr std::size_t kN = 400;
  auto in = make_channel<DataTuple>(64);
  TcpTransportOptions opts = fast_opts(nullptr);
  opts.connect_attempts = 40;  // outage lasts until we restart the server

  auto out1 = make_channel<DataTuple>(64);
  TcpServerOptions sopts;
  sopts.ack_every = 4;
  auto server1 = std::make_unique<TcpTupleServer>("server1", 0, out1, 1, sopts);
  const std::uint16_t port = server1->port();
  auto collector1 =
      std::make_unique<CollectorSink<DataTuple>>("collect1", out1);
  server1->start();
  collector1->start();

  TcpTupleSink sink("sink", port, in, opts);
  sink.start();
  std::thread feeder([&] {
    DataTuple t;
    for (std::uint64_t i = 0; i < kN; ++i) {
      t.seq = i;
      t.values = linalg::Vector(kDim, double(i));
      if (!in->push(t)) return;
      if (i % 50 == 0) std::this_thread::sleep_for(milliseconds(2));
    }
    in->close();
  });

  // Let part of the stream through, then crash the receiver.
  while (collector1->count() < kN / 4) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  server1->request_stop();
  server1->join();
  server1.reset();  // closes the listener; the sink now sees an outage
  collector1->join();
  const std::vector<DataTuple> first = collector1->snapshot();

  // "Restart" the receiver on the same port, resuming at the durable
  // watermark: everything collector1 captured counts as applied.
  auto out2 = make_channel<DataTuple>(64);
  TcpServerOptions sopts2 = sopts;
  sopts2.exit_on_bye = true;
  TcpTupleServer server2("server2", port, out2, 0, sopts2);
  server2.set_resume_point([n = first.size()] { return std::uint64_t(n); });
  auto collector2 = std::make_unique<CollectorSink<DataTuple>>("c2", out2);
  server2.start();
  collector2->start();

  feeder.join();
  sink.join();
  server2.join();
  collector2->join();

  std::vector<DataTuple> all = first;
  const std::vector<DataTuple> second = collector2->snapshot();
  all.insert(all.end(), second.begin(), second.end());
  expect_exactly_once(all, kN);

  const TcpSinkCounters c = sink.counters();
  EXPECT_EQ(c.accepted, kN);
  EXPECT_EQ(c.acked, kN);
  EXPECT_EQ(c.lossy_dropped, 0u);
  EXPECT_GE(c.outages, 1u);
  EXPECT_GE(c.reconnects, 1u);
  EXPECT_EQ(server2.counters().resumes, 1u);
  EXPECT_EQ(server2.counters().byes, 1u);
}

// ---------------------------------------------------------------------------
// Pipeline integration: the stage boundary behind the transport.

std::vector<linalg::Vector> correlated_data(std::size_t n, std::size_t dim) {
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector v(dim);
    const double a = std::sin(0.01 * double(i));
    for (std::size_t j = 0; j < dim; ++j) {
      v[j] = a * double(j + 1) + 0.001 * double((i * 7 + j * 13) % 17);
    }
    out.push_back(v);
  }
  return out;
}

TEST(TransportSession, PipelineStageBehindTransportConserves) {
  constexpr std::size_t kN = 600;
  constexpr std::size_t kDimP = 8;
  app::PipelineConfig cfg;
  cfg.pca.dim = kDimP;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.split = SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  cfg.transport.enabled = true;
  cfg.transport.ack_every = 8;
  cfg.transport.tcp = fast_opts(nullptr);

  app::StreamingPcaPipeline pipeline(cfg, correlated_data(kN, kDimP));
  pipeline.run();

  // Conservation across the wire: everything the source produced crossed
  // the transport exactly once and reached the engines.
  ASSERT_NE(pipeline.transport_uplink(), nullptr);
  ASSERT_NE(pipeline.transport_downlink(), nullptr);
  const TcpSinkCounters up = pipeline.transport_uplink()->counters();
  const TcpServerCounters down = pipeline.transport_downlink()->counters();
  EXPECT_EQ(up.accepted, kN);
  EXPECT_EQ(up.acked, kN);
  EXPECT_EQ(up.lossy_dropped, 0u);
  EXPECT_EQ(down.delivered, kN);
  EXPECT_EQ(down.crc_rejects, 0u);
  std::uint64_t applied = 0;
  for (const auto& st : pipeline.engine_stats()) applied += st.tuples;
  EXPECT_EQ(applied, kN);

  // The result is a usable eigensystem, and the transport endpoints are in
  // the metrics export alongside every other operator.
  const auto result = pipeline.result();
  EXPECT_EQ(result.mean().size(), kDimP);
  EXPECT_GT(result.observations(), 0u);
  const std::string json = pipeline.metrics_json();
  EXPECT_NE(json.find("uplink"), std::string::npos);
  EXPECT_NE(json.find("downlink"), std::string::npos);
}

TEST(TransportSession, FusedGateSharesDeadLettersWithCrcHusks) {
  // TCP transport + ingest validation: the split validates on the
  // downlink's thread, so the dead-letter recorder has two callers — the
  // downlink (husks of frames that failed their CRC) and the gate (tuples
  // it quarantined).  Every letter must be counted, by reason.
  constexpr std::size_t kN = 600;
  constexpr std::size_t kDimP = 8;
  constexpr std::size_t kFrame =
      io::kFrameHeaderBytes + io::kTuplePayloadFixed + kDimP * 8;
  auto fault = std::make_shared<FaultInjector>(31);
  for (const std::size_t k : {5u, 150u, 320u}) {
    fault->flip_at(0, kHello + k * kFrame + 40, 0x20);
  }
  auto data = correlated_data(kN, kDimP);
  std::size_t poisoned = 0;
  for (std::size_t i = 7; i < kN; i += 50, ++poisoned) {
    data[i][2] = std::nan("");
  }

  app::PipelineConfig cfg;
  cfg.pca.dim = kDimP;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 0.0;
  cfg.validate_ingest = true;
  cfg.validation.nonfinite_as_masked = false;  // NaN tuples -> quarantine
  cfg.transport.enabled = true;
  cfg.transport.ack_every = 8;
  cfg.transport.tcp = fast_opts(fault);
  app::StreamingPcaPipeline pipeline(cfg, std::move(data));

  // run() joins every operator: a hang here is a stage nobody closed.
  auto run = std::async(std::launch::async, [&] { pipeline.run(); });
  const bool finished =
      run.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  if (!finished) pipeline.stop();
  run.get();
  ASSERT_TRUE(finished) << "the pipeline did not drain";

  const TcpServerCounters down = pipeline.transport_downlink()->counters();
  const TcpSinkCounters up = pipeline.transport_uplink()->counters();
  ASSERT_GE(fault->injected(Fault::kFlip), 1u);
  EXPECT_EQ(down.crc_rejects, fault->injected(Fault::kFlip));
  EXPECT_EQ(down.dead_letters, down.crc_rejects);
  EXPECT_EQ(up.acked, kN);
  EXPECT_EQ(down.delivered, kN);

  const auto* gate = pipeline.validator();
  EXPECT_EQ(gate->quarantined(), poisoned);
  EXPECT_EQ(gate->quarantined_for(spectra::RejectReason::kNonFinite), poisoned);
  const auto* dlq = pipeline.dead_letters();
  EXPECT_EQ(dlq->count(), down.dead_letters + gate->quarantined());
  EXPECT_EQ(dlq->count(spectra::RejectReason::kCorruptFrame), down.dead_letters);
  EXPECT_EQ(dlq->count(spectra::RejectReason::kNonFinite), poisoned);

  std::uint64_t applied = 0;
  for (const auto& st : pipeline.engine_stats()) applied += st.tuples;
  EXPECT_EQ(applied + gate->quarantined(), kN);
}

TEST(TransportSession, PipelineShapeHoldsWithMoreEngines) {
  // Figure 6's qualitative shape on the real wire path: adding engines
  // behind the transport must not break completeness or the estimate.
  for (const std::size_t engines : {1u, 3u}) {
    constexpr std::size_t kN = 400;
    app::PipelineConfig cfg;
    cfg.pca.dim = 8;
    cfg.pca.rank = 2;
    cfg.engines = engines;
    cfg.split = SplitStrategy::kRoundRobin;
    cfg.sync_rate_hz = 0.0;
    cfg.transport.enabled = true;
    cfg.transport.tcp = fast_opts(nullptr);

    app::StreamingPcaPipeline pipeline(cfg, correlated_data(kN, 8));
    pipeline.run();
    EXPECT_EQ(pipeline.transport_uplink()->counters().acked, kN);
    EXPECT_EQ(pipeline.transport_downlink()->counters().delivered, kN);
    EXPECT_GT(pipeline.throughput(), 0.0);
    EXPECT_GT(pipeline.result().observations(), 0u);
  }
}

}  // namespace
}  // namespace astro::stream
