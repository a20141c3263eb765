// Shutdown-latency suite (DESIGN.md "Waits and shutdown").  Every timed
// wait on an operator thread goes through Operator::wait_until_stopped, so
// stop -> join is bounded by a wake-up, not by the period being waited out.
// Each scenario parks an operator in a wait of an hour and checks that stop
// lands within kStopBound; the pipeline scenario checks that wait() returns
// within kResultBound of the last engine apply at several sync-tick phases.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "stats/rng.h"
#include "stream/net.h"
#include "stream/shm_net.h"
#include "stream/source.h"
#include "stream/split.h"
#include "sync/controller.h"
#include "tests/pca/test_data.h"

namespace astro {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

/// Stop -> join bound for an operator parked in an hour-long wait.
constexpr auto kStopBound = 500ms;
/// Last engine apply -> wait() returned, with sync commands paced at 2 Hz.
constexpr auto kResultBound = 100ms;
/// The same behind the TCP transport: the end-of-stream flush waits for one
/// ack round trip, never for a receiver poll slice.
constexpr auto kTcpResultBound = 20ms;

long long ms(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
}

/// Spins until `pred` holds or `limit` passes.
template <typename Pred>
bool poll_until(Pred pred, Clock::duration limit = 5s) {
  const auto deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// Stops `op` and returns how long the join took.
Clock::duration stop_and_join(stream::Operator& op) {
  const auto t0 = Clock::now();
  op.request_stop();
  op.join();
  return Clock::now() - t0;
}

/// Parks in the base-class wait, an hour at a time, until stopped.
class ParkedOperator final : public stream::Operator {
 public:
  ParkedOperator() : Operator("parked") {}

 protected:
  void run() override {
    while (!wait_for_stop(1h)) {
    }
  }
};

/// Runs one timed wait that nobody interrupts.
class TimedOperator final : public stream::Operator {
 public:
  TimedOperator() : Operator("timed") {}
  bool stopped = true;
  Clock::duration waited{};

 protected:
  void run() override {
    const auto t0 = Clock::now();
    stopped = wait_for_stop(20ms);
    waited = Clock::now() - t0;
  }
};

TEST(ShutdownWait, TimedWaitRunsToItsDeadlineWithoutStop) {
  TimedOperator op;
  op.start();
  op.join();
  EXPECT_FALSE(op.stopped);
  EXPECT_GE(op.waited, 20ms);
}

TEST(ShutdownWait, StopWakesParkedWait) {
  ParkedOperator op;
  op.start();
  std::this_thread::sleep_for(20ms);  // let the thread park
  const auto took = stop_and_join(op);
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
}

TEST(ShutdownWait, StopRacingThePark) {
  // request_stop() may land before, during or after the thread parks; the
  // flag is stored under the wait's mutex, so no ordering loses the wakeup.
  for (int round = 0; round < 200; ++round) {
    ParkedOperator op;
    op.start();
    const auto took = stop_and_join(op);
    ASSERT_LT(took, kStopBound) << "round " << round << ": " << ms(took) << " ms";
  }
}

TEST(ShutdownSyncController, ParkedOnPacingWaitStopsAndJoins) {
  auto ports = std::vector<stream::ChannelPtr<stream::ControlTuple>>{
      stream::make_channel<stream::ControlTuple>(4),
      stream::make_channel<stream::ControlTuple>(4)};
  sync::SyncController controller("sync", sync::make_strategy("ring"), ports,
                                  1.0 / 3600.0);
  controller.start();
  // The first command goes out at once; the second parks the controller
  // for an hour.
  ASSERT_TRUE(poll_until([&] { return ports[0]->size() == 1; }));
  std::this_thread::sleep_for(20ms);

  const auto took = stop_and_join(controller);
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(controller.stop_reason(), stream::StopReason::kRequested);
  EXPECT_EQ(controller.metrics().tuples_out(), 1u);
  EXPECT_EQ(controller.rounds(), 1u);
  for (const auto& port : ports) EXPECT_TRUE(port->closed());
  EXPECT_EQ(ports[1]->size(), 0u);
}

TEST(ShutdownSupervisor, StopsInsideLongRestartBackoff) {
  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 0.0;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.supervisor.backoff_base_seconds = 3600.0;
  cfg.supervisor.backoff_max_seconds = 3600.0;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(41);
  cfg.fault_injector->kill_engine(0, 50);

  stats::Rng rng(4099);
  const auto model = pca::testing::make_model(rng, 12, 2, 2.0, 0.05);
  app::StreamingPcaPipeline p(
      cfg, [&rng, &model]() -> std::optional<linalg::Vector> {
        return pca::testing::draw(model, rng);
      });
  p.start();
  ASSERT_TRUE(poll_until([&] { return !p.supervisor()->alive(0); }));
  // A few 1 ms polls detect the crash; then the supervisor sits in its
  // hour-long backoff.
  std::this_thread::sleep_for(30ms);

  const auto t0 = Clock::now();
  p.stop();
  p.wait();
  const auto took = Clock::now() - t0;
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(p.supervisor()->restarts(0), 0u);  // stopped before any restart
}

/// A loopback port with nothing listening (connects are refused at once),
/// or 0 if none could be reserved.
std::uint16_t refused_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  return ok ? ntohs(addr.sin_port) : 0;
}

TEST(ShutdownTcpSink, StopsInsideReconnectBackoff) {
  stream::TcpTransportOptions opts;
  opts.backoff_initial = std::chrono::milliseconds(3600s);
  opts.backoff_max = opts.backoff_initial;
  const std::uint16_t port = refused_port();
  ASSERT_NE(port, 0);
  auto in = stream::make_channel<stream::DataTuple>(4);
  stream::TcpTupleSink sink("uplink", port, in, opts);
  sink.start();
  // The backoff is published just before the sink parks on it.
  ASSERT_TRUE(poll_until([&] { return sink.counters().backoff_ms_last > 0; }));
  std::this_thread::sleep_for(20ms);

  const auto took = stop_and_join(sink);
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(sink.stop_reason(), stream::StopReason::kRequested);
  EXPECT_GE(sink.counters().backoff_ms_last, 1800u * 1000u);
}

TEST(ShutdownShmSink, StopsWhileParkedOnAFullRing) {
  // No consumer ever attaches and the restart grace is an hour: the sink
  // fills the ring and parks waiting for room.
  stream::ShmTransportOptions opts;
  opts.ring_capacity = 4;
  opts.max_frame_bytes = 256;
  opts.restart_timeout = std::chrono::milliseconds(3600s);
  auto in = stream::make_channel<stream::DataTuple>(16);
  stream::ShmTupleSink sink(
      "uplink", "astro-shutdown-sink-" + std::to_string(::getpid()), in, opts);
  for (std::uint64_t i = 0; i < 8; ++i) {
    stream::DataTuple t;
    t.seq = i;
    t.values = linalg::Vector(4, 1.0);
    ASSERT_TRUE(in->push(std::move(t)));
  }
  sink.start();
  ASSERT_TRUE(poll_until([&] { return sink.counters().blocked_waits > 0; }));
  std::this_thread::sleep_for(20ms);

  const auto took = stop_and_join(sink);
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(sink.stop_reason(), stream::StopReason::kRequested);
  const stream::ShmSinkCounters c = sink.counters();
  EXPECT_EQ(c.ring_depth, opts.ring_capacity);
  EXPECT_EQ(c.accepted, c.acked + c.lossy_dropped);
}

TEST(ShutdownShmServer, StopsWhileWaitingForTheSegment) {
  // The segment never appears and the attach deadline is an hour.
  stream::ShmTransportOptions opts;
  opts.attach_timeout = std::chrono::milliseconds(3600s);
  auto out = stream::make_channel<stream::DataTuple>(4);
  stream::ShmTupleServer server(
      "downlink", "astro-shutdown-absent-" + std::to_string(::getpid()), out,
      opts);
  server.start();
  std::this_thread::sleep_for(20ms);

  const auto took = stop_and_join(server);
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(server.stop_reason(), stream::StopReason::kRequested);
  EXPECT_TRUE(out->closed());
}

// The fused split runs on its producer's thread, so with a stalled engine
// the producer itself parks in the split's blocking push on the full
// engine port.  StreamingPcaPipeline::stop() raises the stop flags and
// closes the engine ports; the tests below do the same on the producer.

TEST(ShutdownFusedSplit, SourceParkedOnAFullEngineQueueStops) {
  auto port = stream::make_channel<stream::DataTuple>(4);  // never popped
  auto split = std::make_shared<stream::SplitRouter>(
      std::vector<stream::ChannelPtr<stream::DataTuple>>{port});
  stream::GeneratorSource source(
      "source",
      stream::GeneratorSource::Generator(
          []() -> std::optional<linalg::Vector> {
            return linalg::Vector(4, 1.0);
          }),
      split);
  source.start();
  ASSERT_TRUE(poll_until([&] { return port->gauges().push_blocked > 0; }));
  std::this_thread::sleep_for(20ms);

  const auto t0 = Clock::now();
  source.request_stop();
  port->close();
  source.join();
  const auto took = Clock::now() - t0;
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(source.stop_reason(), stream::StopReason::kRequested);
  // The parked tuple was refused by the closed port and counted.
  EXPECT_EQ(split->metrics().dropped(), 1u);
  EXPECT_EQ(split->metrics().tuples_out(), 4u);
}

TEST(ShutdownFusedSplit, TcpDownlinkParkedOnAFullEngineQueueStops) {
  auto port = stream::make_channel<stream::DataTuple>(4);  // never popped
  auto split = std::make_shared<stream::SplitRouter>(
      std::vector<stream::ChannelPtr<stream::DataTuple>>{port});
  stream::TcpTupleServer server("downlink", 0, split,
                                /*max_connections=*/0);
  auto in = stream::make_channel<stream::DataTuple>(64);
  for (std::uint64_t i = 0; i < 32; ++i) {
    stream::DataTuple t;
    t.seq = i;
    t.values = linalg::Vector(4, 1.0);
    ASSERT_TRUE(in->push(std::move(t)));
  }
  stream::TcpTupleSink sink("uplink", server.port(), in);
  server.start();
  sink.start();
  ASSERT_TRUE(poll_until([&] { return port->gauges().push_blocked > 0; }));
  std::this_thread::sleep_for(20ms);

  const auto t0 = Clock::now();
  server.request_stop();
  port->close();
  server.join();
  const auto took = Clock::now() - t0;
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(server.stop_reason(), stream::StopReason::kRequested);
  EXPECT_GE(split->metrics().dropped(), 1u);
  in->close();
  sink.request_stop();
  sink.join();
}

TEST(ShutdownValidate, StopMidStreamWithValidationJoinsPromptly) {
  // An endless, unthrottled stream with ingest validation on: every queue
  // is full, the split (running the gate) is parked in a push or a pop,
  // and every 50th tuple is NaN-poisoned so the dead-letter recorder is
  // busy too.  stop() must unpark all of them and wait() must join the
  // whole graph within the stop bound.  The second input also records
  // outliers and the snapshot feed: no recorder may leave a producer
  // parked.
  for (const bool record_all : {false, true}) {
    SCOPED_TRACE(record_all ? "every recorder live" : "dead letters only");
    app::PipelineConfig cfg;
    cfg.pca.dim = 12;
    cfg.pca.rank = 2;
    cfg.engines = 2;
    cfg.sync_rate_hz = 2.0;
    cfg.validate_ingest = true;
    cfg.validation.nonfinite_as_masked = false;
    if (record_all) {
      cfg.collect_outliers = true;
      cfg.snapshot_interval_seconds = 0.01;
    }
    stats::Rng rng(7100);
    const auto model = pca::testing::make_model(rng, 12, 2, 2.0, 0.05);
    std::uint64_t k = 0;
    app::StreamingPcaPipeline p(
        cfg, stream::GeneratorSource::Generator(
                 [&]() -> std::optional<linalg::Vector> {
                   linalg::Vector x = pca::testing::draw(model, rng);
                   if (k++ % 50 == 49) x[3] = std::nan("");
                   return x;
                 }));
    p.start();
    ASSERT_TRUE(poll_until([&] {
      return p.validator()->accepted() > 6000 &&
             p.dead_letters()->count() > 10;
    }));

    const auto t0 = Clock::now();
    p.stop();
    p.wait();
    const auto took = Clock::now() - t0;
    EXPECT_LT(took, kStopBound) << "stop + wait took " << ms(took) << " ms";
    // Every tuple the gate saw was either accepted or quarantined.
    EXPECT_EQ(p.validator()->accepted() + p.validator()->quarantined(),
              p.validator()->metrics().tuples_in());
  }
}

// The stream's last tuple is due at n / 1000 s, so the lengths below end it
// at different phases of the 0.5 s sync tick, before and after the first.
class ShutdownPipeline : public ::testing::TestWithParam<std::size_t> {};

/// Runs `p` to completion and returns the time from its last engine apply
/// to wait() returning.  The applied count is polled through
/// engine_stats(); its last change is the last apply, seen up to one poll
/// late.  Expects all `n` tuples applied.
Clock::duration last_apply_to_wait(app::StreamingPcaPipeline& p,
                                   std::size_t n) {
  std::uint64_t applied = 0;
  Clock::time_point last_apply = Clock::now();
  std::jthread poller([&](std::stop_token st) {
    for (;;) {
      const bool last = st.stop_requested();
      std::uint64_t sum = 0;
      for (const auto& s : p.engine_stats()) sum += s.tuples;
      if (sum != applied) {
        applied = sum;
        last_apply = Clock::now();
      }
      if (last) break;
      std::this_thread::sleep_for(1ms);
    }
  });
  p.start();
  p.wait();
  const auto t_done = Clock::now();
  poller.request_stop();
  poller.join();
  EXPECT_EQ(applied, n);
  return t_done - last_apply;
}

/// `n` draws from a rank-2 model in d = 12.
std::vector<linalg::Vector> model_stream(std::size_t n) {
  stats::Rng rng(7000 + n);
  const auto model = pca::testing::make_model(rng, 12, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back(pca::testing::draw(model, rng));
  }
  return data;
}

TEST_P(ShutdownPipeline, WaitReturnsPromptlyAfterLastApply) {
  const std::size_t n = GetParam();
  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 2.0;
  cfg.source_rate = 1000.0;
  app::StreamingPcaPipeline p(cfg, model_stream(n));
  const auto gap = last_apply_to_wait(p, n);
  EXPECT_LT(gap, kResultBound)
      << "wait() returned " << ms(gap) << " ms after the last apply";
}

TEST(ShutdownTcpPipeline, WaitReturnsWithin20msOfLastApply) {
  // Behind the TCP transport the stream's end is the sink's flush: the
  // final ack leaves with the receiver's last read burst, so wait() does
  // not sit out a receiver poll slice after the last apply.
  constexpr std::size_t kN = 300;
  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 2.0;
  cfg.source_rate = 1000.0;
  cfg.transport.enabled = true;
  cfg.transport.kind = app::PipelineConfig::TransportOptions::Kind::kTcp;
  app::StreamingPcaPipeline p(cfg, model_stream(kN));
  const auto gap = last_apply_to_wait(p, kN);
  EXPECT_LT(gap, kTcpResultBound)
      << "wait() returned " << ms(gap) << " ms after the last apply";
  ASSERT_NE(p.transport_uplink(), nullptr);
  EXPECT_EQ(p.transport_uplink()->counters().acked, kN);
}

INSTANTIATE_TEST_SUITE_P(StreamLengths, ShutdownPipeline,
                         ::testing::Values(100, 250, 350, 700));

}  // namespace
}  // namespace astro
