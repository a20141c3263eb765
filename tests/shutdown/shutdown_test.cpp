// Shutdown-latency suite (DESIGN.md "Waits and shutdown").  Every timed
// wait on an operator thread goes through Operator::wait_until_stopped, so
// stop -> join is bounded by a wake-up, not by the period being waited out.
// Each scenario parks an operator in a wait of an hour and checks that stop
// lands within kStopBound; the pipeline scenario checks that wait() returns
// within kResultBound of the last engine apply at several throttle phases.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "stats/rng.h"
#include "stream/net.h"
#include "stream/throttle.h"
#include "tests/pca/test_data.h"

namespace astro {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

/// Stop -> join bound for an operator parked in an hour-long wait.
constexpr auto kStopBound = 500ms;
/// Last engine apply -> wait() returned, with the sync throttle at 2 Hz.
constexpr auto kResultBound = 100ms;

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

TEST(ShutdownThrottle, ParkedOnPacingWaitStopsAndJoins) {
  auto in = stream::make_channel<stream::DataTuple>(4);
  auto out = stream::make_channel<stream::DataTuple>(4);
  stream::ThrottleOperator<stream::DataTuple> throttle("throttle", in, out,
                                                       1.0 / 3600.0);
  throttle.start();
  for (int i = 0; i < 2; ++i) {
    stream::DataTuple t;
    t.seq = std::uint64_t(i);
    ASSERT_TRUE(in->push(std::move(t)));
  }
  // The first tuple passes at once; the second parks the throttle for an
  // hour.
  stream::DataTuple first;
  ASSERT_TRUE(out->pop_for(first, 5s));
  ASSERT_TRUE(poll_until([&] { return in->size() == 0; }));
  std::this_thread::sleep_for(20ms);

  const auto took = stop_and_join(throttle);
  EXPECT_LT(took, kStopBound) << "stop took " << ms(took) << " ms";
  EXPECT_EQ(throttle.stop_reason(), stream::StopReason::kRequested);
  EXPECT_EQ(throttle.metrics().tuples_out(), 1u);  // the held round dropped
  EXPECT_TRUE(out->closed());
  EXPECT_EQ(out->size(), 0u);
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

// The stream's last tuple is due at n / 1000 s, so the lengths below end it
// at different phases of the 0.5 s sync tick, before and after the first.
class ShutdownPipeline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShutdownPipeline, WaitReturnsPromptlyAfterLastApply) {
  const std::size_t n = GetParam();
  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 2.0;
  cfg.source_rate = 1000.0;
  stats::Rng rng(7000 + n);
  const auto model = pca::testing::make_model(rng, 12, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back(pca::testing::draw(model, rng));
  }
  app::StreamingPcaPipeline p(cfg, std::move(data));

  // Poll the applied count through engine_stats(); the last change is the
  // last apply, seen up to one poll late.
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

  ASSERT_EQ(applied, n);
  const auto gap = t_done - last_apply;
  EXPECT_LT(gap, kResultBound)
      << "wait() returned " << ms(gap) << " ms after the last apply";
}

INSTANTIATE_TEST_SUITE_P(StreamLengths, ShutdownPipeline,
                         ::testing::Values(100, 250, 350, 700));

}  // namespace
}  // namespace astro
