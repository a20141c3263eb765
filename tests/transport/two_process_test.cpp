// The real two-process drill: the receiver runs in a child process
// (transport_child, a TcpTupleServer + durable append log), the sender in
// this process.  Mid-stream the child is SIGKILL'd — no shutdown handlers,
// the OS reclaims the socket — and re-exec'd against the same log and
// port.  The session transport must reconnect with backoff, resume at the
// child's recovered durable watermark, and finish the stream with zero
// loss and zero duplication, asserted from the merged on-disk log and the
// child's metrics JSON.  A seeded FaultInjector forces partial
// writes throughout, so the crash lands on a non-trivial wire state.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "stream/fault.h"
#include "stream/net.h"

#ifndef TRANSPORT_CHILD_BIN
#error "TRANSPORT_CHILD_BIN must point at the transport_child executable"
#endif

namespace astro::stream {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& suffix) {
    path = ::testing::TempDir() + "transport_drill_" +
           std::to_string(::getpid()) + "_" + suffix;
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

pid_t spawn_child(const std::string& port_file, const std::string& log_file,
                  const std::string& metrics_file, std::uint16_t port) {
  const std::string port_arg = std::to_string(port);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const char* argv[] = {TRANSPORT_CHILD_BIN,    port_file.c_str(),
                          log_file.c_str(),       metrics_file.c_str(),
                          port_arg.c_str(),       nullptr};
    ::execv(TRANSPORT_CHILD_BIN, const_cast<char* const*>(argv));
    ::_exit(127);  // exec failed
  }
  return pid;
}

std::uint16_t await_port_file(const std::string& path) {
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  while (steady_clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return std::uint16_t(port);
    std::this_thread::sleep_for(milliseconds(5));
  }
  return 0;
}

std::vector<std::uint64_t> read_log(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  std::uint64_t seq = 0;
  while (in >> seq) out.push_back(seq);
  return out;
}

std::uint64_t json_field(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return std::uint64_t(-1);
  return std::strtoull(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

TEST(TwoProcess, KillNineAndRestartLosesAndDuplicatesNothing) {
  constexpr std::size_t kN = 800;
  constexpr std::size_t kDim = 6;

  TempPath port_file("port");
  TempPath log_file("log");
  TempPath metrics_file("metrics");

  // First incarnation of the receiver, on an ephemeral port.
  pid_t child = spawn_child(port_file.path, log_file.path, metrics_file.path,
                            /*port=*/0);
  ASSERT_GT(child, 0);
  const std::uint16_t port = await_port_file(port_file.path);
  ASSERT_NE(port, 0) << "child never published its port";

  auto fault = std::make_shared<FaultInjector>(42);
  fault->chunk_writes(FaultInjector::kEveryConnection, 11);
  TcpTransportOptions opts;
  opts.retransmit_window = 32;
  // The outage lasts as long as the parent takes to re-exec the child;
  // give the budget ample room so the link resumes instead of degrading.
  opts.connect_attempts = 100;
  opts.ack_timeout = milliseconds(400);
  opts.backoff_initial = milliseconds(5);
  opts.backoff_max = milliseconds(50);
  opts.fault = fault;

  auto in = make_channel<DataTuple>(64);
  TcpTupleSink sink("uplink", port, in, opts);
  sink.start();

  std::thread feeder([&] {
    DataTuple t;
    for (std::uint64_t i = 0; i < kN; ++i) {
      t.seq = i;
      t.values = linalg::Vector(kDim, double(i % 97));
      if (!in->push(t)) return;
      if (i % 25 == 0) std::this_thread::sleep_for(milliseconds(1));
    }
    in->close();
  });

  // Let a chunk of the stream become durable, then kill -9 the receiver.
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  while (read_log(log_file.path).size() < kN / 4 &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  ASSERT_GE(read_log(log_file.path).size(), kN / 4) << "stream never started";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  const std::size_t durable_at_kill = read_log(log_file.path).size();

  // Restart it against the same log, on the same port.
  child = spawn_child(port_file.path, log_file.path, metrics_file.path, port);
  ASSERT_GT(child, 0);

  feeder.join();
  sink.join();
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;

  // The merged durable log holds every tuple exactly once, in order.
  const std::vector<std::uint64_t> log = read_log(log_file.path);
  ASSERT_EQ(log.size(), kN) << "durable at kill: " << durable_at_kill;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(log[i], i) << "at line " << i;
  }

  // Sender-side conservation: everything acked, nothing counted lost.
  const TcpSinkCounters c = sink.counters();
  EXPECT_EQ(c.accepted, kN);
  EXPECT_EQ(c.acked, kN);
  EXPECT_EQ(c.lossy_dropped, 0u);
  EXPECT_GE(c.outages, 1u);
  EXPECT_GE(c.reconnects, 1u);
  EXPECT_EQ(sink.stop_reason(), StopReason::kUpstreamClosed);
  EXPECT_GT(fault->injected(Fault::kPartialSend), 0u);

  // Receiver-side: the restarted child resumed (not restarted from zero)
  // and saw a clean end of stream.
  std::ifstream metrics_in(metrics_file.path);
  std::string json((std::istreambuf_iterator<char>(metrics_in)),
                   std::istreambuf_iterator<char>());
  ASSERT_FALSE(json.empty()) << "child never wrote metrics";
  EXPECT_EQ(json_field(json, "recovered"), durable_at_kill);
  EXPECT_EQ(json_field(json, "applied"), kN);
  EXPECT_GE(json_field(json, "resumes"), 1u);
  EXPECT_EQ(json_field(json, "byes"), 1u);
  EXPECT_EQ(json_field(json, "crc_rejects"), 0u);
  EXPECT_EQ(json_field(json, "protocol_errors"), 0u);
}

TEST(TwoProcess, CleanSingleIncarnationRoundTrip) {
  // Baseline (no kill): one child serves the whole stream and exits zero
  // on the bye marker, with its applied count matching the sender's acks.
  constexpr std::size_t kN = 200;
  TempPath port_file("port2");
  TempPath log_file("log2");
  TempPath metrics_file("metrics2");

  const pid_t child = spawn_child(port_file.path, log_file.path,
                                  metrics_file.path, /*port=*/0);
  ASSERT_GT(child, 0);
  const std::uint16_t port = await_port_file(port_file.path);
  ASSERT_NE(port, 0);

  auto in = make_channel<DataTuple>(64);
  TcpTupleSink sink("uplink", port, in, {});
  sink.start();
  DataTuple t;
  for (std::uint64_t i = 0; i < kN; ++i) {
    t.seq = i;
    t.values = linalg::Vector(4, 1.0);
    ASSERT_TRUE(in->push(t));
  }
  in->close();
  sink.join();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  EXPECT_EQ(sink.counters().acked, kN);
  const std::vector<std::uint64_t> log = read_log(log_file.path);
  ASSERT_EQ(log.size(), kN);
  EXPECT_EQ(log.front(), 0u);
  EXPECT_EQ(log.back(), kN - 1);
}

}  // namespace
}  // namespace astro::stream
