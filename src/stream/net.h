#pragma once

// TCP carrier for the session transport (DESIGN.md "Transport"; paper
// §III-A.1: "Network TCP sockets ... are also supported out of the box as
// a source of data").  TcpTupleSink connects to a TcpTupleServer and
// writes every input tuple; the server parses the CRC32C-framed tuples of
// io/frame.h and emits them downstream exactly once — the paper's "Network
// connector" between the splitter and remote PCA engines.
//
// The session contract lives in stream/session.h.  This file keeps the
// socket I/O: HELLO/HELLO-ACK (which returns the receiver's resume point),
// cumulative acks, a bounded retransmit window replayed on resume,
// reconnect with exponential backoff + deterministic jitter, heal probes,
// and poll-driven deadlines on every connect, read and write, so a stalled
// peer can never wedge shutdown.
//
// Determinism: layer a FaultInjector (stream/fault.h) under the sink's
// socket calls to replay connect failures, partial writes, stalls, resets,
// and bit flips at exact connect attempts and byte offsets.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/fault.h"
#include "stream/session.h"

namespace astro::stream {

/// Sink-side (sender) transport knobs.
struct TcpTransportOptions {
  /// Max unacked frames buffered for retransmission.  A full window blocks
  /// new sends until the receiver acks (bounded memory, natural
  /// backpressure through the transport).
  std::size_t retransmit_window = 256;
  /// Connect attempts per outage (including the initial connect).  When
  /// the budget is exhausted the sink flips to degraded (lossy, counted)
  /// mode and keeps probing at heal_interval.
  int connect_attempts = 10;
  std::chrono::milliseconds connect_timeout{1000};  ///< per attempt
  std::chrono::milliseconds write_timeout{2000};    ///< per frame
  /// Max wait for cumulative-ack progress (handshake reply, full window,
  /// final flush) before the connection is declared dead.
  std::chrono::milliseconds ack_timeout{2000};
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_max{300};
  /// Degraded-mode reconnect probe cadence.
  std::chrono::milliseconds heal_interval{200};
  /// Seed for the deterministic backoff jitter.
  std::uint64_t jitter_seed = 1;
  /// Optional deterministic fault schedule (tests / chaos drills); its
  /// TCP events drive the sink's socket calls.
  std::shared_ptr<FaultInjector> fault;
};

/// Server-side (receiver) transport knobs.
struct TcpServerOptions {
  /// Cumulative ack cadence in applied frames; an idle gap also acks.
  std::size_t ack_every = 32;
  /// Poll slice: after this long with nothing to read, pending applied
  /// frames are acked so a quiescing sender's flush completes promptly.
  std::chrono::milliseconds idle_ack{50};
  std::chrono::milliseconds write_timeout{2000};  ///< per control frame
  /// Stop serving (and close the output) once a clean kBye end-of-stream
  /// marker arrives — how a receiver process knows the stream is over.
  bool exit_on_bye = false;
};

/// Sender counters: the shared session counters (stream/session.h) plus
/// the socket's own.
struct TcpSinkCounters : SessionSinkCounters {
  std::uint64_t frames_sent = 0;   ///< wire frames incl. control+retransmit
  std::uint64_t retransmits = 0;   ///< data frames re-sent on resume
  std::uint64_t sessions = 0;      ///< successful HELLO handshakes
  std::uint64_t reconnects = 0;    ///< successful connects after the first
  std::uint64_t connect_failures = 0;
  std::uint64_t acks_received = 0;
  /// Outage episodes: transitions out of a healthy session.  A connection
  /// that dies again *during* recovery (mid-replay) extends the same
  /// episode — it shows up in reconnects/sessions, not here.
  std::uint64_t outages = 0;
  std::uint64_t backoff_ms_last = 0;
  std::uint64_t window_depth = 0;
};

/// Receiver counters: the shared session counters plus the socket's own.
struct TcpServerCounters : SessionServerCounters {
  std::uint64_t out_of_order = 0;   ///< gap frames awaiting sender replay
  std::uint64_t acks_sent = 0;
};

class TcpTupleServer final : public SessionServer {
 public:
  /// Binds to 127.0.0.1:`port` at construction (port 0 = ephemeral; read
  /// the chosen port with port()).  Throws std::runtime_error on bind
  /// failure.  `max_connections` successive client sessions are served
  /// before the source closes (0 = until stopped or a kBye arrives with
  /// options.exit_on_bye).
  TcpTupleServer(std::string name, std::uint16_t port,
                 DataEdge out, std::size_t max_connections = 1,
                 TcpServerOptions options = {});
  ~TcpTupleServer() override;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] TcpServerCounters counters() const noexcept;

 protected:
  StopReason serve() override;

 private:
  enum class FrameOutcome { kContinue, kConnectionDone, kDownstreamClosed };

  bool serve_connection(int fd);
  FrameOutcome handle_frame(int fd, std::span<const std::uint8_t> frame);
  FrameOutcome handle_data(int fd, const io::FrameHeader& h,
                           std::span<const std::uint8_t> frame);
  /// Sends the cumulative ack (or, at session start, the HELLO-ACK).
  bool send_ack(int fd, bool force,
                io::FrameType type = io::FrameType::kAck);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::size_t max_connections_;
  TcpServerOptions options_;

  std::uint64_t applied_ = 0;       // highest contiguously applied seq
  std::uint64_t last_ack_sent_ = 0;
  bool bye_seen_ = false;

  std::atomic<std::uint64_t> out_of_order_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
};

class TcpTupleSink final : public SessionSink {
 public:
  /// Connects to 127.0.0.1:`port` when started (with deadline-bounded
  /// retries and backoff, so a server started concurrently wins the race).
  /// Flushes — waits for the receiver's final cumulative ack — when its
  /// input channel drains, then sends a kBye end-of-stream marker.
  TcpTupleSink(std::string name, std::uint16_t port, ChannelPtr<DataTuple> in,
               TcpTransportOptions options = {});
  ~TcpTupleSink() override;

  [[nodiscard]] TcpSinkCounters counters() const noexcept;

 protected:
  bool open() override;
  void idle() override;
  bool heal() override;
  Handoff send(DataTuple& t) override;
  std::uint64_t flush() override;
  [[nodiscard]] bool ever_connected() const override { return ever_connected_; }

 private:
  enum class IoResult { kOk, kClosed, kStopped };
  struct WindowEntry {
    std::uint64_t seq;
    std::vector<std::uint8_t> frame;
  };

  bool try_connect();
  void teardown_socket();
  IoResult establish_session(int attempts);
  IoResult handshake();
  IoResult retransmit_unacked();
  IoResult send_frame(const std::vector<std::uint8_t>& frame);
  bool drain_receiver(std::optional<std::uint64_t>* hello_ack = nullptr);
  /// Polls within ack_timeout for cumulative-ack progress, or for the
  /// HELLO-ACK when `hello_ack` is given.
  IoResult await_ack_progress(
      std::optional<std::uint64_t>* hello_ack = nullptr);
  void note_acked(std::uint64_t upto);
  void on_outage();
  void enter_degraded();
  [[nodiscard]] std::chrono::milliseconds jittered(
      std::chrono::milliseconds backoff);

  std::uint16_t port_;
  TcpTransportOptions options_;
  int fd_ = -1;
  bool connected_ = false;
  bool ever_connected_ = false;

  std::uint64_t next_seq_ = 1;   // next transport seq to assign
  std::uint64_t acked_seq_ = 0;  // highest cumulative ack received
  std::deque<WindowEntry> window_;
  std::vector<std::uint8_t> read_buffer_;
  std::vector<std::uint8_t> send_scratch_;  // flip-damaged copies
  std::chrono::steady_clock::time_point last_ack_progress_{};
  std::chrono::steady_clock::time_point next_heal_{};
  std::uint64_t jitter_state_ = 0;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> connect_failures_{0};
  std::atomic<std::uint64_t> acks_received_{0};
  std::atomic<std::uint64_t> outages_{0};
  std::atomic<std::uint64_t> backoff_ms_last_{0};
  std::atomic<std::uint64_t> window_depth_{0};
};

}  // namespace astro::stream
