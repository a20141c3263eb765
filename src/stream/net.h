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
// Batching is the sender's decision, not Nagle's: both sockets set
// TCP_NODELAY, the sink encodes frames straight into one byte ring, sized
// once, that is both its send buffer and its retransmit window, and hands
// every unsent run to the kernel in one send() — at once under backlog,
// after a fixed flush slice when the input is quiet.  The receiver acks
// once per read burst (DESIGN.md "Transport", "Batching on the wire").
//
// Determinism: layer a FaultInjector (stream/fault.h) under the sink's
// socket calls to replay connect failures, partial writes, stalls, resets,
// and bit flips at exact connect attempts and byte offsets.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stream/fault.h"
#include "stream/session.h"

namespace astro::stream {

/// Sink-side (sender) transport knobs.
struct TcpTransportOptions {
  /// Max unacked frames buffered for retransmission (at least 1).  A full
  /// window blocks new sends until the receiver acks (bounded memory,
  /// natural backpressure through the transport).  The frame ring holds
  /// this many frames of the largest size seen.
  std::size_t retransmit_window = 256;
  /// Connect attempts per outage (including the initial connect).  When
  /// the budget is exhausted the sink flips to degraded (lossy, counted)
  /// mode and keeps probing at heal_interval.
  int connect_attempts = 10;
  std::chrono::milliseconds connect_timeout{1000};  ///< per attempt
  std::chrono::milliseconds write_timeout{2000};    ///< per send batch
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
  /// Cap on applied frames per cumulative ack inside one long read burst;
  /// every burst ends with an ack anyway.
  std::size_t ack_every = 32;
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
  [[nodiscard]] std::chrono::microseconds pop_wait() const override;
  void idle() override;
  bool heal() override;
  Handoff send(DataTuple& t) override;
  std::uint64_t flush() override;
  [[nodiscard]] bool ever_connected() const override { return ever_connected_; }

 private:
  enum class IoResult { kOk, kClosed, kStopped };
  /// Where a windowed frame sits in the ring.
  struct FrameSlot {
    std::size_t offset = 0;
    std::size_t bytes = 0;
  };

  bool try_connect();
  void teardown_socket();
  IoResult establish_session(int attempts);
  IoResult handshake();
  IoResult retransmit_unacked();
  /// Writes `bytes` whole (through the fault schedule), waiting for socket
  /// room only when the kernel refuses more; bounded by write_timeout.
  IoResult write_span(std::span<const std::uint8_t> bytes);
  /// Hands every unsent windowed frame to the socket: one send per
  /// contiguous run (two when the run crosses the ring's wrap).
  IoResult send_pending();
  /// send_pending(), then one non-blocking read of the acks that came
  /// back; an outage on either reconnects.
  void transmit();
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
  [[nodiscard]] std::uint64_t windowed() const noexcept {
    return next_seq_ - 1 - acked_seq_;
  }
  /// Windowed frames not yet written on this connection.
  [[nodiscard]] std::uint64_t held() const noexcept {
    return next_seq_ - 1 - sent_seq_;
  }
  [[nodiscard]] FrameSlot& slot(std::uint64_t seq) noexcept {
    return slots_[seq % slots_.size()];
  }
  /// Ring offset where a `bytes`-long frame fits next, if it does.
  [[nodiscard]] std::optional<std::size_t> free_offset(
      std::size_t bytes) const;

  std::uint16_t port_;
  TcpTransportOptions options_;
  int fd_ = -1;
  bool connected_ = false;
  bool ever_connected_ = false;

  std::uint64_t next_seq_ = 1;   // next transport seq to assign
  std::uint64_t acked_seq_ = 0;  // highest cumulative ack received
  std::uint64_t sent_seq_ = 0;   // highest seq written on this connection
  std::uint64_t high_sent_ = 0;  // highest seq ever written (retransmits)
  // The frame ring: the window's frames, encoded in place in seq order.  A
  // frame never straddles the end; the first frame placed back at offset 0
  // while older ones still sit at the top is wrap_seq_ (0 = no wrap live).
  std::vector<std::uint8_t> ring_;
  std::vector<FrameSlot> slots_;  // retransmit_window entries, by seq
  std::size_t ring_tail_ = 0;     // end of the newest frame
  std::uint64_t wrap_seq_ = 0;
  std::chrono::steady_clock::time_point flush_due_{};  // held frames go out
  bool slice_slept_ = false;  // idle() slept out the current flush slice
  std::array<std::uint8_t, 4096> read_buffer_{};  // acks from the receiver
  std::size_t read_fill_ = 0;
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
