#pragma once

// Session-oriented, fault-tolerant TCP tuple transport (DESIGN.md
// "Transport"; paper §III-A.1: "Network TCP sockets ... are also supported
// out of the box as a source of data").
//
// TcpTupleServer is a source operator: it listens on a port, accepts
// connections (sequentially), parses the CRC32C-framed tuples defined in
// io/frame.h, and emits them downstream exactly once.  TcpTupleSink is the
// matching egress operator: it connects to a server and writes every input
// tuple.  Together they let an analysis graph span processes — the paper's
// "Network connector" between the splitter and remote PCA engines — while
// surviving the faults real links have:
//
//   * Every frame carries a version byte and a CRC32C over header+payload;
//     a corrupt frame is rejected with typed accounting (and optionally
//     forwarded to the PR 4 dead-letter queue), never applied, and never
//     acked — the sender retransmits it on session resume.
//   * The sink keeps a bounded retransmit buffer keyed by the frame's
//     transport `seq`; the server acks cumulatively.  A dropped connection
//     (or a kill -9'd receiver process that comes back) is re-established
//     with exponential backoff + deterministic jitter, the HELLO/HELLO-ACK
//     handshake returns the receiver's resume point, and the sink replays
//     exactly the unacked suffix — zero loss, zero duplication (the server
//     discards already-applied seqs as counted duplicates).
//   * All socket I/O is poll-driven with connect/read/write deadlines, so
//     a stalled peer can never wedge shutdown; stop requests are honored
//     within one poll slice (~100 ms).
//   * When an outage outlives the retry budget the sink degrades to a
//     counted lossy link (the BoundedQueue fault-hook semantics: drops are
//     counted, conservation stays exact) and re-heals on reconnect.
//
// Determinism: layer a SocketFaultInjector (stream/socket_fault.h) under
// the sink's socket calls to replay partial writes, stalls, resets, and
// bit flips at exact byte offsets.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/dead_letter.h"
#include "stream/operator.h"
#include "stream/socket_fault.h"

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
  /// Optional deterministic socket fault shim (tests / chaos drills).
  std::shared_ptr<SocketFaultInjector> fault;
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

/// Live sender-side counters (all readable while the sink runs).
struct TcpSinkCounters {
  std::uint64_t accepted = 0;      ///< tuples assigned a transport seq
  std::uint64_t acked = 0;         ///< tuples the receiver durably applied
  std::uint64_t lossy_dropped = 0; ///< counted drops (degraded / give-up)
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
  bool degraded = false;
};

/// Live receiver-side counters.
struct TcpServerCounters {
  std::uint64_t delivered = 0;      ///< unique tuples pushed downstream
  std::uint64_t duplicates = 0;     ///< already-applied seqs (resume replay)
  std::uint64_t out_of_order = 0;   ///< gap frames awaiting sender replay
  std::uint64_t crc_rejects = 0;    ///< frames failing CRC32C
  std::uint64_t payload_rejects = 0;///< CRC-valid but malformed bodies
  std::uint64_t protocol_errors = 0;///< desynced headers (connection drop)
  std::uint64_t acks_sent = 0;
  std::uint64_t sessions = 0;       ///< HELLOs accepted
  std::uint64_t resumes = 0;        ///< HELLOs resuming at seq > 0
  std::uint64_t byes = 0;
  std::uint64_t dead_letters = 0;   ///< corrupt frames forwarded to the DLQ
  std::uint64_t dead_letter_overflow = 0;
};

class TcpTupleServer final : public Operator {
 public:
  /// Binds to 127.0.0.1:`port` at construction (port 0 = ephemeral; read
  /// the chosen port with port()).  Throws std::runtime_error on bind
  /// failure.  `max_connections` successive client sessions are served
  /// before the source closes (0 = until stopped or a kBye arrives with
  /// options.exit_on_bye).
  TcpTupleServer(std::string name, std::uint16_t port,
                 ChannelPtr<DataTuple> out, std::size_t max_connections = 1,
                 TcpServerOptions options = {});
  ~TcpTupleServer() override;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Forwards CRC-rejected frames to a dead-letter channel with reason
  /// kCorruptFrame (non-blocking; overflow is counted).  Call before
  /// start().
  void set_dead_letters(ChannelPtr<DeadLetter> dlq) { dlq_ = std::move(dlq); }

  /// Durable session resume: called when the first HELLO arrives, returns
  /// the highest transport seq the application already applied durably
  /// (e.g. recovered from a write-ahead log after a process restart).
  /// Unset = sessions start at 0 and resume from the server's in-memory
  /// state across reconnects.  Call before start().
  void set_resume_point(std::function<std::uint64_t()> fn) {
    resume_point_ = std::move(fn);
  }

  /// Ack gating: cumulative acks never exceed this watermark, so a sender
  /// only prunes its retransmit buffer once the application has durably
  /// applied a tuple (exactly-once across receiver crashes).  Unset =
  /// everything pushed downstream counts as applied.  Call before start().
  void set_applied_watermark(std::function<std::uint64_t()> fn) {
    applied_watermark_ = std::move(fn);
  }

  [[nodiscard]] TcpServerCounters counters() const noexcept;

 protected:
  void run() override;

 private:
  enum class FrameOutcome { kContinue, kConnectionDone, kDownstreamClosed };

  bool serve_connection(int fd);
  FrameOutcome handle_frame(int fd, const std::uint8_t* frame,
                            std::size_t frame_bytes);
  [[nodiscard]] std::uint64_t ack_value() const;
  bool send_ack(int fd, bool force);
  void quarantine_frame(std::uint64_t seq);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ChannelPtr<DataTuple> out_;
  std::size_t max_connections_;
  TcpServerOptions options_;
  ChannelPtr<DeadLetter> dlq_;
  std::function<std::uint64_t()> resume_point_;
  std::function<std::uint64_t()> applied_watermark_;

  std::uint64_t applied_ = 0;       // highest contiguously applied seq
  bool resume_initialized_ = false;
  std::uint64_t last_ack_sent_ = 0;
  bool bye_seen_ = false;

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> out_of_order_{0};
  std::atomic<std::uint64_t> crc_rejects_{0};
  std::atomic<std::uint64_t> payload_rejects_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> byes_{0};
  std::atomic<std::uint64_t> dead_letters_{0};
  std::atomic<std::uint64_t> dead_letter_overflow_{0};
};

class TcpTupleSink final : public Operator {
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
  void run() override;

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
  IoResult await_ack_progress();
  void note_acked(std::uint64_t upto);
  void on_outage();
  void enter_degraded();
  bool heal_probe();
  void flush_and_close();
  [[nodiscard]] std::chrono::milliseconds jittered(
      std::chrono::milliseconds backoff);

  std::uint16_t port_;
  ChannelPtr<DataTuple> in_;
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

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> lossy_dropped_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> connect_failures_{0};
  std::atomic<std::uint64_t> acks_received_{0};
  std::atomic<std::uint64_t> outages_{0};
  std::atomic<std::uint64_t> backoff_ms_last_{0};
  std::atomic<std::uint64_t> window_depth_{0};
  std::atomic<bool> degraded_{false};
};

}  // namespace astro::stream
