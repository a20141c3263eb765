#pragma once

// The session contract both transport carriers share (DESIGN.md
// "Transport", "Session core"), written once.  A carrier — TCP sockets in
// stream/net.h, a shared-memory ring in stream/shm_net.h — moves bytes:
//
//   * SessionSink runs the sender.  Every tuple taken from the input is
//     `accepted`; while the link is degraded it becomes a counted drop
//     instead of a send, and at flush whatever the receiver never
//     confirmed counts as `lossy_dropped`.  Once the sink exits,
//     accepted == acked + lossy_dropped on every carrier.
//   * SessionServer judges every data frame the receiver reads: a CRC32C
//     failure or a malformed body is never applied and becomes a
//     dead-letter husk, a seq at or below the resume point is a counted
//     duplicate, and the rest is decoded and pushed exactly once.  The
//     progress a carrier reports back (TCP acks, the ring tail) is capped
//     at the applied watermark, so a receiver crash replays exactly the
//     suffix it never durably applied.  Each judged frame counts once in
//     metrics().tuples_in() and lands in exactly one of tuples_out(),
//     dropped(), duplicates or (TCP only) out_of_order.  The server's
//     output is a DataEdge: in a pipeline it is the fused split, so the
//     delivery validates and routes each tuple on the receive thread.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "io/frame.h"
#include "stream/dead_letter.h"
#include "stream/operator.h"
#include "stream/recorder.h"
#include "stream/split.h"
#include "stream/tuple_arena.h"

namespace astro::stream {

/// Sender counters every carrier keeps.
struct SessionSinkCounters {
  std::uint64_t accepted = 0;       ///< tuples taken from the input
  std::uint64_t acked = 0;          ///< tuples the receiver durably applied
  std::uint64_t lossy_dropped = 0;  ///< counted drops (degraded / give-up)
  bool degraded = false;            ///< the link is in counted-lossy mode
};

/// Receiver counters every carrier keeps.
struct SessionServerCounters {
  std::uint64_t delivered = 0;        ///< unique tuples pushed downstream
  std::uint64_t duplicates = 0;       ///< seqs at or below the resume point
  std::uint64_t crc_rejects = 0;      ///< frames failing CRC32C
  std::uint64_t payload_rejects = 0;  ///< CRC-valid but malformed bodies
  std::uint64_t protocol_errors = 0;  ///< frames whose header is unusable
  std::uint64_t sessions = 0;         ///< sessions opened (HELLOs, attaches)
  std::uint64_t resumes = 0;          ///< sessions opened past seq 0
  std::uint64_t byes = 0;             ///< clean end-of-stream markers seen
  std::uint64_t dead_letters = 0;     ///< husks recorded as dead letters
};

/// The sender's run loop.  A carrier supplies the I/O through the hooks
/// below; the loop owns the accounting and the stop reason.
class SessionSink : public Operator {
 public:
  /// Closes the sender's half of the slab recycle loop: once a tuple is
  /// encoded onto the carrier (or counted dropped) its payload goes back to
  /// `arena` for the source to re-lease.  Call before start().  Null =
  /// payloads are plain heap vectors.
  void set_arena(TupleArena* arena) noexcept { arena_ = arena; }

 protected:
  SessionSink(std::string name, ChannelPtr<DataTuple> in)
      : Operator(std::move(name)), in_(std::move(in)) {}

  /// What the carrier did with a tuple offered to send().
  enum class Handoff {
    kTaken,  ///< carried, buffered for replay, or counted dropped
    kHeld,   ///< no room yet: offer it again (the link may have degraded)
    kDied,   ///< the carrier crashed (injected): exit with no flush
  };

  void run() final;

  /// Opens the first session.  A link that cannot come up sets degraded_
  /// instead of failing.  Returns false when stopped before it was up.
  virtual bool open() = 0;
  /// How long the run loop waits for the next tuple before it calls
  /// idle(); a carrier holding a partly filled send batch waits less.
  [[nodiscard]] virtual std::chrono::microseconds pop_wait() const {
    return std::chrono::milliseconds(50);
  }
  /// No tuple arrived within pop_wait(): flush held sends, service acks,
  /// heartbeats and liveness watchdogs.
  virtual void idle() = 0;
  /// Called each loop turn while degraded; true = the link is healthy.
  virtual bool heal() = 0;
  virtual Handoff send(DataTuple& t) = 0;
  /// End of stream or stop: waits (bounded) for the receiver to confirm
  /// what was carried and stores the final acked_.  Returns how many
  /// carried tuples the receiver never confirmed.
  virtual std::uint64_t flush() = 0;
  /// False when no receiver was ever reached: the sink then ends in
  /// kError, so callers can tell a dead endpoint from a clean shutdown.
  [[nodiscard]] virtual bool ever_connected() const = 0;

  /// Counts `n` tuples as lossy-link drops.
  void count_lossy(std::uint64_t n);
  [[nodiscard]] SessionSinkCounters session_counters() const noexcept;

  std::atomic<std::uint64_t> acked_{0};
  std::atomic<bool> degraded_{false};
  /// Payload pool carried and dropped tuples return to (null = heap).
  TupleArena* arena_ = nullptr;

 private:
  ChannelPtr<DataTuple> in_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> lossy_dropped_{0};
};

/// The receiver's verdict on each data frame, the resume point, ack
/// gating, and the dead-letter husks.  A carrier reads frames and reports
/// progress back to the sender.
class SessionServer : public Operator {
 public:
  /// The receiver's half: each delivered tuple's payload is leased from
  /// `arena` (released downstream as usual).  Call before start().  Null =
  /// plain heap payloads.
  void set_arena(TupleArena* arena) noexcept { arena_ = arena; }

  /// Records rejected frames in `dead_letters` (non-owning) as husks with
  /// reason kCorruptFrame, on the receive thread.  Call before start().
  void set_dead_letters(Recorder<DeadLetter>* dead_letters) noexcept {
    dead_letters_ = dead_letters;
  }

  /// Durable session resume, read once as the receiver starts: returns the
  /// highest transport seq the application already applied durably (e.g.
  /// recovered from a write-ahead log after a process restart).  Frames at
  /// or below it are counted duplicates, never re-delivered.  Unset = 0.
  /// Call before start().
  void set_resume_point(std::function<std::uint64_t()> fn) {
    resume_point_ = std::move(fn);
  }

  /// Ack gating: the progress reported back to the sender never passes
  /// this watermark, so the sender only reclaims what the application
  /// durably applied (exactly-once across receiver crashes).  Unset =
  /// everything pushed downstream counts as applied.  Call before start().
  void set_applied_watermark(std::function<std::uint64_t()> fn) {
    applied_watermark_ = std::move(fn);
  }

 protected:
  SessionServer(std::string name, DataEdge out)
      : Operator(std::move(name)), out_(std::move(out)) {}

  void run() final;
  /// The carrier's receive loop; returns why it ended (a stop request
  /// overrides that).  out_ closes once it returns.
  virtual StopReason serve() = 0;

  enum class Verdict {
    kDelivered,  ///< decoded and pushed downstream
    kDuplicate,  ///< seq at or below the floor: filtered
    kRejected,   ///< CRC or body damage: dropped and husked
    kGap,        ///< ahead of the next seq: left for the sender to replay
    kClosed,     ///< downstream closed (shutdown)
  };

  /// Judges one data frame (`frame` = header + payload, `h` its decoded
  /// header): counts it in, checks its CRC32C, filters seqs at or below
  /// `floor`, holds back a seq other than `next`, and decodes and pushes
  /// the rest.
  Verdict judge(const io::FrameHeader& h, std::span<const std::uint8_t> frame,
                std::uint64_t floor, std::uint64_t next);
  /// A frame whose header cannot be trusted: counted in, dropped, and a
  /// protocol error.  The carrier decides whether it has a seq to husk.
  void reject_protocol(std::size_t bytes);
  /// Records a husk carrying `seq` as a dead letter.  Nothing in a
  /// rejected frame can be trusted except its arrival, so the husk holds
  /// only the claimed seq.  Recording never waits on a consumer, so it
  /// never stalls the receive loop.
  void quarantine(std::uint64_t seq);

  /// Counts a session opened at resume point `at`.
  void open_session(std::uint64_t at);
  [[nodiscard]] std::uint64_t resume_point() const {
    return resume_point_ ? resume_point_() : 0;
  }
  /// `progress` capped at the applied watermark plus `credit` (frames the
  /// application never sees, so never applies).
  [[nodiscard]] std::uint64_t cap_at_watermark(std::uint64_t progress,
                                               std::uint64_t credit = 0) const;
  [[nodiscard]] SessionServerCounters session_counters() const noexcept;

  /// Decoded payloads are leased from here (null = heap).
  TupleArena* arena_ = nullptr;
  std::atomic<std::uint64_t> byes_{0};

 private:
  DataEdge out_;
  DataTuple staging_;  // recycled decode target
  Recorder<DeadLetter>* dead_letters_ = nullptr;
  std::function<std::uint64_t()> resume_point_;
  std::function<std::uint64_t()> applied_watermark_;

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> crc_rejects_{0};
  std::atomic<std::uint64_t> payload_rejects_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> husks_{0};
};

}  // namespace astro::stream
