#pragma once

// Same-host shared-memory carrier for the session transport (DESIGN.md
// "Transport", "Shared-memory leg"): ShmTupleSink and ShmTupleServer are
// drop-in siblings of the TCP pair in stream/net.h over a ShmRing.  The
// session contract lives in stream/session.h.  This file keeps the ring
// I/O: stage and commit, tail publish, PeerWatch liveness (pid + heartbeat
// staleness), and the header's bye flag as the end-of-stream marker.
//
// The ring is the retransmit window: the producer overwrites a slot only
// once the tail passed it, so a kill -9'd consumer that re-attaches replays
// exactly the unconsumed suffix.  There is no second copy of a slot, so a
// rejected slot is skipped after its husk (quarantine-and-advance).
//
// The steady path allocates nothing: frames are encoded straight into the
// ring slot (io::encode_tuple_into) and decoded into an arena-leased
// recycled tuple, so the zero-alloc tuple lifecycle survives the process
// hop — the property BENCH_transport.json's shm rows gate.
//
// Determinism: layer a FaultInjector (stream/fault.h) under the endpoints
// to replay slot corruption, consumer stalls, and producer death
// mid-commit at exact transport seqs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "stream/fault.h"
#include "stream/session.h"
#include "stream/shm_ring.h"

namespace astro::stream {

/// Knobs shared by both shm endpoints (the segment geometry must agree).
struct ShmTransportOptions {
  /// Ring capacity in slots — the retransmit window and the transport's
  /// backpressure bound.
  std::size_t ring_capacity = 1024;
  /// Largest frame a slot holds; tuples that encode bigger are counted
  /// lossy (a geometry misconfiguration, never silent truncation).
  std::size_t max_frame_bytes = 4096;
  /// Consumer: how long to poll for the producer's segment to appear.
  std::chrono::milliseconds attach_timeout{5000};
  /// Heartbeat staleness threshold: a registered peer whose beat froze
  /// longer than this (or whose pid vanished) is dead.
  std::chrono::milliseconds peer_timeout{1000};
  /// Producer: grace period for a dead/absent consumer to (re)attach
  /// before the sink degrades to counted-lossy.
  std::chrono::milliseconds restart_timeout{3000};
  /// Flush / final-drain bound: max wait without tail (resp. watermark)
  /// progress before giving up with counted loss.
  std::chrono::milliseconds ack_timeout{2000};
  /// Optional deterministic fault schedule (tests / chaos drills); its
  /// shm events drive slot commits and consumes.
  std::shared_ptr<FaultInjector> fault;
};

/// Producer counters: the shared session counters (stream/session.h) plus
/// the ring's own.
struct ShmSinkCounters : SessionSinkCounters {
  std::uint64_t frames_committed = 0;
  std::uint64_t oversize_dropped = 0;  ///< tuples too big for a slot
  std::uint64_t blocked_waits = 0;  ///< full-ring wait episodes
  std::uint64_t wraps = 0;          ///< ring laps (slot-0 reuses)
  std::uint64_t ring_depth = 0;     ///< head - tail, sampled
  std::uint64_t consumer_generations = 0;  ///< attach incarnations observed
};

/// Consumer counters: the shared session counters plus the ring's own.
struct ShmServerCounters : SessionServerCounters {
  std::uint64_t quarantined = 0;     ///< slots skipped past (all reject kinds)
  std::uint64_t producer_deaths = 0;
};

/// Egress operator: creates the segment (producer side owns the name),
/// encodes every input tuple straight into a ring slot, and flushes —
/// waits for the consumer's durable tail to reach head — before marking
/// bye and exiting.
class ShmTupleSink final : public SessionSink {
 public:
  /// Creates `segment` (unlinking a stale one) with the options' geometry.
  /// Throws std::runtime_error when the segment cannot be created.
  ShmTupleSink(std::string name, std::string segment, ChannelPtr<DataTuple> in,
               ShmTransportOptions options = {});
  ~ShmTupleSink() override;

  [[nodiscard]] const std::string& segment_name() const noexcept {
    return segment_->name();
  }

  [[nodiscard]] ShmSinkCounters counters() const noexcept;

 protected:
  bool open() override;
  void idle() override { beat(); }
  bool heal() override;
  Handoff send(DataTuple& t) override;
  std::uint64_t flush() override;
  [[nodiscard]] bool ever_connected() const override { return ever_attached_; }

 private:
  /// Heartbeat, gauge sampling (depth, acked = tail, generations).
  void beat();
  [[nodiscard]] bool wait_for_room();
  /// True once the consumer has been dead or absent continuously past
  /// restart_timeout; `dead_since` carries the streak across calls.
  [[nodiscard]] bool consumer_gone(
      std::chrono::steady_clock::time_point& dead_since);

  std::unique_ptr<ShmRingSegment> segment_;
  ShmTransportOptions options_;
  std::optional<ShmRingProducer> prod_;  // registered when the run starts
  PeerWatch watch_;
  bool ever_attached_ = false;

  std::atomic<std::uint64_t> frames_committed_{0};
  std::atomic<std::uint64_t> oversize_dropped_{0};
  std::atomic<std::uint64_t> blocked_waits_{0};
  std::atomic<std::uint64_t> wraps_{0};
  std::atomic<std::uint64_t> ring_depth_{0};
  std::atomic<std::uint64_t> consumer_generations_{0};
};

/// Source operator: attaches to the producer's segment (polling until it
/// appears), consumes frames from the ring, and pushes decoded tuples
/// downstream exactly once.  Exits on bye (after the durable tail caught
/// up) or on producer death.
class ShmTupleServer final : public SessionServer {
 public:
  ShmTupleServer(std::string name, std::string segment,
                 DataEdge out, ShmTransportOptions options = {});
  ~ShmTupleServer() override;

  [[nodiscard]] ShmServerCounters counters() const noexcept;

 protected:
  StopReason serve() override;

 private:
  [[nodiscard]] bool attach();
  /// Judges the slot at the cursor and advances past it; false when
  /// downstream closed before the tuple could be pushed.  Commits land in
  /// seq order, so no slot is ever held back as a gap.
  bool consume_slot(ShmRingConsumer& cons, std::uint64_t resume);
  [[nodiscard]] std::uint64_t quarantined() const noexcept;
  [[nodiscard]] std::uint64_t tail_target(const ShmRingConsumer& cons) const;
  void final_drain(ShmRingConsumer& cons);

  std::string segment_name_;
  std::unique_ptr<ShmRingSegment> segment_;
  ShmTransportOptions options_;
  std::uint64_t quarantined_at_attach_ = 0;

  std::atomic<std::uint64_t> producer_deaths_{0};
};

}  // namespace astro::stream
