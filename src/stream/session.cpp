#include "stream/session.h"

#include <algorithm>
#include <chrono>

namespace astro::stream {

// ---------------------------------------------------------------------------
// SessionSink
// ---------------------------------------------------------------------------

void SessionSink::run() {
  if (!open()) {
    set_stop_reason(StopReason::kRequested);
    return;
  }
  DataTuple t;
  bool have = false;
  const auto drop = [&] {
    if (arena_) arena_->release(t);
    count_lossy(1);
    have = false;
  };
  while (!stop_requested()) {
    if (degraded_.load(std::memory_order_relaxed) && heal()) {
      degraded_.store(false, std::memory_order_relaxed);
    }
    if (!have) {
      if (!in_->pop_for(t, pop_wait())) {
        if (in_->closed() && in_->size() == 0) break;  // flush below
        idle();
        continue;
      }
      have = true;
      metrics_.record_in(t.wire_bytes());
      accepted_.fetch_add(1, std::memory_order_relaxed);
    }
    if (degraded_.load(std::memory_order_relaxed)) {
      // Counted lossy-link drop (BoundedQueue fault-hook semantics): the
      // producer flows on, the loss is visible in the accounting.
      drop();
      continue;
    }
    switch (send(t)) {
      case Handoff::kTaken:
        have = false;
        break;
      case Handoff::kHeld:
        break;
      case Handoff::kDied:
        set_stop_reason(StopReason::kError);
        return;
    }
  }
  if (have) drop();  // stopped holding a tuple the carrier never took
  count_lossy(flush());
  if (stop_requested()) {
    set_stop_reason(StopReason::kRequested);
  } else if (!ever_connected()) {
    set_stop_reason(StopReason::kError);
  } else {
    set_stop_reason(StopReason::kUpstreamClosed);
  }
}

void SessionSink::count_lossy(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) metrics_.record_dropped();
  lossy_dropped_.fetch_add(n, std::memory_order_relaxed);
}

SessionSinkCounters SessionSink::session_counters() const noexcept {
  SessionSinkCounters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.acked = acked_.load(std::memory_order_relaxed);
  c.lossy_dropped = lossy_dropped_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// SessionServer
// ---------------------------------------------------------------------------

void SessionServer::run() {
  out_.open();
  const StopReason reason = serve();
  if (arena_) arena_->release(staging_);
  out_.close();  // downstream drains what was delivered, then exits
  set_stop_reason(stop_requested() ? StopReason::kRequested : reason);
}

SessionServer::Verdict SessionServer::judge(
    const io::FrameHeader& h, std::span<const std::uint8_t> frame,
    std::uint64_t floor, std::uint64_t next) {
  metrics_.record_in(frame.size());
  const std::span<const std::uint8_t> payload =
      frame.subspan(io::kFrameHeaderBytes);
  if (!io::verify_frame_crc(frame.first(io::kFrameHeaderBytes), payload)) {
    crc_rejects_.fetch_add(1, std::memory_order_relaxed);
    metrics_.record_dropped();
    quarantine(h.seq);
    return Verdict::kRejected;
  }
  if (h.seq <= floor) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return Verdict::kDuplicate;
  }
  if (h.seq != next) return Verdict::kGap;
  if (arena_) arena_->acquire(staging_);
  if (!io::decode_tuple_payload_into(payload, staging_)) {
    payload_rejects_.fetch_add(1, std::memory_order_relaxed);
    metrics_.record_dropped();
    quarantine(h.seq);
    return Verdict::kRejected;
  }
  const std::size_t bytes = staging_.wire_bytes();
  if (!out_.push(std::move(staging_))) return Verdict::kClosed;
  delivered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.record_out(bytes);
  return Verdict::kDelivered;
}

void SessionServer::reject_protocol(std::size_t bytes) {
  metrics_.record_in(bytes);
  metrics_.record_dropped();
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
}

void SessionServer::quarantine(std::uint64_t seq) {
  if (dead_letters_ == nullptr) return;
  DeadLetter husk;
  husk.tuple.seq = seq;
  husk.reason = spectra::RejectReason::kCorruptFrame;
  dead_letters_->record(husk, husk.tuple.wire_bytes());
  husks_.fetch_add(1, std::memory_order_relaxed);
}

void SessionServer::open_session(std::uint64_t at) {
  sessions_.fetch_add(1, std::memory_order_relaxed);
  if (at > 0) resumes_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SessionServer::cap_at_watermark(std::uint64_t progress,
                                              std::uint64_t credit) const {
  if (!applied_watermark_) return progress;
  return std::min(progress, applied_watermark_() + credit);
}

SessionServerCounters SessionServer::session_counters() const noexcept {
  SessionServerCounters c;
  c.delivered = delivered_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
  c.payload_rejects = payload_rejects_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.sessions = sessions_.load(std::memory_order_relaxed);
  c.resumes = resumes_.load(std::memory_order_relaxed);
  c.byes = byes_.load(std::memory_order_relaxed);
  c.dead_letters = husks_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace astro::stream
