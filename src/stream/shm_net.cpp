#include "stream/shm_net.h"

#include <algorithm>
#include <thread>

#include "io/frame.h"

namespace astro::stream {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr milliseconds kAttachPoll{1};

/// Idle/backpressure backoff: spin a little for the common
/// consumer-is-right-behind-us case, then yield to the scheduler in
/// growing slices so a genuinely idle ring costs nothing.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    // busy-spin: the peer is typically nanoseconds away
  } else if (spins < 256) {
    std::this_thread::yield();
  } else if (spins < 512) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShmTupleSink
// ---------------------------------------------------------------------------

ShmTupleSink::ShmTupleSink(std::string name, std::string segment,
                           ChannelPtr<DataTuple> in,
                           ShmTransportOptions options)
    : SessionSink(std::move(name), std::move(in)), options_(options) {
  segment_ = ShmRingSegment::create(
      segment, options_.ring_capacity,
      kShmSlotPrefixBytes + options_.max_frame_bytes);
}

ShmTupleSink::~ShmTupleSink() { join(); }

void ShmTupleSink::beat() {
  prod_->beat();
  ring_depth_.store(prod_->depth(), std::memory_order_relaxed);
  acked_.store(prod_->tail(), std::memory_order_relaxed);
  const ShmPeer consumer = prod_->consumer();
  consumer_generations_.store(consumer.generation, std::memory_order_relaxed);
  if (consumer.pid != 0) ever_attached_ = true;
}

bool ShmTupleSink::open() {
  prod_.emplace(*segment_);
  return true;
}

bool ShmTupleSink::heal() {
  // Heal when a (new) consumer is alive and made room; until then the
  // producer flows on and every drop is counted.
  beat();
  return watch_.observe(prod_->consumer(), options_.peer_timeout) ==
             PeerWatch::State::kAlive &&
         !prod_->full();
}

bool ShmTupleSink::wait_for_room() {
  // One wait episode: the ring is full and we park until the consumer's
  // durable tail frees a slot.  A consumer that is dead (or was never
  // there) continuously past restart_timeout is not coming back inside
  // this episode — degrade to counted-lossy rather than wedge the
  // pipeline.
  blocked_waits_.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point dead_since{};
  unsigned spins = 0;
  while (prod_->full()) {
    if (stop_requested()) return false;
    beat();
    if (consumer_gone(dead_since)) {
      degraded_.store(true, std::memory_order_relaxed);
      return false;
    }
    backoff(spins);
  }
  return true;
}

bool ShmTupleSink::consumer_gone(Clock::time_point& dead_since) {
  const auto now = Clock::now();
  if (watch_.observe(prod_->consumer(), options_.peer_timeout) ==
      PeerWatch::State::kAlive) {
    dead_since = {};
    return false;
  }
  if (dead_since == Clock::time_point{}) dead_since = now;
  return now - dead_since > options_.restart_timeout;
}

ShmTupleSink::Handoff ShmTupleSink::send(DataTuple& t) {
  beat();
  if (prod_->full() && !wait_for_room()) {
    return Handoff::kHeld;  // stopped or degraded
  }
  const std::uint64_t seq = prod_->next_seq();
  const std::span<std::uint8_t> slot = prod_->stage(seq);
  const std::size_t n = io::encode_tuple_into(slot, t, seq);
  if (arena_) arena_->release(t);  // the frame is the tuple now
  if (n == 0) {
    // Geometry misconfiguration (tuple bigger than a slot): counted,
    // never silently truncated.
    oversize_dropped_.fetch_add(1, std::memory_order_relaxed);
    count_lossy(1);
    return Handoff::kTaken;
  }
  if (options_.fault) {
    const auto plan = options_.fault->plan_commit(seq, n);
    for (const auto& [off, mask] : plan.flips) slot[off] ^= mask;
    if (plan.die) {
      // Simulated crash mid-commit: the slot is written but head never
      // advances — no flush, no bye, no further heartbeats.  The
      // consumer's peer-death detection must fire.
      return Handoff::kDied;
    }
  }
  if (prod_->commit(seq, n)) wraps_.fetch_add(1, std::memory_order_relaxed);
  frames_committed_.fetch_add(1, std::memory_order_relaxed);
  metrics_.record_out(n);
  return Handoff::kTaken;
}

std::uint64_t ShmTupleSink::flush() {
  // Everything is committed; bye tells the consumer no further seq will
  // come, then we wait for its durable tail to reach head.  Bounded: no
  // tail progress for ack_timeout (with a restart grace while the
  // consumer is dead) leaves the unconfirmed suffix to be counted lossy.
  prod_->set_bye();
  std::uint64_t progress_mark = prod_->tail();
  auto last_progress = Clock::now();
  Clock::time_point dead_since{};
  unsigned spins = 0;
  while (prod_->tail() < prod_->head() && !stop_requested()) {
    beat();
    const std::uint64_t t = prod_->tail();
    const auto now = Clock::now();
    if (t > progress_mark) {
      progress_mark = t;
      last_progress = now;
    }
    if (consumer_gone(dead_since)) break;
    if (dead_since != Clock::time_point{}) {
      // A restarting consumer resumes at tail; keep the grace window open.
      last_progress = now;
    } else if (now - last_progress > options_.ack_timeout) {
      break;
    }
    backoff(spins);
  }
  beat();
  // One tail read decides both sides, so a tail that moves after it cannot
  // count a tuple as acked and lossy at once.
  const std::uint64_t tail = prod_->tail();
  acked_.store(tail, std::memory_order_relaxed);
  return prod_->head() - tail;
}

ShmSinkCounters ShmTupleSink::counters() const noexcept {
  ShmSinkCounters c;
  static_cast<SessionSinkCounters&>(c) = session_counters();
  c.frames_committed = frames_committed_.load(std::memory_order_relaxed);
  c.oversize_dropped = oversize_dropped_.load(std::memory_order_relaxed);
  c.blocked_waits = blocked_waits_.load(std::memory_order_relaxed);
  c.wraps = wraps_.load(std::memory_order_relaxed);
  c.ring_depth = ring_depth_.load(std::memory_order_relaxed);
  c.consumer_generations =
      consumer_generations_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// ShmTupleServer
// ---------------------------------------------------------------------------

ShmTupleServer::ShmTupleServer(std::string name, std::string segment,
                               DataEdge out, ShmTransportOptions options)
    : SessionServer(std::move(name), std::move(out)),
      segment_name_(std::move(segment)),
      options_(options) {}

ShmTupleServer::~ShmTupleServer() { join(); }

bool ShmTupleServer::attach() {
  const auto deadline = Clock::now() + options_.attach_timeout;
  const std::size_t slot_bytes =
      kShmSlotPrefixBytes + options_.max_frame_bytes;
  while (!stop_requested() && Clock::now() < deadline) {
    segment_ = ShmRingSegment::try_attach(segment_name_, options_.ring_capacity,
                                          slot_bytes);
    if (segment_) return true;
    std::this_thread::sleep_for(kAttachPoll);
  }
  return false;
}

std::uint64_t ShmTupleServer::quarantined() const noexcept {
  const SessionServerCounters c = session_counters();
  return c.crc_rejects + c.payload_rejects + c.protocol_errors;
}

std::uint64_t ShmTupleServer::tail_target(const ShmRingConsumer& cons) const {
  // Quarantined husks never reach the application, so they are credited
  // on top of the watermark — but duplicates are NOT (they sit at or below
  // the resume point, which the watermark already covers; crediting them
  // would let the tail outrun durability).
  return cap_at_watermark(cons.cursor(),
                          quarantined() - quarantined_at_attach_);
}

bool ShmTupleServer::consume_slot(ShmRingConsumer& cons,
                                  std::uint64_t resume) {
  const std::uint64_t position = cons.cursor() + 1;
  if (options_.fault) {
    auto delay = options_.fault->plan_consume(position);
    while (delay.count() > 0 && !stop_requested()) {
      const auto slice = std::min(delay, milliseconds(10));
      std::this_thread::sleep_for(slice);
      cons.beat();
      delay -= slice;
    }
  }
  const std::span<const std::uint8_t> frame = cons.peek();
  const auto header =
      frame.empty()
          ? std::nullopt
          : io::decode_frame_header(frame.first(io::kFrameHeaderBytes));
  if (!header ||
      header->payload_bytes != frame.size() - io::kFrameHeaderBytes ||
      header->type != io::FrameType::kTuple) {
    // A length prefix outside any valid frame size, or an undecodable or
    // non-tuple frame in a data ring: protocol damage, husked under the
    // slot's position.
    reject_protocol(frame.size());
    quarantine(position);
  } else if (judge(*header, frame, /*floor=*/resume,
                   /*next=*/header->seq) == Verdict::kClosed) {
    return false;  // pipeline shutting down
  }
  cons.advance();
  return true;
}

void ShmTupleServer::final_drain(ShmRingConsumer& cons) {
  // Clean end of stream: hold the session open until the application's
  // durable watermark confirms everything consumed, so the producer's
  // flush sees tail == head.  Bounded by watermark progress.
  std::uint64_t progress_mark = cons.tail();
  auto last_progress = Clock::now();
  while (!stop_requested() && cons.tail() < cons.cursor()) {
    cons.publish_tail(tail_target(cons));
    cons.beat();
    const std::uint64_t t = cons.tail();
    const auto now = Clock::now();
    if (t > progress_mark) {
      progress_mark = t;
      last_progress = now;
    } else if (now - last_progress > options_.ack_timeout) {
      break;  // the application stopped applying; producer counts the rest
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
}

StopReason ShmTupleServer::serve() {
  if (!attach()) return StopReason::kError;
  ShmRingConsumer cons(*segment_);
  const std::uint64_t resume = resume_point();
  open_session(resume);
  quarantined_at_attach_ = quarantined();

  PeerWatch watch;
  unsigned spins = 0;
  while (!stop_requested()) {
    cons.beat();
    if (!cons.empty()) {
      spins = 0;
      if (!consume_slot(cons, resume)) return StopReason::kRequested;
      cons.publish_tail(tail_target(cons));
      continue;
    }
    if (cons.bye()) {
      // Producer committed its last frame and will never commit another.
      final_drain(cons);
      byes_.fetch_add(1, std::memory_order_relaxed);
      return StopReason::kUpstreamClosed;
    }
    if (watch.observe(cons.producer(), options_.peer_timeout) ==
        PeerWatch::State::kDead) {
      producer_deaths_.fetch_add(1, std::memory_order_relaxed);
      return StopReason::kError;
    }
    cons.publish_tail(tail_target(cons));  // idle: keep draining watermark
    backoff(spins);
  }
  return StopReason::kRequested;
}

ShmServerCounters ShmTupleServer::counters() const noexcept {
  ShmServerCounters c;
  static_cast<SessionServerCounters&>(c) = session_counters();
  c.quarantined = c.crc_rejects + c.payload_rejects + c.protocol_errors;
  c.producer_deaths = producer_deaths_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace astro::stream
