#include "stream/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/rng.h"
#include "stream/tuple.h"

namespace astro::stream {

namespace {

// The stateless mixer behind every seeded decision: one splitmix64 step.
std::uint64_t mix64(std::uint64_t x) { return stats::splitmix64(x); }

std::uint64_t hash_name(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

const std::vector<CorruptionKind> kAllCorruptions{
    CorruptionKind::kNaN, CorruptionKind::kInf, CorruptionKind::kTruncate,
    CorruptionKind::kGarble};

}  // namespace

void apply_corruption(DataTuple& tuple, const FaultDecision& decision) {
  const std::size_t d = tuple.values.size();
  if (d == 0) return;
  const std::uint64_t salt = decision.corruption_salt;
  switch (decision.corruption) {
    case CorruptionKind::kNaN:
      tuple.values[std::size_t(salt % d)] =
          std::numeric_limits<double>::quiet_NaN();
      break;
    case CorruptionKind::kInf:
      tuple.values[std::size_t(salt % d)] =
          (salt & 1) ? std::numeric_limits<double>::infinity()
                     : -std::numeric_limits<double>::infinity();
      break;
    case CorruptionKind::kTruncate:
      // A short readout: the vector loses its tail.  The mask (if any) is
      // deliberately left at its original length — a separately delivered
      // mask would not shrink with the readout.
      tuple.values.resize(std::size_t(salt % d));
      break;
    case CorruptionKind::kGarble: {
      const std::size_t hits = d < 4 ? d : 4;
      for (std::size_t k = 0; k < hits; ++k) {
        const std::uint64_t h = mix64(salt + k);
        const double magnitude = 1e30 * (1.0 + double(h >> 40));
        tuple.values[std::size_t(h % d)] = (h & 1) ? magnitude : -magnitude;
      }
      break;
    }
  }
}

// --- the one matcher ---------------------------------------------------------

template <typename Events, typename Hit>
bool FaultInjector::match(Events& events, Counter counter,
                          const Target& target, std::uint64_t lo,
                          std::uint64_t hi, Hit&& hit) {
  for (auto& e : events) {
    if (e.counter != counter || (e.once && e.fired)) continue;
    if (e.channel != target.channel || e.peer != target.peer) continue;
    if (e.id != target.id &&
        !(counter == Counter::kStreamByte && e.id == kEveryConnection)) {
      continue;
    }
    if (e.lo >= e.hi || e.hi <= lo || hi <= e.lo) continue;
    if (hit(e)) return true;
  }
  return false;
}

void FaultInjector::add(Event event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

bool FaultInjector::fire(Event& event) {
  event.fired = true;
  injected_[std::size_t(event.kind)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

// --- builders ----------------------------------------------------------------

void FaultInjector::kill_engine(int engine, std::uint64_t after_tuples) {
  add({.kind = Fault::kKill, .counter = Counter::kApplied,
       .id = std::uint64_t(engine), .lo = after_tuples, .once = true});
}

void FaultInjector::kill_engine_on_merge(int engine,
                                         std::uint64_t after_merges) {
  add({.kind = Fault::kKill, .counter = Counter::kMerges,
       .id = std::uint64_t(engine), .lo = after_merges, .once = true});
}

void FaultInjector::drop_on_channel(std::string channel,
                                    std::uint64_t first_push,
                                    std::uint64_t count) {
  add({.kind = Fault::kDrop, .counter = Counter::kPushAttempt,
       .channel = std::move(channel), .lo = first_push,
       .hi = first_push + count});
}

void FaultInjector::drop_randomly(std::string channel, double probability,
                                  std::uint64_t max_drops) {
  add({.kind = Fault::kDrop, .counter = Counter::kPushAttempt,
       .channel = std::move(channel), .probability = probability,
       .budget = max_drops});
}

void FaultInjector::delay_on_channel(std::string channel,
                                     std::uint64_t first_push,
                                     std::uint64_t count,
                                     std::chrono::microseconds delay) {
  add({.kind = Fault::kDelay, .counter = Counter::kPushAttempt,
       .channel = std::move(channel), .lo = first_push,
       .hi = first_push + count, .delay = delay});
}

void FaultInjector::corrupt_on_channel(std::string channel,
                                       std::uint64_t first_push,
                                       std::uint64_t count,
                                       CorruptionKind kind) {
  add({.kind = Fault::kCorrupt, .counter = Counter::kPushAttempt,
       .channel = std::move(channel), .lo = first_push,
       .hi = first_push + count, .kinds = {kind}});
}

void FaultInjector::corrupt_randomly(std::string channel, double probability,
                                     std::uint64_t max_corruptions,
                                     std::vector<CorruptionKind> kinds) {
  add({.kind = Fault::kCorrupt, .counter = Counter::kPushAttempt,
       .channel = std::move(channel), .probability = probability,
       .budget = max_corruptions,
       .kinds = kinds.empty() ? kAllCorruptions : std::move(kinds)});
}

void FaultInjector::partition_link(int a, int b, std::uint64_t from_epoch,
                                   std::uint64_t until_epoch,
                                   bool bidirectional) {
  add({.kind = Fault::kPartition, .counter = Counter::kEpoch,
       .id = std::uint64_t(a), .peer = std::uint64_t(b), .lo = from_epoch,
       .hi = until_epoch});
  if (bidirectional) {
    add({.kind = Fault::kPartition, .counter = Counter::kEpoch,
         .id = std::uint64_t(b), .peer = std::uint64_t(a), .lo = from_epoch,
         .hi = until_epoch});
  }
}

void FaultInjector::fail_connect(std::uint64_t first, std::uint64_t count) {
  if (first == 0) first = 1;
  add({.kind = Fault::kConnectFail, .counter = Counter::kConnect,
       .lo = first, .hi = first + count});
}

void FaultInjector::reset_at(std::size_t connection,
                             std::uint64_t byte_offset) {
  add({.kind = Fault::kReset, .counter = Counter::kStreamByte,
       .id = connection, .lo = byte_offset, .hi = byte_offset + 1,
       .once = true});
}

void FaultInjector::flip_at(std::size_t connection, std::uint64_t byte_offset,
                            std::uint8_t mask) {
  add({.kind = Fault::kFlip, .counter = Counter::kStreamByte,
       .id = connection, .lo = byte_offset, .hi = byte_offset + 1,
       .once = true, .mask = mask == 0 ? std::uint8_t(0x01) : mask});
}

void FaultInjector::stall_at(std::size_t connection, std::uint64_t byte_offset,
                             std::chrono::milliseconds delay) {
  add({.kind = Fault::kStall, .counter = Counter::kStreamByte,
       .id = connection, .lo = byte_offset, .hi = byte_offset + 1,
       .once = true, .delay = delay});
}

void FaultInjector::chunk_writes(std::size_t connection,
                                 std::size_t max_chunk) {
  add({.kind = Fault::kPartialSend, .counter = Counter::kStreamByte,
       .id = connection, .offset = max_chunk == 0 ? 1 : max_chunk});
}

void FaultInjector::corrupt_slot(std::uint64_t seq, std::size_t offset,
                                 std::uint8_t mask) {
  add({.kind = Fault::kFlip, .counter = Counter::kSeq, .lo = seq,
       .hi = seq + 1, .once = true,
       .mask = mask == 0 ? std::uint8_t(0x01) : mask, .offset = offset});
}

void FaultInjector::corrupt_random(std::uint64_t count, std::uint64_t max_seq,
                                   std::size_t min_offset,
                                   std::size_t max_offset) {
  if (max_seq == 0 || count == 0) return;
  if (max_offset < min_offset) max_offset = min_offset;
  std::uint64_t state = seed_;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seq = stats::splitmix64(state) % max_seq + 1;
    const std::size_t offset =
        min_offset + std::size_t(stats::splitmix64(state) %
                                 std::uint64_t(max_offset - min_offset + 1));
    const auto mask = std::uint8_t(stats::splitmix64(state) & 0xFF);
    corrupt_slot(seq, offset, mask);
  }
}

void FaultInjector::die_at_commit(std::uint64_t seq) {
  add({.kind = Fault::kDie, .counter = Counter::kSeq, .lo = seq,
       .hi = seq + 1, .once = true});
}

void FaultInjector::stall_consume(std::uint64_t seq,
                                  std::chrono::milliseconds delay) {
  add({.kind = Fault::kStall, .counter = Counter::kSeq, .lo = seq,
       .hi = seq + 1, .once = true, .delay = delay});
}

// --- query sites: engines and channels ---------------------------------------

bool FaultInjector::should_kill(int engine, std::uint64_t applied_tuples) {
  std::lock_guard lock(mutex_);
  return match(events_, Counter::kApplied, {.id = std::uint64_t(engine)},
               applied_tuples, applied_tuples + 1,
               [&](Event& e) { return fire(e); });
}

bool FaultInjector::should_kill_on_merge(int engine,
                                         std::uint64_t merges_applied) {
  std::lock_guard lock(mutex_);
  return match(events_, Counter::kMerges, {.id = std::uint64_t(engine)},
               merges_applied, merges_applied + 1,
               [&](Event& e) { return fire(e); });
}

std::optional<std::uint64_t> FaultInjector::next_kill_at(int engine) const {
  std::lock_guard lock(mutex_);
  std::optional<std::uint64_t> next;
  match(events_, Counter::kApplied, {.id = std::uint64_t(engine)}, 0,
        std::uint64_t(-1), [&](const Event& e) {
          if (!next || e.lo < *next) next = e.lo;
          return false;
        });
  return next;
}

FaultDecision FaultInjector::on_push(const std::string& channel,
                                     std::uint64_t attempt) {
  std::lock_guard lock(mutex_);
  // One salt drives the random-event coin flip, the corruption-kind
  // cycling and the damage placement: a hash of (seed, channel, attempt),
  // so a schedule replays bit-exactly run after run.
  const std::uint64_t salt = mix64(seed_ ^ hash_name(channel) ^ attempt);
  FaultDecision d;
  match(events_, Counter::kPushAttempt, {.channel = channel}, attempt,
        attempt + 1, [&](Event& e) {
          if (e.probability > 0.0) {
            const double u = double(salt >> 11) * 0x1.0p-53;  // [0, 1)
            if (e.budget == 0 || u >= e.probability) return false;
            --e.budget;
          }
          fire(e);
          switch (e.kind) {
            case Fault::kDrop:
              d.action = FaultAction::kDrop;
              break;
            case Fault::kDelay:
              d.action = FaultAction::kDelay;
              d.delay = e.delay;
              break;
            default:  // kCorrupt, the only other push-attempt kind
              d.action = FaultAction::kCorrupt;
              d.corruption =
                  e.kinds[std::size_t(mix64(salt) % e.kinds.size())];
              d.corruption_salt = salt;
              break;
          }
          return true;
        });
  return d;
}

bool FaultInjector::watches_channel(const std::string& channel) const {
  std::lock_guard lock(mutex_);
  return match(events_, Counter::kPushAttempt, {.channel = channel}, 0,
               std::uint64_t(-1), [](const Event&) { return true; });
}

bool FaultInjector::link_blocked(int from, int to, std::uint64_t epoch) {
  std::lock_guard lock(mutex_);
  return match(events_, Counter::kEpoch,
               {.id = std::uint64_t(from), .peer = std::uint64_t(to)}, epoch,
               epoch + 1, [&](Event& e) { return fire(e); });
}

// --- query sites: TCP carrier ------------------------------------------------

bool FaultInjector::on_connect_attempt() {
  std::lock_guard lock(mutex_);
  const std::uint64_t attempt = ++connect_attempts_;
  return match(events_, Counter::kConnect, {}, attempt, attempt + 1,
               [&](Event& e) { return fire(e); });
}

void FaultInjector::note_connected() {
  std::lock_guard lock(mutex_);
  ++connections_;
  offset_ = 0;
}

FaultInjector::SendPlan FaultInjector::plan_send(std::size_t len) {
  std::lock_guard lock(mutex_);
  SendPlan plan;
  plan.len = len;
  if (connections_ == 0 || len == 0) return plan;
  const Target conn{.id = connections_ - 1};

  // A reset anywhere in [offset, offset + len) kills this send outright.
  plan.reset = match(events_, Counter::kStreamByte, conn, offset_,
                     offset_ + len, [&](Event& e) {
                       return e.kind == Fault::kReset && fire(e);
                     });
  if (plan.reset) return plan;
  // Stalls fire before the send that covers their offset; chunk caps
  // shorten it.
  match(events_, Counter::kStreamByte, conn, offset_, offset_ + len,
        [&](Event& e) {
          if (e.kind == Fault::kStall) {
            fire(e);
            plan.stall +=
                std::chrono::duration_cast<std::chrono::milliseconds>(e.delay);
          } else if (e.kind == Fault::kPartialSend) {
            plan.len = std::min(plan.len, e.offset);
          }
          return false;
        });
  if (plan.len < len) {
    injected_[std::size_t(Fault::kPartialSend)].fetch_add(
        1, std::memory_order_relaxed);
  }
  // Flips within the (possibly shortened) window.  Not fired here: the
  // kernel may accept fewer bytes than planned, in which case a flip past
  // the accepted prefix must re-arm for the retry — note_sent() is the
  // single point that commits them.
  match(events_, Counter::kStreamByte, conn, offset_, offset_ + plan.len,
        [&](const Event& e) {
          if (e.kind == Fault::kFlip) {
            plan.flips.emplace_back(std::size_t(e.lo - offset_), e.mask);
          }
          return false;
        });
  return plan;
}

void FaultInjector::note_sent(std::size_t n) {
  std::lock_guard lock(mutex_);
  if (connections_ == 0 || n == 0) return;
  match(events_, Counter::kStreamByte, {.id = connections_ - 1}, offset_,
        offset_ + n, [&](Event& e) {
          if (e.kind == Fault::kFlip) fire(e);
          return false;
        });
  offset_ += n;
}

// --- query sites: shared-memory carrier -------------------------------------

FaultInjector::CommitPlan FaultInjector::plan_commit(std::uint64_t seq,
                                                     std::size_t frame_bytes) {
  std::lock_guard lock(mutex_);
  CommitPlan plan;
  match(events_, Counter::kSeq, {}, seq, seq + 1, [&](Event& e) {
    if (e.kind == Fault::kFlip) {
      fire(e);
      std::size_t off = e.offset;
      if (frame_bytes > 0 && off >= frame_bytes) off = frame_bytes - 1;
      plan.flips.emplace_back(off, e.mask);
    } else if (e.kind == Fault::kDie) {
      plan.die = fire(e);
    }
    return false;
  });
  return plan;
}

std::chrono::milliseconds FaultInjector::plan_consume(std::uint64_t seq) {
  std::lock_guard lock(mutex_);
  std::chrono::milliseconds total{0};
  match(events_, Counter::kSeq, {}, seq, seq + 1, [&](Event& e) {
    if (e.kind == Fault::kStall) {
      fire(e);
      total += std::chrono::duration_cast<std::chrono::milliseconds>(e.delay);
    }
    return false;
  });
  return total;
}

// --- accounting --------------------------------------------------------------

std::uint64_t FaultInjector::scheduled(Fault kind) const {
  std::lock_guard lock(mutex_);
  return std::uint64_t(std::count_if(
      events_.begin(), events_.end(),
      [kind](const Event& e) { return e.kind == kind; }));
}

std::size_t FaultInjector::connections() const {
  std::lock_guard lock(mutex_);
  return connections_;
}

}  // namespace astro::stream
