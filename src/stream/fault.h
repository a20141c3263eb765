#pragma once

// Deterministic fault injection for every link of the stream (ROADMAP:
// survive an engine crash mid-stream without discarding the accumulated
// eigensystem; DESIGN.md "Transport" for the carriers).
//
// A FaultInjector carries one *schedule* of fault events whose triggers are
// virtual counters — an engine's applied-tuple count, a channel's
// push-attempt index, a sync epoch, a connect-attempt index, a byte offset
// in a TCP connection's outgoing stream, a shm transport seq — never
// wall-clock time.  Given the same seed and schedule, the same faults fire
// at the same logical points on every run, so each failure scenario is a
// reproducible ctest case.  One injector may drive the engines, the
// channels and a carrier in the same run.
//
// Stream engine and channels:
//   kill         — an engine operator "crashes" when its applied-tuple
//                  count reaches the trigger (or when it is about to apply
//                  its N-th sync merge): the operator throws InjectedCrash,
//                  its thread exits and its in-memory state is wiped,
//                  exactly as a process death would.  Recovery is the
//                  Supervisor's job (checkpoint restore + replay, see
//                  sync/supervisor.h).
//   drop         — a channel push is swallowed: the producer sees success
//                  (as a lossy link would report) but the tuple never
//                  lands.  Counted in QueueGauges::faulted, *not* in
//                  `rejected`, so tuple-conservation checks stay exact.
//   delay        — a channel push is held for a fixed duration before
//                  enqueueing (a slow link; blocking pushes only).
//   corrupt      — a channel push *lands*, but the tuple is damaged first
//                  (NaN/Inf pixel, truncated vector, garbled values): the
//                  bad-fiber/cosmic-ray defects of real survey streams.
//                  Counted in QueueGauges::corrupted; downstream
//                  validation is expected to quarantine exactly these.
//   partition    — the simulated link between two engines is cut for a
//                  window of sync epochs: the sender's control-port
//                  forward is dropped and counted in
//                  EngineStats::partition_drops.
//
// TCP carrier (the TcpTupleSink threads every connect() and send() through
// the schedule; offsets restart at 0 on every successful connect, and
// connections are numbered 0, 1, ... in the order they are established):
//   fail_connect — connect attempts in a 1-based index window fail (as
//                  ECONNREFUSED would), exercising retry/backoff.
//   reset_at     — the send that would cover a byte offset fails instead
//                  (as ECONNRESET would); the sink must reconnect and
//                  resume the session.
//   flip_at      — the byte at a stream offset is XOR-damaged in flight
//                  (the receiver's CRC must catch it).
//   stall_at     — the send covering a byte offset is held first (the
//                  sink's write deadline must bound it).
//   chunk_writes — every send on a connection is capped to a maximum
//                  chunk (forced partial writes).
//
// Shared-memory carrier (triggers are transport seqs):
//   corrupt_slot   — XOR-damage a byte of the frame staged for a seq, after
//                    encode and before commit (the consumer's CRC must
//                    catch it and record the husk as a dead letter).
//   corrupt_random — `count` corrupt_slot events drawn from the seed.
//   die_at_commit  — the producer writes the slot but "crashes" before the
//                    committing head store; the consumer's peer-death
//                    detection must fire.
//   stall_consume  — the consumer sleeps before consuming a seq.
//
// Thread-safety: the schedule is built before streaming starts; query
// sites lock one private mutex (they are off the per-tuple fast path
// except on channels and carriers that actually carry fault events), and
// injected() is lock-free readable from any thread.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace astro::stream {

enum class FaultAction { kNone, kDrop, kDelay, kCorrupt };

/// How a kCorrupt decision damages the tuple.
enum class CorruptionKind : int {
  kNaN = 0,   ///< one pixel set to quiet NaN
  kInf,       ///< one pixel set to ±Inf
  kTruncate,  ///< the vector is shortened (schema/length defect)
  kGarble,    ///< several pixels overwritten with huge garbage values
};

/// What a channel should do with one push attempt.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  std::chrono::microseconds delay{0};
  CorruptionKind corruption = CorruptionKind::kNaN;
  /// Seeded salt deciding *where* inside the tuple the damage lands; a
  /// pure function of (seed, channel, attempt), so replays are exact.
  std::uint64_t corruption_salt = 0;
};

struct DataTuple;

/// Damages a DataTuple according to a kCorrupt decision (fault.cpp).  The
/// generic overload is a no-op so typed channels that cannot meaningfully
/// corrupt their payload (control tuples, snapshots) ignore the event.
void apply_corruption(DataTuple& tuple, const FaultDecision& decision);
template <typename T>
void apply_corruption(T&, const FaultDecision&) {}

/// Thrown at an engine kill site; the supervised operator catches it at the
/// top of its run loop, wipes its in-memory state and marks itself crashed.
struct InjectedCrash {};

/// Every fault kind a schedule can fire; FaultInjector::injected(kind)
/// counts the firings of each.
enum class Fault : std::size_t {
  kKill,         ///< engine crash (data path or merge)
  kDrop,         ///< channel push swallowed
  kDelay,        ///< channel push held
  kCorrupt,      ///< channel tuple damaged
  kPartition,    ///< control-link forward blocked (one per blocked query)
  kConnectFail,  ///< TCP connect attempt refused
  kReset,        ///< TCP send failed, connection dead
  kFlip,         ///< carrier byte XOR-damaged (TCP stream or shm slot)
  kStall,        ///< carrier held (TCP send or shm consume)
  kPartialSend,  ///< TCP send shortened by a chunk cap
  kDie,          ///< shm producer death at commit
  kCount
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 1) : seed_(seed) {}

  /// TCP event target meaning "every connection" (chunk_writes).
  static constexpr std::size_t kEveryConnection = std::size_t(-1);

  // --- schedule builders: engines and channels -----------------------------

  /// Crash `engine` when it has applied `after_tuples` data tuples (the
  /// kill fires as it is about to apply the next one, which is then lost
  /// in flight and must be replayed on recovery).
  void kill_engine(int engine, std::uint64_t after_tuples);

  /// Crash `engine` as it is about to apply its (`after_merges` + 1)-th
  /// sync merge — the kill-during-merge scenario.
  void kill_engine_on_merge(int engine, std::uint64_t after_merges);

  /// Drop `count` pushes on `channel` starting at 1-based attempt index
  /// `first_push`.
  void drop_on_channel(std::string channel, std::uint64_t first_push,
                       std::uint64_t count);

  /// Drop each push on `channel` with probability `probability`, at most
  /// `max_drops` times.  The per-attempt decision is a stateless hash of
  /// (seed, channel, attempt), so it is reproducible across runs.
  void drop_randomly(std::string channel, double probability,
                     std::uint64_t max_drops);

  /// Hold `count` blocking pushes on `channel` for `delay` each, starting
  /// at attempt `first_push`.
  void delay_on_channel(std::string channel, std::uint64_t first_push,
                        std::uint64_t count, std::chrono::microseconds delay);

  /// Cut the control link a->b (both directions when `bidirectional`) for
  /// sync epochs in [from_epoch, until_epoch).
  void partition_link(int a, int b, std::uint64_t from_epoch,
                      std::uint64_t until_epoch, bool bidirectional = true);

  /// Corrupt `count` pushes on `channel` starting at 1-based attempt index
  /// `first_push` with defects of `kind`.
  void corrupt_on_channel(std::string channel, std::uint64_t first_push,
                          std::uint64_t count, CorruptionKind kind);

  /// Corrupt each push on `channel` with probability `probability`, at
  /// most `max_corruptions` times, cycling through `kinds` (empty = all
  /// four kinds).  Stateless hash of (seed, channel, attempt): exact
  /// replay across runs, like drop_randomly.
  void corrupt_randomly(std::string channel, double probability,
                        std::uint64_t max_corruptions,
                        std::vector<CorruptionKind> kinds = {});

  // --- schedule builders: TCP carrier ---------------------------------------

  /// Fail `count` connect attempts starting at 1-based attempt `first`.
  /// Each call adds its own window.
  void fail_connect(std::uint64_t first, std::uint64_t count);

  /// Kill the send that would cover `byte_offset` of `connection`'s
  /// outgoing stream (fires once).
  void reset_at(std::size_t connection, std::uint64_t byte_offset);

  /// XOR the byte at `byte_offset` of `connection`'s outgoing stream with
  /// `mask` (mask 0 is promoted to 0x01 so a flip always flips).
  void flip_at(std::size_t connection, std::uint64_t byte_offset,
               std::uint8_t mask = 0x01);

  /// Hold the send covering `byte_offset` of `connection` for `delay`
  /// before transmitting (fires once).
  void stall_at(std::size_t connection, std::uint64_t byte_offset,
                std::chrono::milliseconds delay);

  /// Cap every send on `connection` (or kEveryConnection) to at most
  /// `max_chunk` bytes.
  void chunk_writes(std::size_t connection, std::size_t max_chunk);

  // --- schedule builders: shared-memory carrier -----------------------------

  /// XOR the frame byte at `offset` of the frame carrying transport `seq`
  /// with `mask` (mask 0 is promoted to 0x01 so a flip always flips).
  /// Offsets past the frame end are clamped to the last byte.
  void corrupt_slot(std::uint64_t seq, std::size_t offset,
                    std::uint8_t mask = 0x01);

  /// Seeded schedule: `count` corruptions at splitmix64-derived seqs in
  /// [1, max_seq] and offsets in [min_offset, max_offset].
  void corrupt_random(std::uint64_t count, std::uint64_t max_seq,
                      std::size_t min_offset, std::size_t max_offset);

  /// Producer death mid-commit: the slot for `seq` is written but head is
  /// never advanced (fires once).
  void die_at_commit(std::uint64_t seq);

  /// Hold the consumer for `delay` before it consumes `seq` (fires once).
  void stall_consume(std::uint64_t seq, std::chrono::milliseconds delay);

  // --- query sites: engines and channels ------------------------------------

  /// Engine data path: true exactly once per matching kill event, when
  /// `applied_tuples` has reached the trigger.
  [[nodiscard]] bool should_kill(int engine, std::uint64_t applied_tuples);

  /// Engine merge path: true exactly once per matching merge-kill event.
  [[nodiscard]] bool should_kill_on_merge(int engine,
                                          std::uint64_t merges_applied);

  /// Smallest unfired data-path kill trigger for `engine`, if any.  A
  /// non-mutating probe for the micro-batched engine loop: a batch is split
  /// so the per-tuple should_kill() check lands on exactly the applied
  /// count the schedule names, keeping kill placement — and therefore every
  /// recovery scenario — identical to the unbatched engine.
  [[nodiscard]] std::optional<std::uint64_t> next_kill_at(int engine) const;

  /// Channel push site (`attempt` is 1-based per channel).
  [[nodiscard]] FaultDecision on_push(const std::string& channel,
                                      std::uint64_t attempt);

  /// True when any channel event targets `channel` — lets a pipeline
  /// install push hooks only where they can fire.
  [[nodiscard]] bool watches_channel(const std::string& channel) const;

  /// Control-plane link state at `epoch`; counts a block when true.
  [[nodiscard]] bool link_blocked(int from, int to, std::uint64_t epoch);

  // --- query sites: TCP carrier (the sink's socket layer) -------------------

  /// Claims the next 1-based connect-attempt index; true = this attempt
  /// must fail.
  [[nodiscard]] bool on_connect_attempt();

  /// A successful connect: subsequent sends belong to the next connection
  /// index and the stream offset restarts at 0.
  void note_connected();

  /// What one send of `len` bytes at the connection's current stream
  /// offset must do.  `flips` are offsets *relative to the buffer* paired
  /// with XOR masks, already restricted to the first `len` bytes; they are
  /// counted as injected when note_sent() advances past them.
  struct SendPlan {
    bool reset = false;                    ///< fail the send, connection dead
    std::chrono::milliseconds stall{0};    ///< sleep before sending
    std::size_t len = 0;                   ///< bytes to hand to ::send
    std::vector<std::pair<std::size_t, std::uint8_t>> flips;
  };
  [[nodiscard]] SendPlan plan_send(std::size_t len);

  /// Advance the connection's stream offset by the bytes the kernel
  /// actually accepted; fires (counts) the flip events inside the window.
  void note_sent(std::size_t n);

  // --- query sites: shared-memory carrier -----------------------------------

  /// What the commit of `seq` (a frame of `frame_bytes`) must do.  Flip
  /// offsets are clamped to the frame and counted as injected here.
  struct CommitPlan {
    bool die = false;
    std::vector<std::pair<std::size_t, std::uint8_t>> flips;
  };
  [[nodiscard]] CommitPlan plan_commit(std::uint64_t seq,
                                       std::size_t frame_bytes);

  /// Delay to apply before consuming `seq` (0 = none); counted here.
  [[nodiscard]] std::chrono::milliseconds plan_consume(std::uint64_t seq);

  // --- accounting -----------------------------------------------------------

  /// Firings of `kind` so far (readable live from any thread).
  [[nodiscard]] std::uint64_t injected(Fault kind) const noexcept {
    return injected_[std::size_t(kind)].load(std::memory_order_relaxed);
  }

  /// Events of `kind` in the schedule, fired or not.
  [[nodiscard]] std::uint64_t scheduled(Fault kind) const;

  /// TCP connections established so far.
  [[nodiscard]] std::size_t connections() const;

 private:
  /// The virtual counter an event's trigger window is over.
  enum class Counter {
    kPushAttempt,  ///< 1-based per channel
    kApplied,      ///< an engine's applied data tuples
    kMerges,       ///< an engine's applied sync merges
    kEpoch,        ///< sync epoch on a control link
    kConnect,      ///< 1-based TCP connect attempt
    kStreamByte,   ///< byte offset in a TCP connection's outgoing stream
    kSeq,          ///< shm transport seq
  };

  /// What a query site asks about: a channel name, an engine id, a link
  /// (id -> peer), a TCP connection (id), or nothing (shm seqs).
  struct Target {
    std::string_view channel{};
    std::uint64_t id = 0;
    std::uint64_t peer = 0;
  };

  /// One scheduled fault.  It fires when a query on its counter and target
  /// meets the half-open window [lo, hi): once, or on every hit; a
  /// probability > 0 adds a seeded coin per hit, spent from `budget`.
  struct Event {
    Fault kind;
    Counter counter;
    std::string channel{};  // target (see Target)
    std::uint64_t id = 0;
    std::uint64_t peer = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t(-1);
    bool once = false;
    bool fired = false;
    double probability = 0.0;
    std::uint64_t budget = 0;
    // Payload.
    std::chrono::microseconds delay{0};   // delay, stalls
    std::uint8_t mask = 0;                // flips
    std::size_t offset = 0;               // shm flip offset, chunk cap
    std::vector<CorruptionKind> kinds{};  // corrupt: cycled by salt
  };

  /// Calls `hit` on each armed event of `counter` on `target` whose window
  /// meets [lo, hi), in schedule order, until `hit` returns true; returns
  /// whether one did.  Caller holds mutex_.
  template <typename Events, typename Hit>
  static bool match(Events& events, Counter counter, const Target& target,
                    std::uint64_t lo, std::uint64_t hi, Hit&& hit);

  void add(Event event);
  /// Marks `event` fired and counts it; returns true.
  bool fire(Event& event);

  mutable std::mutex mutex_;
  std::uint64_t seed_;
  std::vector<Event> events_;
  // TCP stream position: the connection index is connections_ - 1.
  std::uint64_t connect_attempts_ = 0;
  std::size_t connections_ = 0;
  std::uint64_t offset_ = 0;
  std::array<std::atomic<std::uint64_t>, std::size_t(Fault::kCount)>
      injected_{};
};

}  // namespace astro::stream
