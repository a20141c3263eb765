#pragma once

// Bounded multi-producer / multi-consumer channel.
//
// Connects operators: push blocks when the consumer lags (backpressure —
// how the engine "matches the processing capacity of each PCA engine"),
// pop blocks until data or close.  close() drains: consumers keep popping
// what remains, then receive false.
//
// Storage is a fixed-capacity ring of in-place slots (ISSUE 8): a push
// move-assigns into the tail slot, a pop move-assigns out of the head
// slot and leaves the slot's moved-from payload buffers behind for the
// next push to re-steal.  No node allocation ever happens after
// construction — unlike the former std::deque backing, whose block churn
// charged the data plane ~1 allocation every few tuples.  Ring invariants:
// `count_` live items start at `head_`; indices advance modulo capacity;
// a slot is written only by push and read only by pop, always under the
// mutex.
//
// Lock/notify discipline (audited): every mutator releases the mutex
// *before* notifying so a woken waiter never immediately blocks on the
// still-held lock.  push/pop notify after unlock; try_push/try_pop scope
// the lock and notify outside it; close() likewise notifies after its
// critical section.
//
// The channel also carries its own gauges (depth, high watermark, traffic
// and blocking counters, and since ISSUE 8 blocked-time histograms) so a
// metrics sampler can observe "the data channels traffic" (paper §III-D)
// without touching the queue lock: gauges are relaxed atomics updated
// while the mutex is held.
//
// Fault injection belongs to the graph edge: a queue consults its
// FaultEdge at the top of push (try_push once it has room), the fused
// split (stream/split.h) at the top of route(), so a seeded schedule
// fires on the same attempts on either kind of edge.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "stream/fault.h"
#include "stream/histogram.h"

namespace astro::stream {

/// Channel gauges, sampled lock-free by observers.  `pushed`/`popped` count
/// successful operations only, so `pushed - popped == depth` at all times.
/// `rejected` counts pushes the *queue* refused (closed, or full for
/// try_push); `faulted` counts pushes an injected fault swallowed — the two
/// are distinct so tuple-conservation checks stay exact under injection:
/// downstream receives `pushed`, the producer believes it sent
/// `pushed + faulted`, and `rejected` is the producer's own signal to stop
/// or reroute.  `corrupted` counts pushes that *landed* with injected
/// damage — they are included in `pushed`, so conservation is unchanged;
/// the counter lets tests pin down exactly how many bad tuples entered.
///
/// `push_blocked`/`pop_blocked` count waits; the matching `*_blocked_ns`
/// histograms record how long each wait lasted (wait-free to record and to
/// snapshot), so contention shows up as a distribution, not just a rate —
/// the observability that exposed the batching/state-lock interaction this
/// refactor fixed.
struct QueueGauges {
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> rejected{0};      ///< pushes refused (closed/full)
  std::atomic<std::uint64_t> faulted{0};       ///< pushes injected faults ate
  std::atomic<std::uint64_t> delayed{0};       ///< pushes injected faults held
  std::atomic<std::uint64_t> corrupted{0};     ///< pushes damaged in flight
  std::atomic<std::uint64_t> push_blocked{0};  ///< pushes that had to wait
  std::atomic<std::uint64_t> pop_blocked{0};   ///< pops that had to wait
  std::atomic<std::size_t> depth{0};
  std::atomic<std::size_t> high_watermark{0};
  std::size_t capacity = 0;
  LatencyHistogram push_blocked_ns;  ///< producer wait durations
  LatencyHistogram pop_blocked_ns;   ///< consumer wait durations
};

/// One graph edge's fault hook, its push-attempt numbering, and the
/// faulted/delayed/corrupted gauges it bumps in the edge's QueueGauges.
class FaultEdge {
 public:
  /// Decides the fate of one push attempt (1-based index).
  using Hook = std::function<FaultDecision(std::uint64_t attempt)>;

  explicit FaultEdge(QueueGauges& gauges) noexcept : gauges_(gauges) {}

  /// Install before any producer starts; a FaultInjector-backed hook makes
  /// the edge a lossy/slow simulated link.  Attempt indices are
  /// deterministic for single-producer edges.
  void set_hook(Hook hook) { hook_ = std::move(hook); }

  /// Applies the hook's decision for one push attempt to `item`: corrupt
  /// it in place, or hold the caller when `may_delay` (a non-blocking push
  /// cannot be held).  False = an injected drop swallowed the attempt; the
  /// producer still believes it sent the item, as on a lossy link.
  template <typename T>
  bool pass(T& item, bool may_delay) {
    if (!hook_) return true;
    const FaultDecision fault =
        hook_(attempts_.fetch_add(1, std::memory_order_relaxed) + 1);
    switch (fault.action) {
      case FaultAction::kDrop:
        gauges_.faulted.fetch_add(1, std::memory_order_relaxed);
        return false;
      case FaultAction::kDelay:
        if (may_delay) {
          gauges_.delayed.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(fault.delay);
        }
        break;
      case FaultAction::kCorrupt:
        apply_corruption(item, fault);
        gauges_.corrupted.fetch_add(1, std::memory_order_relaxed);
        break;
      case FaultAction::kNone:
        break;
    }
    return true;
  }

 private:
  QueueGauges& gauges_;
  Hook hook_;
  std::atomic<std::uint64_t> attempts_{0};
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {
    gauges_.capacity = capacity_;
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// This edge's fault hook (see FaultEdge::set_hook).
  void set_fault_hook(FaultEdge::Hook hook) {
    fault_.set_hook(std::move(hook));
  }

  /// Blocks while full.  Returns false (drops the tuple) once closed.
  /// An injected kDrop fault swallows the tuple but still returns true —
  /// the producer believes the send succeeded, as on a lossy link.
  bool push(T item) {
    if (!fault_.pass(item, /*may_delay=*/true)) return true;
    std::unique_lock lock(mutex_);
    if (count_ >= capacity_ && !closed_) {
      gauges_.push_blocked.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      not_full_.wait(lock, [&] { return count_ < capacity_ || closed_; });
      gauges_.push_blocked_ns.record(elapsed_ns(t0));
    }
    if (closed_) {
      gauges_.rejected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    put_locked(std::move(item));
    note_depth_locked();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push.  Returns false when full or closed; `item` is only
  /// consumed (moved from) on success, so callers can reroute on failure.
  /// Room is checked before the fault hook, so a refused push leaves
  /// `item` untouched and uses up no fault attempt: only a push that lands
  /// (or an injected drop) does.  Injected drops consume the item and
  /// return true (lossy-link semantics); injected delays are ignored — a
  /// non-blocking push cannot be held.
  bool try_push(T& item) {
    bool dropped = false;
    {
      std::lock_guard lock(mutex_);
      if (closed_ || count_ >= capacity_) {
        gauges_.rejected.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (fault_.pass(item, /*may_delay=*/false)) {
        put_locked(std::move(item));
        note_depth_locked();
      } else {
        dropped = true;
      }
    }
    if (dropped) {
      T swallowed = std::move(item);  // consumed, as a real send would be
      return true;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item or close+empty.  Returns false on exhausted close.
  bool pop(T& out) {
    std::unique_lock lock(mutex_);
    if (count_ == 0 && !closed_) {
      gauges_.pop_blocked.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      not_empty_.wait(lock, [&] { return count_ != 0 || closed_; });
      gauges_.pop_blocked_ns.record(elapsed_ns(t0));
    }
    if (count_ == 0) return false;
    out = take_locked();
    note_pop_locked();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Pop with a deadline.  Returns false on timeout or exhausted close.
  /// Samplers and drain loops use this so shutdown never hangs on a
  /// quiesced pipeline.
  template <typename Rep, typename Period>
  bool pop_for(T& out, std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (count_ == 0 && !closed_) {
      gauges_.pop_blocked.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      const bool ready = not_empty_.wait_for(
          lock, timeout, [&] { return count_ != 0 || closed_; });
      gauges_.pop_blocked_ns.record(elapsed_ns(t0));
      if (!ready) return false;
    }
    if (count_ == 0) return false;
    out = take_locked();
    note_pop_locked();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Drains up to `max` items into `out` (appended) in ONE lock round-trip
  /// — the engine's batched drain, so queue contention no longer scales
  /// with the batch size.  Blocks like pop_for only when the queue is
  /// empty; once any item is available it takes what is there (up to
  /// `max`) without waiting for more.  Returns the number of items
  /// appended; 0 on timeout or exhausted close.  Callers reserve `out` up
  /// front, so the appends never allocate.
  template <typename Rep, typename Period>
  std::size_t pop_batch(std::vector<T>& out, std::size_t max,
                        std::chrono::duration<Rep, Period> timeout) {
    if (max == 0) return 0;
    std::unique_lock lock(mutex_);
    if (count_ == 0 && !closed_) {
      gauges_.pop_blocked.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      const bool ready = not_empty_.wait_for(
          lock, timeout, [&] { return count_ != 0 || closed_; });
      gauges_.pop_blocked_ns.record(elapsed_ns(t0));
      if (!ready) return 0;
    }
    const std::size_t n = count_ < max ? count_ : max;
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) out.push_back(take_locked());
    gauges_.popped.fetch_add(n, std::memory_order_relaxed);
    gauges_.depth.store(count_, std::memory_order_relaxed);
    lock.unlock();
    // n slots freed at once; wake every blocked producer, not just one.
    if (n > 1) {
      not_full_.notify_all();
    } else {
      not_full_.notify_one();
    }
    return n;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      std::lock_guard lock(mutex_);
      if (count_ == 0) return out;
      out = take_locked();
      note_pop_locked();
    }
    not_full_.notify_one();
    return out;
  }

  /// No more pushes accepted; consumers drain the backlog then get false.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return count_;
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Live channel gauges; safe to read from any thread without the lock.
  [[nodiscard]] const QueueGauges& gauges() const noexcept { return gauges_; }

 private:
  static std::uint64_t elapsed_ns(
      std::chrono::steady_clock::time_point t0) noexcept {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
  }

  // Ring primitives; run with mutex_ held.  The popped slot keeps its
  // moved-from payload (e.g. a vector whose buffer was stolen), which the
  // next put_locked's move-assign destroys — empty, so destroying it frees
  // nothing and the ring stays allocation-silent at steady state.
  void put_locked(T&& item) {
    slots_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
  }

  T take_locked() {
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) % capacity_;
    --count_;
    return out;
  }

  // Both helpers run with mutex_ held, so the read-modify-write on the
  // high watermark cannot race another writer; readers load relaxed.
  void note_depth_locked() noexcept {
    const std::size_t d = count_;
    gauges_.pushed.fetch_add(1, std::memory_order_relaxed);
    gauges_.depth.store(d, std::memory_order_relaxed);
    if (d > gauges_.high_watermark.load(std::memory_order_relaxed)) {
      gauges_.high_watermark.store(d, std::memory_order_relaxed);
    }
  }
  void note_pop_locked() noexcept {
    gauges_.popped.fetch_add(1, std::memory_order_relaxed);
    gauges_.depth.store(count_, std::memory_order_relaxed);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> slots_;     // fixed ring storage; sized once, never resized
  std::size_t head_ = 0;     // index of the oldest live item
  std::size_t count_ = 0;    // live items
  bool closed_ = false;
  QueueGauges gauges_;
  FaultEdge fault_{gauges_};  // consulted before the lock is taken
};

}  // namespace astro::stream
