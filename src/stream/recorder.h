#pragma once

// Recorder — the thread-free end of a side stream (DESIGN.md "Recorders").
//
// The dead-letter log, the outlier log and the snapshot feed only append,
// so their producers call record() on their own threads (operator fusion)
// instead of feeding a sink thread through a queue.  A recorder keeps a
// total count (plus per-reason counts for items with a typed `reason`),
// the newest `capacity` items, and its own OperatorMetrics (tuples_in =
// items recorded) for the registry row.  The ring grows lazily to
// capacity, then copy-assigns into its oldest slot: same-shape payloads
// reuse that slot's buffers, so a full ring allocates nothing.  record()
// never drops an item and never waits on a consumer.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "stream/metrics.h"

namespace astro::stream {

template <typename T>
class Recorder {
 public:
  /// Reason buckets: T::reason's kCount, or 0 for items without one.
  static constexpr std::size_t kReasons = [] {
    if constexpr (requires(const T& t) { t.reason; }) {
      return std::size_t(decltype(T::reason)::kCount);
    } else {
      return std::size_t(0);
    }
  }();

  /// Retains the newest `capacity` items (0 = count only).
  explicit Recorder(std::size_t capacity) : capacity_(capacity) {}

  /// Counts `item` and copies it into the ring; `bytes` feeds the row's
  /// bytes_in.  Any number of producer threads.
  void record(const T& item, std::size_t bytes = 0) {
    metrics_.record_in(bytes);
    total_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (kReasons > 0) {
      const std::size_t r = std::size_t(item.reason);
      if (r < kReasons) by_reason_[r].fetch_add(1, std::memory_order_relaxed);
    }
    if (capacity_ == 0) return;
    std::lock_guard lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(item);
    } else {
      ring_[oldest_] = item;
      oldest_ = (oldest_ + 1) % capacity_;
    }
  }

  /// Items recorded so far (live, any thread).
  [[nodiscard]] std::uint64_t count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  /// Items recorded with reason `r`.
  template <typename Reason>
  [[nodiscard]] std::uint64_t count(Reason r) const noexcept {
    static_assert(kReasons > 0, "items carry no reason");
    return by_reason_[std::size_t(r)].load(std::memory_order_relaxed);
  }

  /// The retained (newest) items, oldest first.
  [[nodiscard]] std::vector<T> retained() const {
    std::lock_guard lock(mutex_);
    std::vector<T> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(oldest_ + i) % ring_.size()]);
    }
    return out;
  }

  [[nodiscard]] const OperatorMetrics& metrics() const noexcept {
    return metrics_;
  }

 private:
  const std::size_t capacity_;
  OperatorMetrics metrics_;
  std::atomic<std::uint64_t> total_{0};
  std::array<std::atomic<std::uint64_t>, kReasons> by_reason_{};
  mutable std::mutex mutex_;
  std::vector<T> ring_;     // grows to capacity_, then wraps
  std::size_t oldest_ = 0;  // next slot to overwrite once full
};

}  // namespace astro::stream
