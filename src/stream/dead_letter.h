#pragma once

// Dead-letter queue for quarantined tuples (DESIGN.md "Data-plane
// robustness").
//
// A tuple the IngestGate rejects is not dropped on the floor: it is
// wrapped with its typed RejectReason and forwarded to a bounded
// dead-letter channel, whose sink keeps per-reason counts and retains the
// most recent rejects for forensics.  The conservation invariant the e2e
// tests assert follows directly:
//
//     accepted + quarantined == ingested        (IngestGate counters)
//     dead_letters == quarantined - dlq_overflow (sink vs gate)
//
// The sink's retention buffer is bounded (`max_retained`): a pathological
// stream cannot grow memory without limit, and older rejects are evicted
// oldest-first once the cap is hit (total counts keep counting).

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "spectra/validate.h"
#include "stream/operator.h"

namespace astro::stream {

/// One quarantined observation plus why it was quarantined.
struct DeadLetter {
  DataTuple tuple;
  spectra::RejectReason reason = spectra::RejectReason::kNone;
};

/// Terminal operator for the dead-letter channel: counts rejects by reason
/// and retains the newest `max_retained` of them for inspection.
class DeadLetterSink final : public Operator {
 public:
  static constexpr std::size_t kReasonCount =
      std::size_t(spectra::RejectReason::kCount);

  DeadLetterSink(std::string name, ChannelPtr<DeadLetter> in,
                 std::size_t max_retained = 64)
      : Operator(std::move(name)), in_(std::move(in)),
        max_retained_(max_retained) {
    for (auto& c : by_reason_) c.store(0, std::memory_order_relaxed);
  }

  /// Total dead letters received (live, any thread).
  [[nodiscard]] std::uint64_t count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count(spectra::RejectReason r) const noexcept {
    return by_reason_[std::size_t(r)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::array<std::uint64_t, kReasonCount> counts()
      const noexcept {
    std::array<std::uint64_t, kReasonCount> out{};
    for (std::size_t i = 0; i < kReasonCount; ++i) {
      out[i] = by_reason_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// The retained (newest) dead letters, oldest first.
  [[nodiscard]] std::vector<DeadLetter> retained() const {
    std::lock_guard lock(mutex_);
    return {retained_.begin(), retained_.end()};
  }

 protected:
  void run() override {
    DeadLetter item;
    std::uint64_t t_prev = OperatorMetrics::now_ns();
    while (!stop_requested() && in_->pop(item)) {
      const std::uint64_t t_popped = OperatorMetrics::now_ns();
      metrics_.record_pop_wait_ns(t_popped - t_prev);
      metrics_.record_in(item.tuple.wire_bytes());
      total_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t r = std::size_t(item.reason);
      if (r < kReasonCount) {
        by_reason_[r].fetch_add(1, std::memory_order_relaxed);
      }
      if (max_retained_ > 0) {
        std::lock_guard lock(mutex_);
        if (retained_.size() >= max_retained_) retained_.pop_front();
        retained_.push_back(std::move(item));
      }
      t_prev = OperatorMetrics::now_ns();
      metrics_.record_proc_ns(t_prev - t_popped);
    }
    set_stop_reason(stop_requested() ? StopReason::kRequested
                                     : StopReason::kUpstreamClosed);
  }

 private:
  ChannelPtr<DeadLetter> in_;
  const std::size_t max_retained_;
  std::atomic<std::uint64_t> total_{0};
  std::array<std::atomic<std::uint64_t>, kReasonCount> by_reason_{};
  mutable std::mutex mutex_;
  std::deque<DeadLetter> retained_;
};

}  // namespace astro::stream
