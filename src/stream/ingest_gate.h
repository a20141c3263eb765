#pragma once

// IngestGate — the data-plane gatekeeper (DESIGN.md "Data-plane
// robustness").
//
// The fused split calls admit() for every tuple before routing it, on the
// thread that produced the tuple — the source, or the transport downlink
// (operator fusion: no thread hop, no queue).  Accepted tuples go on,
// possibly repaired in place; rejects are recorded in the dead-letter
// recorder with their typed reason, on the same thread.  accepted +
// quarantined == tuples_in, always.  The accept path is allocation-free,
// and recording a reject never waits on a consumer and never drops one.

#include <array>
#include <atomic>
#include <cstdint>

#include "spectra/validate.h"
#include "stream/dead_letter.h"
#include "stream/metrics.h"
#include "stream/recorder.h"
#include "stream/tuple_arena.h"

namespace astro::stream {

class IngestGate {
 public:
  static constexpr std::size_t kReasonCount =
      std::size_t(spectra::RejectReason::kCount);

  /// `dead_letters` (non-owning) may be null: rejects are then counted and
  /// discarded.  The recorder keeps a *copy* of each reject (the rare path
  /// may allocate while its ring fills); with an `arena` (may be null) the
  /// reject's leased slab then returns to the pool.
  IngestGate(Recorder<DeadLetter>* dead_letters,
             spectra::ValidationPolicy policy, TupleArena* arena = nullptr);

  /// Validates `t` in place.  True: accepted (possibly repaired), route it.
  /// False: quarantined, and `t` is consumed.  One calling thread only.
  bool admit(DataTuple& t);

  /// Starts the gate's active window, on the admitting thread.
  void open() noexcept { metrics_.mark_start(); }
  /// Ends the window, after the last admit().
  void close() noexcept { metrics_.mark_stop(); }

  // --- live counters (any thread) ----------------------------------------
  [[nodiscard]] std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quarantined() const noexcept {
    return quarantined_.load(std::memory_order_relaxed);
  }
  /// Accepted tuples that needed repair (interpolation or NaN-masking).
  [[nodiscard]] std::uint64_t repaired() const noexcept {
    return repaired_.load(std::memory_order_relaxed);
  }
  /// Masked pixels filled by interpolation, summed over accepted tuples.
  [[nodiscard]] std::uint64_t repaired_pixels() const noexcept {
    return repaired_pixels_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quarantined_for(
      spectra::RejectReason r) const noexcept {
    return by_reason_[std::size_t(r)].load(std::memory_order_relaxed);
  }
  /// tuples_in = checked, tuples_out = accepted, proc = validation time.
  [[nodiscard]] const OperatorMetrics& metrics() const noexcept {
    return metrics_;
  }

 private:
  void quarantine(DataTuple& t, spectra::RejectReason reason);

  Recorder<DeadLetter>* dead_letters_;  // non-owning; null = discard
  spectra::ValidationPolicy policy_;
  TupleArena* arena_;  // non-owning; null = heap payloads
  OperatorMetrics metrics_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> repaired_{0};
  std::atomic<std::uint64_t> repaired_pixels_{0};
  std::array<std::atomic<std::uint64_t>, kReasonCount> by_reason_{};
};

}  // namespace astro::stream
