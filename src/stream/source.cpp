#include "stream/source.h"

#include <chrono>

namespace astro::stream {

namespace {
std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void GeneratorSource::run() {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  std::uint64_t seq = 0;

  while (!stop_requested()) {
    const std::uint64_t t_gen = OperatorMetrics::now_ns();
    std::optional<SourceItem> next = gen_();
    if (!next.has_value()) {
      set_stop_reason(StopReason::kUpstreamClosed);
      break;
    }
    metrics_.record_proc_ns(OperatorMetrics::now_ns() - t_gen);
    if (max_rate_ > 0.0) {
      // Pace emission so seq/elapsed never exceeds max_rate.
      const auto due =
          started + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(seq) / max_rate_));
      if (wait_until_stopped(due)) break;
    }
    DataTuple t;
    t.seq = seq++;
    t.timestamp_us = now_us();
    if (arena_) {
      // Leased payload: the generated item is *copied* into pooled buffers
      // (capacity-reusing assignments — no allocation at steady state).
      // Moving the generator's buffers in instead would feed one fresh heap
      // payload per tuple into the recycle loop and grow the pool without
      // bound.
      arena_->acquire(t);
      t.values = next->values;
      t.mask = next->mask;
    } else {
      t.values = std::move(next->values);
      t.mask = std::move(next->mask);
    }
    const std::size_t bytes = t.wire_bytes();
    const std::uint64_t t_push = OperatorMetrics::now_ns();
    if (!out_->push(std::move(t))) {
      set_stop_reason(StopReason::kUpstreamClosed);
      break;
    }
    metrics_.record_push_wait_ns(OperatorMetrics::now_ns() - t_push);
    metrics_.record_out(bytes);
  }
  if (stop_requested()) set_stop_reason(StopReason::kRequested);
  out_->close();
}

void ReplaySource::run() {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  for (std::size_t i = 0; i < data_.size() && !stop_requested(); ++i) {
    if (max_rate_ > 0.0) {
      const auto due =
          started + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(i) / max_rate_));
      if (wait_until_stopped(due)) break;
    }
    const std::uint64_t t_build = OperatorMetrics::now_ns();
    DataTuple t;
    t.seq = i;
    t.timestamp_us = now_us();
    // With an arena the copies below land in leased buffers (capacity
    // reused); without one they allocate per tuple, as before.
    if (arena_) arena_->acquire(t);
    t.values = data_[i];
    if (i < masks_.size()) t.mask = masks_[i];
    const std::size_t bytes = t.wire_bytes();
    const std::uint64_t t_push = OperatorMetrics::now_ns();
    metrics_.record_proc_ns(t_push - t_build);
    if (!out_->push(std::move(t))) break;
    metrics_.record_push_wait_ns(OperatorMetrics::now_ns() - t_push);
    metrics_.record_out(bytes);
  }
  if (stop_requested()) set_stop_reason(StopReason::kRequested);
  out_->close();
}

}  // namespace astro::stream
