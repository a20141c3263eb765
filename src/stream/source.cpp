#include "stream/source.h"

#include <chrono>

namespace astro::stream {

void Source::run() {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  out_.open();
  for (std::uint64_t seq = 0; !stop_requested(); ++seq) {
    if (max_rate_ > 0.0) {
      // Pace emission so seq/elapsed never exceeds max_rate.
      const auto due =
          started + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(seq) / max_rate_));
      if (wait_until_stopped(due)) break;
    }
    const std::uint64_t t_build = OperatorMetrics::now_ns();
    DataTuple t;
    t.seq = seq;
    // The ingest timestamp, on steady_clock: engines measure ingest ->
    // apply latency against the same clock.
    t.timestamp_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now().time_since_epoch())
                         .count();
    if (arena_) arena_->acquire(t);
    if (!next(seq, t)) {
      if (arena_) arena_->release(t);
      set_stop_reason(StopReason::kUpstreamClosed);
      break;
    }
    const std::size_t bytes = t.wire_bytes();
    const std::uint64_t t_push = OperatorMetrics::now_ns();
    metrics_.record_proc_ns(t_push - t_build);
    if (!out_.push(std::move(t))) {
      set_stop_reason(StopReason::kUpstreamClosed);
      break;
    }
    metrics_.record_push_wait_ns(OperatorMetrics::now_ns() - t_push);
    metrics_.record_out(bytes);
  }
  if (stop_requested()) set_stop_reason(StopReason::kRequested);
  out_.close();
}

bool GeneratorSource::next(std::uint64_t, DataTuple& t) {
  std::optional<SourceItem> item = gen_();
  if (!item.has_value()) return false;
  if (arena_) {
    // Leased payload: the generated item is *copied* into pooled buffers
    // (capacity-reusing assignments — no allocation at steady state).
    // Moving the generator's buffers in instead would feed one fresh heap
    // payload per tuple into the recycle loop and grow the pool without
    // bound.
    t.values = item->values;
    t.mask = item->mask;
  } else {
    t.values = std::move(item->values);
    t.mask = std::move(item->mask);
  }
  return true;
}

bool ReplaySource::next(std::uint64_t seq, DataTuple& t) {
  if (seq >= data_.size()) return false;
  // With an arena the copies land in leased buffers (capacity reused);
  // without one they allocate per tuple.
  t.values = data_[seq];
  if (seq < masks_.size()) t.mask = masks_[seq];
  return true;
}

}  // namespace astro::stream
