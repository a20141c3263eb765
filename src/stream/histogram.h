#pragma once

// Fixed-bucket log-scaled latency histogram — the measurement substrate for
// the paper's §III-D profiling ("the profiling tool measures the performance
// of each component and the data channels traffic").
//
// Design constraints (hot-path instrumentation):
//   * record() is allocation-free and lock-free: one relaxed fetch_add into
//     a power-of-two bucket plus relaxed sum/min/max updates.
//   * Buckets are log2-spaced: bucket b (b >= 1) covers [2^(b-1), 2^b - 1]
//     nanoseconds, bucket 0 holds exact zeros.  65 buckets span the full
//     uint64 range, so no value is ever clipped.
//   * Percentiles are computed from a snapshot, interpolating linearly
//     inside the winning bucket and clamped into the observed [min, max]
//     (a bucket spans a factor of two, so unclamped interpolation in a
//     sparse top bucket can overshoot the largest sample by up to 2x).
//     Deterministic given the counts and extremes, so the merge of two
//     histograms reports exactly the percentiles of the concatenated
//     sample streams (a property the tests rely on).

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace astro::stream {

/// Plain-data copy of a histogram at one instant; mergeable and cheap to
/// pass around (sampler history, JSON export).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< smallest sample (0 while empty)
  std::uint64_t max = 0;

  /// Inclusive lower bound of bucket b.
  [[nodiscard]] static constexpr std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
  }
  /// Inclusive upper bound of bucket b.
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t b) noexcept {
    if (b == 0) return 0;
    if (b == kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  [[nodiscard]] double mean() const noexcept {
    return total == 0 ? 0.0 : double(sum) / double(total);
  }

  /// q-quantile (q in [0,1]) by rank over the bucket counts, linearly
  /// interpolated inside the bucket and clamped into [min, max].  Monotone
  /// in q by construction.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // 1-based target rank of the q-quantile sample.
    const double target = q * double(total - 1) + 1.0;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts[b];
      if (c == 0) continue;
      if (double(cum + c) >= target) {
        const double lo = double(bucket_lo(b));
        const double hi = double(bucket_hi(b));
        const double pos = (target - double(cum)) / double(c);  // (0,1]
        return std::clamp(lo + pos * (hi - lo), double(min), double(max));
      }
      cum += c;
    }
    return double(max);
  }

  [[nodiscard]] double p50() const noexcept { return percentile(0.50); }
  [[nodiscard]] double p95() const noexcept { return percentile(0.95); }
  [[nodiscard]] double p99() const noexcept { return percentile(0.99); }

  /// Pools another snapshot in; counts add, so percentiles afterwards equal
  /// those of the concatenated underlying samples.
  void merge(const HistogramSnapshot& other) noexcept {
    if (other.total == 0) return;
    min = total == 0 ? other.min : std::min(min, other.min);
    max = std::max(max, other.max);
    for (std::size_t b = 0; b < kBuckets; ++b) counts[b] += other.counts[b];
    total += other.total;
    sum += other.sum;
  }
};

/// The live, thread-safe accumulator.  Writers call record() concurrently;
/// readers take snapshot()s (relaxed loads — counts may lag a few records
/// behind, which is fine for monitoring).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  /// Bucket index of a value: bit_width, i.e. 0 for 0, b for [2^(b-1), 2^b).
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    return std::size_t(std::bit_width(v));
  }

  void record(std::uint64_t value) noexcept {
    counts_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
    cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
    return n;
  }

  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      s.counts[b] = counts_[b].load(std::memory_order_relaxed);
      s.total += s.counts[b];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    if (s.total == 0) return s;
    // Relaxed loads may see a count whose min/max update has not landed
    // yet; an extreme that misses the occupied buckets falls back to the
    // bucket's edge, so [min, max] always spans the counted samples.
    std::size_t first = 0, last = kBuckets - 1;
    while (s.counts[first] == 0) ++first;
    while (s.counts[last] == 0) --last;
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    if (s.min > HistogramSnapshot::bucket_hi(first)) {
      s.min = HistogramSnapshot::bucket_lo(first);
    }
    if (s.max < HistogramSnapshot::bucket_lo(last)) {
      s.max = HistogramSnapshot::bucket_hi(last);
    }
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace astro::stream
