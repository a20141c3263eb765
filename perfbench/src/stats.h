#pragma once

// The benchmark's own metric arithmetic: percentiles, count-based ingest
// lag and version-based staleness.  Header-only and free of the system's
// headers so tests/stats_test.cpp pins it on hand-built inputs.
//
// Percentiles here are nearest-rank over the raw samples, so a reported
// value is always one that was observed — never above the max or below the
// min (stream::HistogramSnapshot::percentile interpolates inside log2
// buckets and can exceed its recorded max).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-quantile of n >= 1 samples: ceil(q * n)
/// clamped to [1, n].  The epsilon keeps q * n that rounds just above an
/// integer (0.9999 * 100000) on that integer.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(std::clamp(q, 0.0, 1.0) * double(n) - 1e-9);
  return std::clamp<std::size_t>(r > 0.0 ? std::size_t(r) : 0, 1, n);
}

/// Nearest-rank q-quantile of ascending `sorted`.  Empty input gives 0.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

inline double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and highest floor(n / 4).  Robust to a stalled repetition like
/// the median, but averages a mix of regimes instead of jumping between
/// them.  Empty input gives 0.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / double(values.size() - 2 * cut);
}

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least
/// `min_beyond` samples beyond it; nullopt when even the median does not.
inline std::optional<double> highest_supported_quantile(
    std::size_t n, std::size_t min_beyond = 10) {
  std::optional<double> best;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

/// A count observed over time: (t, count) samples with t ascending and
/// count non-decreasing — the benchmark's poll of applied + quarantined.
struct CountSample {
  double t = 0.0;
  std::uint64_t count = 0;
};

/// Time at which the count first reached k, interpolated linearly between
/// the last sample below k and the first at or above it.  A k already
/// reached by the first sample maps to that sample's time; a k never
/// reached gives nullopt.
inline std::optional<double> time_count_reached(
    const std::vector<CountSample>& timeline, std::uint64_t k) {
  const auto it = std::lower_bound(
      timeline.begin(), timeline.end(), k,
      [](const CountSample& s, std::uint64_t v) { return s.count < v; });
  if (it == timeline.end()) return std::nullopt;
  if (it == timeline.begin()) return it->t;
  const CountSample& lo = *(it - 1);
  const CountSample& hi = *it;
  const double frac =
      double(k - lo.count) / double(hi.count - lo.count);  // in (0, 1]
  return lo.t + frac * (hi.t - lo.t);
}

/// Count-based ingest lag of every tuple: the time the count of handled
/// tuples first reached k minus the due time of tuple k (1-based;
/// due[k - 1]).  Tuples the timeline never reaches are skipped.
inline std::vector<double> ingest_lags(const std::vector<CountSample>& timeline,
                                       const std::vector<double>& due) {
  std::vector<double> out;
  for (std::size_t k = 1; k <= due.size(); ++k) {
    if (const auto t = time_count_reached(timeline, k)) {
      out.push_back(*t - due[k - 1]);
    }
  }
  return out;
}

/// Version-based staleness of one answer: completion time minus the due
/// time of the newest tuple the answering version counted.  A version
/// whose observations() is n has absorbed n accepted tuples; the n-th
/// accepted tuple in emission order is `accepted_index[n - 1]`.  nullopt
/// for n == 0 or n beyond the accepted tuples.
inline std::optional<double> staleness(double completion, std::uint64_t n,
                                       const std::vector<std::size_t>&
                                           accepted_index,
                                       const std::vector<double>& due) {
  if (n == 0 || n > accepted_index.size()) return std::nullopt;
  const std::size_t idx = accepted_index[n - 1];
  if (idx >= due.size()) return std::nullopt;
  return completion - due[idx];
}

}  // namespace perfbench
