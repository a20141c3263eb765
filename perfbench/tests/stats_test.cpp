// Unit tests for the benchmark's metric arithmetic (src/stats.h).
// Build the perfbench_selftest target and run it; exit code 0 = all pass.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAILED line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::CountSample;

void nearest_rank_percentiles() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT(perfbench::percentile(v, 0.5) == 3);
  EXPECT(perfbench::percentile(v, 0.2) == 1);   // rank ceil(1.0) = 1
  EXPECT(perfbench::percentile(v, 0.21) == 2);  // rank ceil(1.05) = 2
  EXPECT(perfbench::percentile(v, 0.99) == 5);
  EXPECT(perfbench::percentile({}, 0.5) == 0);
  EXPECT(perfbench::percentile({7}, 0.99) == 7);
}

void percentiles_clamped_to_observed_range() {
  // Quantiles outside [0, 1] and every q in between stay within [min, max]
  // and are observed samples.
  const std::vector<double> v = {10, 1000, 20, 999, 30};
  EXPECT(perfbench::percentile(v, -1.0) == 10);
  EXPECT(perfbench::percentile(v, 0.0) == 10);
  EXPECT(perfbench::percentile(v, 2.0) == 1000);
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double p = perfbench::percentile(v, q);
    bool observed = false;
    for (double x : v) observed = observed || x == p;
    EXPECT(observed && p >= 10 && p <= 1000);
  }
}

void interquartile_mean_drops_the_tails() {
  EXPECT(perfbench::interquartile_mean({}) == 0);
  EXPECT(perfbench::interquartile_mean({4}) == 4);
  EXPECT(near(perfbench::interquartile_mean({1, 2, 3}), 2.0));  // cut 0
  // n = 8: drops 2 at each end, averages the middle 4.
  EXPECT(near(perfbench::interquartile_mean({100, 1, 5, 3, 4, 2, 6, -50}),
              3.5));
}

void highest_supported_quantile_rule() {
  // p99 of 1000 samples is rank 990: exactly 10 beyond it.
  EXPECT(perfbench::samples_beyond(1000, 0.99) == 10);
  EXPECT(perfbench::highest_supported_quantile(1000) == 0.99);
  // 999 samples: p99 is rank 990, 9 beyond -> only p90 qualifies.
  EXPECT(perfbench::highest_supported_quantile(999) == 0.9);
  EXPECT(perfbench::highest_supported_quantile(10000) == 0.999);
  EXPECT(perfbench::highest_supported_quantile(100000) == 0.9999);
  EXPECT(perfbench::highest_supported_quantile(20) == 0.5);
  EXPECT(!perfbench::highest_supported_quantile(19).has_value());
  EXPECT(!perfbench::highest_supported_quantile(0).has_value());
}

void count_reached_interpolates() {
  const std::vector<CountSample> tl = {{1.0, 0}, {2.0, 10}, {3.0, 10},
                                       {4.0, 30}};
  EXPECT(near(*perfbench::time_count_reached(tl, 0), 1.0));
  EXPECT(near(*perfbench::time_count_reached(tl, 5), 1.5));
  EXPECT(near(*perfbench::time_count_reached(tl, 10), 2.0));
  EXPECT(near(*perfbench::time_count_reached(tl, 11), 3.05));
  EXPECT(near(*perfbench::time_count_reached(tl, 30), 4.0));
  EXPECT(!perfbench::time_count_reached(tl, 31).has_value());
  // Already reached at the first sample: that sample's time.
  const std::vector<CountSample> late = {{5.0, 3}, {6.0, 4}};
  EXPECT(near(*perfbench::time_count_reached(late, 2), 5.0));
}

void count_based_lag_on_hand_built_timeline() {
  // Four tuples due at 0, 1, 2, 3 s; the handled count reaches 1 at 0.5,
  // 2 at 2.0, 3 at 2.5 and 4 at 3.25 (samples at 0.5 s spacing).
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  const std::vector<CountSample> tl = {{0.0, 0}, {0.5, 1}, {1.0, 1},
                                       {1.5, 1}, {2.0, 2}, {2.5, 3},
                                       {3.0, 3}, {3.5, 5}};
  const auto lags = perfbench::ingest_lags(tl, due);
  EXPECT(lags.size() == 4);
  EXPECT(near(lags[0], 0.5));
  EXPECT(near(lags[1], 1.0));
  EXPECT(near(lags[2], 0.5));
  EXPECT(near(lags[3], 0.25));  // count 3 -> 5 over 3.0..3.5: 4 at 3.25
  // A tuple the timeline never reaches is skipped.
  const std::vector<CountSample> short_tl = {{0.0, 0}, {1.0, 2}};
  EXPECT(perfbench::ingest_lags(short_tl, due).size() == 2);
}

void version_based_staleness_on_hand_built_timeline() {
  // Tuples 0..5 due at 0, 1, ..., 5 s; tuple 2 is quarantined, so the
  // accepted stream is 0, 1, 3, 4, 5.
  const std::vector<double> due = {0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> accepted = {0, 1, 3, 4, 5};
  // A version that counted 3 observations has absorbed tuples 0, 1, 3:
  // an answer completed at 3.7 s is 0.7 s stale.
  EXPECT(near(*perfbench::staleness(3.7, 3, accepted, due), 0.7));
  EXPECT(near(*perfbench::staleness(1.25, 2, accepted, due), 0.25));
  EXPECT(near(*perfbench::staleness(9.0, 5, accepted, due), 4.0));
  EXPECT(!perfbench::staleness(1.0, 0, accepted, due).has_value());
  EXPECT(!perfbench::staleness(9.0, 6, accepted, due).has_value());
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  percentiles_clamped_to_observed_range();
  interquartile_mean_drops_the_tails();
  highest_supported_quantile_rule();
  count_reached_interpolates();
  count_based_lag_on_hand_built_timeline();
  version_based_staleness_on_hand_built_timeline();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
