// Tracking a time-varying manifold (§II-B): infinite memory versus two
// exponential forgetting factors, side by side, through an abrupt regime
// change — e.g. an instrument change mid-survey, or a cluster workload
// shift in the monitoring use case.
//
//   build/examples/drifting_stream
//
// Prints the affinity of each tracker to the *current* regime over time:
// infinite memory never recovers, and forgetting recovers with an
// exponential tail whose length is set by alpha — the shorter memory
// (alpha = 1 - 1/500) recovers first, the longer one (1 - 1/3000) averages
// over more samples once it has.

#include <cstdio>

#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"

using namespace astro;

namespace {

linalg::Vector draw(const linalg::Matrix& basis, stats::Rng& rng) {
  linalg::Vector x(basis.rows());
  for (std::size_t k = 0; k < basis.cols(); ++k) {
    const double c = rng.gaussian(0.0, 2.5 / double(k + 1));
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += c * basis(i, k);
  }
  for (auto& v : x) v += rng.gaussian(0.0, 0.05);
  return x;
}

}  // namespace

int main() {
  constexpr std::size_t kDim = 30;
  constexpr std::size_t kRank = 3;
  constexpr int kSwitchAt = 6000;
  constexpr int kTotal = 14000;

  stats::Rng rng(2012);
  const linalg::Matrix regime_a = stats::random_orthonormal(rng, kDim, kRank);
  const linalg::Matrix regime_b = stats::random_orthonormal(rng, kDim, kRank);

  pca::RobustPcaConfig frozen_cfg;
  frozen_cfg.dim = kDim;
  frozen_cfg.rank = kRank;
  frozen_cfg.alpha = 1.0;  // infinite memory
  // Disable the rejection-reset safety valve for this tracker: after the
  // switch the new regime looks like an outlier storm, and the valve would
  // adapt sigma^2 and let the engine recover -- instructive, but here we
  // want to show the *pure* infinite-memory behaviour.
  frozen_cfg.reject_reset_threshold = 0;
  pca::RobustIncrementalPca frozen(frozen_cfg);

  // The paper's damping factor alpha = 1 - 1/N at two effective windows N.
  // Keep the rejection-reset valve on both: after the switch it re-scales
  // sigma^2 quickly instead of rejecting the new regime as outliers.
  pca::RobustPcaConfig short_cfg = frozen_cfg;
  short_cfg.alpha = 1.0 - 1.0 / 500.0;
  short_cfg.reject_reset_threshold = 64;
  pca::RobustIncrementalPca short_memory(short_cfg);
  pca::RobustPcaConfig long_cfg = short_cfg;
  long_cfg.alpha = 1.0 - 1.0 / 3000.0;
  pca::RobustIncrementalPca long_memory(long_cfg);

  std::printf("Regime switch at sample %d.  Affinity to the CURRENT "
              "regime:\n\n",
              kSwitchAt);
  std::printf("%8s  %12s  %14s  %14s\n", "sample", "infinite",
              "alpha=1-1/500", "alpha=1-1/3000");

  for (int n = 1; n <= kTotal; ++n) {
    const linalg::Matrix& regime = n <= kSwitchAt ? regime_a : regime_b;
    const linalg::Vector x = draw(regime, rng);
    frozen.observe(x);
    short_memory.observe(x);
    long_memory.observe(x);

    if (n % 1000 == 0) {
      std::printf("%8d  %12.4f  %14.4f  %14.4f%s\n", n,
                  pca::subspace_affinity(frozen.eigensystem().basis(), regime),
                  pca::subspace_affinity(short_memory.eigensystem().basis(),
                                         regime),
                  pca::subspace_affinity(long_memory.eigensystem().basis(),
                                         regime),
                  n == kSwitchAt ? "   <-- regime switch" : "");
    }
  }

  std::printf(
      "\nInfinite memory is stuck between regimes; forgetting recovers with "
      "an\nexponential tail, faster the shorter its memory.\n");
  return 0;
}
