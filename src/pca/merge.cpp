#include "pca/merge.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/svd.h"
#include "pca/continuity.h"

namespace astro::pca {

EigenSystem merge(std::span<const EigenSystem> systems,
                  const MergeOptions& opts) {
  if (systems.empty()) throw std::invalid_argument("merge: no systems");
  const std::size_t d = systems[0].dim();
  const std::size_t k = systems.size();

  std::size_t out_rank = 0;
  std::size_t total_cols = 0;
  for (const EigenSystem& s : systems) {
    if (s.dim() != d) throw std::invalid_argument("merge: dim mismatch");
    out_rank = std::max(out_rank, s.rank());
    total_cols += s.rank();
  }
  if (!opts.assume_equal_means) total_cols += k;

  // Combination weights from the robust running weight sums v_i, falling
  // back to raw counts when no weight has accumulated yet.
  std::vector<double> gamma(k);
  double vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    gamma[i] = systems[i].sums().v();
    vsum += gamma[i];
  }
  if (vsum <= 0.0) {
    vsum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      gamma[i] = double(systems[i].observations());
      vsum += gamma[i];
    }
  }
  if (vsum <= 0.0) throw std::invalid_argument("merge: all systems empty");
  for (double& g : gamma) g /= vsum;

  // Pooled mean.
  linalg::Vector mean(d);
  for (std::size_t i = 0; i < k; ++i) mean.axpy(gamma[i], systems[i].mean());

  // Stack the scaled eigenvector blocks (and mean-correction columns) into
  // the low-rank A and decompose once.
  linalg::Matrix a(d, total_cols);
  std::size_t col = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const EigenSystem& s = systems[i];
    for (std::size_t c = 0; c < s.rank(); ++c, ++col) {
      const double scale =
          std::sqrt(std::max(0.0, gamma[i] * s.eigenvalues()[c]));
      for (std::size_t r = 0; r < d; ++r) a(r, col) = s.basis()(r, c) * scale;
    }
  }
  if (!opts.assume_equal_means) {
    for (std::size_t i = 0; i < k; ++i, ++col) {
      const double scale = std::sqrt(gamma[i]);
      for (std::size_t r = 0; r < d; ++r) {
        a(r, col) = (systems[i].mean()[r] - mean[r]) * scale;
      }
    }
  }

  const linalg::ThinUResult svd = linalg::svd_left(a);

  linalg::Matrix basis(d, out_rank);
  linalg::Vector lambda(out_rank);
  const std::size_t keep = std::min(out_rank, svd.singular_values.size());
  for (std::size_t c = 0; c < keep; ++c) {
    lambda[c] = svd.singular_values[c] * svd.singular_values[c];
    for (std::size_t r = 0; r < d; ++r) basis(r, c) = svd.u(r, c);
  }

  // Pool the running sums (independent partitions add) and the scale
  // (u-weighted so engines that absorbed more data dominate).
  stats::RobustRunningSums sums(systems[0].sums().alpha());
  double usum = 0.0, sigma2 = 0.0;
  std::uint64_t observations = 0;
  for (const EigenSystem& s : systems) {
    sums.absorb(s.sums());
    usum += s.sums().u();
    sigma2 += s.sums().u() * s.sigma2();
    observations += s.observations();
  }
  sigma2 = usum > 0.0 ? sigma2 / usum : 0.0;

  // Merge is a publish boundary (sync installs, pooled serve snapshots,
  // final results): pin the SVD's arbitrary per-column signs to the
  // deterministic convention so merged bases are reproducible across
  // runs and restarts (pca/continuity.h).
  apply_sign_convention(basis);

  return EigenSystem(std::move(mean), std::move(basis), std::move(lambda),
                     sigma2, sums, observations);
}

EigenSystem merge(const EigenSystem& a, const EigenSystem& b,
                  const MergeOptions& opts) {
  const EigenSystem pair[] = {a, b};
  return merge(std::span<const EigenSystem>(pair, 2), opts);
}

}  // namespace astro::pca
