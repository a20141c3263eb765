#include "pca/gap_fill.h"

#include <gtest/gtest.h>

#include <cstring>

#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

// sigma2 = 0 declares a noiseless system: the Wiener shrinkage in
// fill_gaps vanishes and reconstruction of on-manifold points is exact.
EigenSystem system_from_model(const testing::LowRankModel& m,
                              double sigma2 = 0.0) {
  linalg::Vector lambda(m.scales.size());
  for (std::size_t i = 0; i < m.scales.size(); ++i) {
    lambda[i] = m.scales[i] * m.scales[i];
  }
  return EigenSystem(m.mean, m.basis, lambda, sigma2,
                     stats::RobustRunningSums(1.0), 100);
}

TEST(GapFill, NoGapsPassThrough) {
  Rng rng(141);
  const auto model = testing::make_model(rng, 12, 2);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);
  const GapFillResult r = fill_gaps(s, x, PixelMask(12, true));
  EXPECT_EQ(r.missing, 0u);
  EXPECT_TRUE(approx_equal(r.patched, x, 0.0));
}

TEST(GapFill, SizeMismatchThrows) {
  Rng rng(143);
  const auto model = testing::make_model(rng, 12, 2);
  const EigenSystem s = system_from_model(model);
  EXPECT_THROW((void)fill_gaps(s, linalg::Vector(11), PixelMask(12, true)),
               std::invalid_argument);
  EXPECT_THROW((void)fill_gaps(s, linalg::Vector(12), PixelMask(11, true)),
               std::invalid_argument);
}

TEST(GapFill, ReconstructsNoiselessManifoldPoint) {
  // A point exactly on the manifold with 25 % of pixels masked must be
  // reconstructed near-perfectly from the true basis.
  Rng rng(147);
  auto model = testing::make_model(rng, 40, 3, 3.0, 0.0);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);

  PixelMask mask(40, true);
  for (std::size_t i = 0; i < 10; ++i) mask[rng.index(40)] = false;
  const GapFillResult r = fill_gaps(s, x, mask);
  EXPECT_TRUE(approx_equal(r.patched, x, 1e-8));
}

TEST(GapFill, ObservedPixelsNeverModified) {
  Rng rng(149);
  auto model = testing::make_model(rng, 20, 2, 2.0, 0.1);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);
  PixelMask mask(20, true);
  mask[3] = mask[7] = mask[15] = false;
  const GapFillResult r = fill_gaps(s, x, mask);
  EXPECT_EQ(r.missing, 3u);
  for (std::size_t i = 0; i < 20; ++i) {
    if (mask[i]) {
      EXPECT_EQ(r.patched[i], x[i]);
    }
  }
}

TEST(GapFill, ContiguousGapLikeRedshiftCoverage) {
  // Systematic gap at one end of the spectrum — the §II-D scenario.
  Rng rng(151);
  auto model = testing::make_model(rng, 50, 3, 3.0, 0.0);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);
  PixelMask mask(50, true);
  for (std::size_t i = 0; i < 12; ++i) mask[i] = false;  // first 24 % missing
  const GapFillResult r = fill_gaps(s, x, mask);
  EXPECT_NEAR(linalg::distance(r.patched, x), 0.0, 1e-7);
}

TEST(GapFill, RidgeHandlesDegenerateMask) {
  // Masking all but two pixels leaves a singular normal system for a
  // 3-component basis; the ridge must keep it solvable.
  Rng rng(153);
  auto model = testing::make_model(rng, 10, 3, 2.0, 0.0);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);
  PixelMask mask(10, false);
  mask[0] = mask[5] = true;
  const GapFillResult r = fill_gaps(s, x, mask);
  EXPECT_EQ(r.missing, 8u);
  for (double v : r.patched) EXPECT_TRUE(std::isfinite(v));
}

bool bit_equal(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GapFill, WriteIntoFormsBitIdenticalOnReusedWorkspace) {
  // The engine's per-tuple path runs fill_gaps_into and the workspace form
  // of corrected_squared_residual on ONE long-lived workspace.  Over 20
  // seeds the shapes change (d, rank), masks range from complete through
  // redshift-like bands to degenerate (ridge escalation), and the system
  // is noiseless or noisy, so the workspace always carries stale contents
  // of another shape — the results must still match the allocating forms
  // bit for bit.
  GapFillWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(9000 + seed);
    const std::size_t d = 12 + 7 * (seed % 5);
    const std::size_t k = 2 + seed % 4;
    const auto model = testing::make_model(rng, d, k, 3.0, 0.05);
    const EigenSystem s = system_from_model(model, seed % 2 ? 0.3 : 0.0);
    for (int trial = 0; trial < 6; ++trial) {
      const linalg::Vector x = testing::draw(model, rng);
      PixelMask mask(d, true);
      switch (trial % 3) {
        case 0:  // complete
          break;
        case 1: {  // a contiguous band, as redshift coverage leaves
          const std::size_t lo = rng.index(d / 2);
          for (std::size_t i = lo; i < lo + d / 3; ++i) mask[i] = false;
          break;
        }
        default:  // only two pixels observed: singular without the ridge
          mask.assign(d, false);
          mask[rng.index(d)] = true;
          mask[rng.index(d)] = true;
          break;
      }
      const GapFillResult ref = fill_gaps(s, x, mask);
      const std::size_t missing = fill_gaps_into(s, x, mask, ws);
      EXPECT_EQ(missing, ref.missing) << "seed " << seed;
      EXPECT_TRUE(bit_equal(ws.patched, ref.patched)) << "seed " << seed;
      EXPECT_TRUE(bit_equal(ws.coeffs, ref.coeffs)) << "seed " << seed;

      for (std::size_t p = 1; p <= k; ++p) {
        const double r_ref = corrected_squared_residual(s, p, ref.patched, mask);
        const double r_ws =
            corrected_squared_residual(s, p, ws.patched, mask, ws);
        EXPECT_EQ(std::memcmp(&r_ref, &r_ws, sizeof(double)), 0)
            << "seed " << seed << " p " << p;
      }
    }
  }
}

TEST(GapFill, CorrectedResidualReducesToPlainWhenNoExtra) {
  Rng rng(157);
  auto model = testing::make_model(rng, 20, 3, 2.0, 0.1);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);
  const double plain = s.squared_residual(x);
  const double corrected =
      corrected_squared_residual(s, 3, x, PixelMask(20, true));
  EXPECT_NEAR(corrected, plain, 1e-9 + 1e-9 * plain);
}

TEST(GapFill, CorrectedResidualValidation) {
  EigenSystem s(10, 3);
  EXPECT_THROW(
      (void)corrected_squared_residual(s, 4, linalg::Vector(10), PixelMask(10, true)),
      std::invalid_argument);
  EXPECT_THROW(
      (void)corrected_squared_residual(s, 2, linalg::Vector(9), PixelMask(10, true)),
      std::invalid_argument);
}

TEST(GapFill, HigherOrderComponentsEstimateMissingResidual) {
  // Build a rank-4 system; treat p = 2 as the fit basis.  For a point with
  // energy in components 3-4 and a gap, the corrected residual must exceed
  // the observed-only residual (which misses the gap bins).
  Rng rng(163);
  auto model = testing::make_model(rng, 30, 4, 3.0, 0.0);
  const EigenSystem s = system_from_model(model);
  const linalg::Vector x = testing::draw(model, rng);
  PixelMask mask(30, true);
  for (std::size_t i = 0; i < 8; ++i) mask[i] = false;
  const GapFillResult fill = fill_gaps(s, x, mask);

  const double corrected = corrected_squared_residual(s, 2, fill.patched, mask);
  // Observed-only residual (ignore missing bins entirely).
  const linalg::Vector y = s.center(fill.patched);
  const linalg::Vector c = s.basis().transpose_times(y);
  double observed_only = 0.0;
  for (std::size_t i = 0; i < 30; ++i) {
    if (!mask[i]) continue;
    double ri = y[i];
    for (std::size_t k = 0; k < 2; ++k) ri -= c[k] * s.basis()(i, k);
    observed_only += ri * ri;
  }
  EXPECT_GT(corrected, observed_only);
}

TEST(GapFill, WienerShrinkageDampensNoisySystems) {
  // Same on-manifold point, same gap: a system that declares residual
  // noise patches more conservatively (coefficients shrink toward 0), so
  // its patched values sit closer to the mean than the noiseless system's.
  Rng rng(155);
  auto model = testing::make_model(rng, 30, 3, 2.0, 0.0);
  const EigenSystem exact = system_from_model(model, 0.0);
  const EigenSystem noisy = system_from_model(model, 5.0);
  const linalg::Vector x = testing::draw(model, rng);
  PixelMask mask(30, true);
  for (std::size_t i = 0; i < 8; ++i) mask[i] = false;

  const GapFillResult r_exact = fill_gaps(exact, x, mask);
  const GapFillResult r_noisy = fill_gaps(noisy, x, mask);
  EXPECT_LT(r_noisy.coeffs.norm(), r_exact.coeffs.norm());
  // And the exact system still reconstructs perfectly.
  EXPECT_TRUE(approx_equal(r_exact.patched, x, 1e-8));
}

TEST(GapFill, Coverage) {
  PixelMask m(10, true);
  EXPECT_DOUBLE_EQ(coverage(m), 1.0);
  m[0] = m[1] = false;
  EXPECT_DOUBLE_EQ(coverage(m), 0.8);
  EXPECT_DOUBLE_EQ(coverage(PixelMask{}), 1.0);
}

TEST(GapFill, StreamingEngineConvergesWithGappyData) {
  // End-to-end: robust engine fed 30 % gappy observations still converges
  // to the true subspace thanks to patching.
  Rng rng(167);
  const auto model = testing::make_model(rng, 30, 3, 3.0, 0.01);
  RobustPcaConfig cfg;
  cfg.dim = 30;
  cfg.rank = 3;
  cfg.extra_rank = 2;
  cfg.alpha = 1.0 - 1.0 / 2000.0;
  cfg.init_count = 40;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 5000; ++i) {
    const linalg::Vector x = testing::draw(model, rng);
    if (rng.bernoulli(0.3)) {
      PixelMask mask(30, true);
      const std::size_t start = rng.index(24);
      for (std::size_t j = start; j < start + 6; ++j) mask[j] = false;
      pca.observe(x, mask);
    } else {
      pca.observe(x);
    }
  }
  const EigenSystem rep = pca.reported_system();
  EXPECT_GT(subspace_affinity(rep.basis(), model.basis), 0.97);
}

}  // namespace
}  // namespace astro::pca
