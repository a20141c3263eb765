// Tests for the hardening added on top of the paper's algorithm: robust
// rank selection against in-span contamination, the scale-implosion guard
// in the batch solver, and the streaming rejection-deadlock safety valve.

#include <gtest/gtest.h>

#include "pca/batch_pca.h"
#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

TEST(RobustRankSelection, EvictsInSpanContamination) {
  // Structured contamination along one fixed rogue axis: enough classical
  // variance to enter any top-p basis, but near-zero robust variance.
  Rng rng(601);
  const auto model = testing::make_model(rng, 25, 2, 3.0, 0.05);
  auto data = testing::draw_many(model, rng, 900);
  linalg::Vector rogue(25);
  rogue[24] = 1.0;
  for (int i = 0; i < 80; ++i) {  // ~8%
    data.push_back(model.mean + rogue * (30.0 + rng.gaussian()));
  }
  rng.shuffle(data);

  BatchRobustOptions plain;
  const BatchRobustResult captured = batch_robust_pca(data, 2, plain);
  BatchRobustOptions guarded;
  guarded.candidate_extra = 2;
  const BatchRobustResult selected = batch_robust_pca(data, 2, guarded);

  const double cap_aff =
      subspace_affinity(captured.system.basis(), model.basis);
  const double sel_aff =
      subspace_affinity(selected.system.basis(), model.basis);
  EXPECT_LT(cap_aff, 0.9);  // the rogue direction displaced a component
  EXPECT_GT(sel_aff, 0.98);
  // And the rogue direction itself is not in the selected basis.
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_LT(alignment(selected.system.basis().col(k), rogue), 0.3);
  }
}

TEST(RobustRankSelection, NoopOnCleanData) {
  Rng rng(607);
  const auto model = testing::make_model(rng, 15, 3, 2.0, 0.02);
  const auto data = testing::draw_many(model, rng, 800);
  BatchRobustOptions guarded;
  guarded.candidate_extra = 2;
  const BatchRobustResult r = batch_robust_pca(data, 3, guarded);
  EXPECT_GT(subspace_affinity(r.system.basis(), model.basis), 0.99);
  // Robust eigenvalues are ordered.
  for (std::size_t k = 1; k < 3; ++k) {
    EXPECT_GE(r.system.eigenvalues()[k - 1], r.system.eigenvalues()[k]);
  }
}

TEST(ScaleImplosionGuard, SmallOverfitBatchStaysFinite) {
  // 14 samples, rank 5, delta 0.75: a rank-5 basis can exactly fit the
  // quarter of points the M-scale retains; without the guard the
  // eigenvalues explode by orders of magnitude.
  Rng rng(611);
  const auto model = testing::make_model(rng, 12, 3, 2.0, 0.05);
  const auto data = testing::draw_many(model, rng, 14);
  BatchRobustOptions opts;
  opts.delta = 0.75;
  const BatchRobustResult r = batch_robust_pca(data, 5, opts);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_LT(r.system.eigenvalues()[k], 1e3);
    EXPECT_GE(r.system.eigenvalues()[k], 0.0);
  }
}

// The valve must fire whether rejects arrive one at a time or inside
// micro-batches, where a run of rejects spans several observe_batch calls.
class SafetyValve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SafetyValve, RecoversFromCollapsedScale) {
  const std::size_t batch = GetParam();
  Rng rng(613);
  const auto model = testing::make_model(rng, 15, 2, 3.0, 0.05);

  RobustPcaConfig cfg;
  cfg.dim = 15;
  cfg.rank = 2;
  cfg.reject_reset_threshold = 32;
  RobustIncrementalPca engine(cfg);
  for (int i = 0; i < 100; ++i) engine.observe(testing::draw(model, rng));

  // Sabotage: collapse sigma^2 so everything gets rejected.
  EigenSystem sabotaged = engine.eigensystem();
  sabotaged.set_sigma2(1e-12);
  engine.set_eigensystem(std::move(sabotaged));

  for (std::size_t i = 0; i < 400; i += batch) {
    engine.observe_batch(testing::draw_many(model, rng, batch));
  }
  EXPECT_GE(engine.scale_resets(), 1u);
  // Processing resumed: recent clean data accepted, subspace still good.
  const auto rep = engine.observe(testing::draw(model, rng));
  EXPECT_FALSE(rep.outlier);
  EXPECT_GT(subspace_affinity(engine.eigensystem().basis(), model.basis),
            0.95);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, SafetyValve,
                         ::testing::Values(std::size_t(1), std::size_t(8)),
                         ::testing::PrintToStringParamName());

TEST(SafetyValve, DisabledWhenThresholdZero) {
  Rng rng(617);
  const auto model = testing::make_model(rng, 15, 2, 3.0, 0.05);
  RobustPcaConfig cfg;
  cfg.dim = 15;
  cfg.rank = 2;
  cfg.reject_reset_threshold = 0;
  RobustIncrementalPca engine(cfg);
  for (int i = 0; i < 100; ++i) engine.observe(testing::draw(model, rng));
  EigenSystem sabotaged = engine.eigensystem();
  sabotaged.set_sigma2(1e-12);
  engine.set_eigensystem(std::move(sabotaged));
  for (int i = 0; i < 200; ++i) engine.observe(testing::draw(model, rng));
  EXPECT_EQ(engine.scale_resets(), 0u);
}

TEST(RobustInit, OutlierInInitBatchDoesNotCaptureBasis) {
  // Random-direction gross outliers inside the init buffer: the robust
  // batch initialization must reject them.
  Rng rng(619);
  const auto model = testing::make_model(rng, 20, 2, 3.0, 0.02);
  RobustPcaConfig cfg;
  cfg.dim = 20;
  cfg.rank = 2;
  cfg.init_count = 30;
  // The paper's own remedy for initial transients: alpha < 1 "is able to
  // eliminate the effect of the initial transients".
  cfg.alpha = 1.0 - 1.0 / 500.0;
  RobustIncrementalPca engine(cfg);
  // 3 outliers among the first 30 observations (10 % init contamination).
  for (int i = 0; i < 30; ++i) {
    if (i % 10 == 3) {
      engine.observe(testing::draw_outlier(model, rng, 50.0));
    } else {
      engine.observe(testing::draw(model, rng));
    }
  }
  ASSERT_TRUE(engine.initialized());
  // 27 clean points in 20-d only pin the subspace approximately, but the
  // robust init must not be *captured* (a captured basis sits near 0.5).
  EXPECT_GT(subspace_affinity(engine.eigensystem().basis(), model.basis),
            0.6);
  // A fresh outlier right after init is recognized as such...
  const auto rep = engine.observe(testing::draw_outlier(model, rng, 50.0));
  EXPECT_TRUE(rep.outlier);
  // ...and a short clean stream completes convergence — the init transient
  // does not poison the long run (the guarantee that actually matters).
  for (int i = 0; i < 2000; ++i) engine.observe(testing::draw(model, rng));
  EXPECT_GT(subspace_affinity(engine.eigensystem().basis(), model.basis),
            0.97);
}

}  // namespace
}  // namespace astro::pca
