#include "pca/incremental_pca.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pca/batch_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

TEST(IncrementalPca, ConfigValidation) {
  IncrementalPcaConfig bad;
  bad.dim = 0;
  EXPECT_THROW(IncrementalPca{bad}, std::invalid_argument);
  bad.dim = 5;
  bad.rank = 0;
  EXPECT_THROW(IncrementalPca{bad}, std::invalid_argument);
  bad.rank = 6;
  EXPECT_THROW(IncrementalPca{bad}, std::invalid_argument);
  bad.rank = 2;
  bad.alpha = 0.0;
  EXPECT_THROW(IncrementalPca{bad}, std::invalid_argument);
  bad.alpha = 1.2;
  EXPECT_THROW(IncrementalPca{bad}, std::invalid_argument);
}

TEST(IncrementalPca, WrongDimensionObservationThrows) {
  IncrementalPcaConfig cfg;
  cfg.dim = 4;
  cfg.rank = 2;
  IncrementalPca pca(cfg);
  EXPECT_THROW(pca.observe(linalg::Vector(3)), std::invalid_argument);
}

TEST(IncrementalPca, BuffersUntilInitCount) {
  IncrementalPcaConfig cfg;
  cfg.dim = 4;
  cfg.rank = 2;
  cfg.init_count = 5;
  IncrementalPca pca(cfg);
  Rng rng(61);
  for (int i = 0; i < 4; ++i) {
    pca.observe(rng.gaussian_vector(4));
    EXPECT_FALSE(pca.initialized());
  }
  pca.observe(rng.gaussian_vector(4));
  EXPECT_TRUE(pca.initialized());
  EXPECT_EQ(pca.eigensystem().observations(), 5u);
}

TEST(IncrementalPca, RecoversLowRankSubspace) {
  Rng rng(63);
  const auto model = testing::make_model(rng, 30, 3, 3.0, 0.01);
  IncrementalPcaConfig cfg;
  cfg.dim = 30;
  cfg.rank = 3;
  IncrementalPca pca(cfg);
  for (int i = 0; i < 3000; ++i) pca.observe(testing::draw(model, rng));

  EXPECT_GT(subspace_affinity(pca.eigensystem().basis(), model.basis), 0.99);
  // Mean recovered.
  EXPECT_LT(linalg::distance(pca.eigensystem().mean(), model.mean), 0.15);
}

TEST(IncrementalPca, EigenvaluesApproachTrueVariances) {
  Rng rng(67);
  const auto model = testing::make_model(rng, 25, 2, 4.0, 0.001);
  IncrementalPcaConfig cfg;
  cfg.dim = 25;
  cfg.rank = 2;
  IncrementalPca pca(cfg);
  for (int i = 0; i < 8000; ++i) pca.observe(testing::draw(model, rng));

  const auto& lambda = pca.eigensystem().eigenvalues();
  EXPECT_NEAR(lambda[0], 16.0, 1.6);  // var = scale^2
  EXPECT_NEAR(lambda[1], 4.0, 0.4);
}

TEST(IncrementalPca, MatchesBatchPcaOnStationaryData) {
  Rng rng(71);
  const auto model = testing::make_model(rng, 15, 3, 2.0, 0.05);
  const auto data = testing::draw_many(model, rng, 4000);

  IncrementalPcaConfig cfg;
  cfg.dim = 15;
  cfg.rank = 3;
  IncrementalPca pca(cfg);
  for (const auto& x : data) pca.observe(x);

  const EigenSystem batch = batch_pca(data, 3);
  EXPECT_GT(subspace_affinity(pca.eigensystem().basis(), batch.basis()), 0.995);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(pca.eigensystem().eigenvalues()[k], batch.eigenvalues()[k],
                0.12 * batch.eigenvalues()[k] + 0.01);
  }
}

TEST(IncrementalPca, BasisStaysOrthonormal) {
  Rng rng(73);
  const auto model = testing::make_model(rng, 20, 4);
  IncrementalPcaConfig cfg;
  cfg.dim = 20;
  cfg.rank = 4;
  IncrementalPca pca(cfg);
  for (int i = 0; i < 2000; ++i) pca.observe(testing::draw(model, rng));
  EXPECT_LT(pca.eigensystem().basis_drift(), 1e-8);
}

TEST(IncrementalPca, ForgettingTracksDrift) {
  // Change the generating subspace mid-stream; a forgetting engine adapts,
  // an infinite-memory engine lags.
  Rng rng(79);
  const auto before = testing::make_model(rng, 20, 2, 3.0, 0.01);
  auto after = before;
  after.basis = stats::random_orthonormal(rng, 20, 2);

  IncrementalPcaConfig fast;
  fast.dim = 20;
  fast.rank = 2;
  fast.alpha = 1.0 - 1.0 / 200.0;
  IncrementalPcaConfig never;
  never.dim = 20;
  never.rank = 2;
  never.alpha = 1.0;

  IncrementalPca adaptive(fast), frozen(never);
  for (int i = 0; i < 3000; ++i) {
    const auto x = testing::draw(before, rng);
    adaptive.observe(x);
    frozen.observe(x);
  }
  for (int i = 0; i < 3000; ++i) {
    const auto x = testing::draw(after, rng);
    adaptive.observe(x);
    frozen.observe(x);
  }
  const double a_affinity =
      subspace_affinity(adaptive.eigensystem().basis(), after.basis);
  const double f_affinity =
      subspace_affinity(frozen.eigensystem().basis(), after.basis);
  EXPECT_GT(a_affinity, 0.98);
  EXPECT_GT(a_affinity, f_affinity + 0.01);
}

TEST(IncrementalPca, SetEigensystemValidatesShape) {
  IncrementalPcaConfig cfg;
  cfg.dim = 6;
  cfg.rank = 2;
  IncrementalPca pca(cfg);
  EXPECT_THROW(pca.set_eigensystem(EigenSystem(5, 2)), std::invalid_argument);
  EXPECT_THROW(pca.set_eigensystem(EigenSystem(6, 3)), std::invalid_argument);
  pca.set_eigensystem(EigenSystem(6, 2));
  EXPECT_TRUE(pca.initialized());
}

// One tuple through the batch kernel: y·√fresh staged as the single fresh
// column, γ as the history scale.
void low_rank_update_one(const linalg::Matrix& basis,
                         const linalg::Vector& lambda, const linalg::Vector& y,
                         double gamma, double fresh, std::size_t p,
                         linalg::Matrix& e_out, linalg::Vector& l_out) {
  UpdateWorkspace ws;
  const std::size_t k = lambda.size();
  ws.a.resize_no_shrink(y.size(), k + 1);
  for (std::size_t r = 0; r < y.size(); ++r) {
    ws.a(r, k) = y[r] * std::sqrt(fresh);
  }
  low_rank_update(basis, lambda, gamma, 1, p, ws, e_out, l_out);
}

TEST(LowRankUpdate, PreservesTotalVarianceWeighting) {
  // gamma * lambda + (1-gamma) * |y|^2 equals the new eigenvalue mass when
  // p covers the full column space of A.
  Rng rng(83);
  linalg::Matrix basis = stats::random_orthonormal(rng, 10, 2);
  linalg::Vector lambda{5.0, 2.0};
  linalg::Vector y = rng.gaussian_vector(10);
  const double gamma = 0.9;

  linalg::Matrix e_out;
  linalg::Vector l_out;
  low_rank_update_one(basis, lambda, y, gamma, 1.0 - gamma, 3, e_out, l_out);

  const double mass_in = gamma * (5.0 + 2.0) + (1.0 - gamma) * y.squared_norm();
  EXPECT_NEAR(l_out.sum(), mass_in, 1e-9);
  EXPECT_LT(linalg::orthonormality_error(e_out), 1e-10);
}

TEST(LowRankUpdate, RankPadsWithZeros) {
  // p larger than the A-matrix column count leaves trailing eigenpairs 0.
  linalg::Matrix basis(4, 1);
  basis(0, 0) = 1.0;
  linalg::Vector lambda{3.0};
  linalg::Vector y{0.0, 2.0, 0.0, 0.0};
  linalg::Matrix e_out;
  linalg::Vector l_out;
  low_rank_update_one(basis, lambda, y, 0.5, 0.5, 4, e_out, l_out);
  EXPECT_EQ(l_out.size(), 4u);
  EXPECT_NEAR(l_out[2], 0.0, 1e-12);
  EXPECT_NEAR(l_out[3], 0.0, 1e-12);
}

}  // namespace
}  // namespace astro::pca
