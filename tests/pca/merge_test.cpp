#include "pca/merge.h"

#include <gtest/gtest.h>

#include <vector>

#include "linalg/eigen_sym.h"
#include "pca/batch_pca.h"
#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

TEST(Merge, EmptyInputThrows) {
  EXPECT_THROW((void)merge(std::span<const EigenSystem>{}), std::invalid_argument);
}

TEST(Merge, DimMismatchThrows) {
  EigenSystem a(4, 2), b(5, 2);
  a.mutable_sums().update(1.0, 1.0);
  b.mutable_sums().update(1.0, 1.0);
  EXPECT_THROW((void)merge(a, b), std::invalid_argument);
}

TEST(Merge, AllEmptySystemsThrow) {
  EigenSystem a(4, 2), b(4, 2);
  EXPECT_THROW((void)merge(a, b), std::invalid_argument);
}

TEST(Merge, IdenticalSystemsAreFixedPoint) {
  Rng rng(171);
  const auto model = testing::make_model(rng, 15, 3);
  const auto data = testing::draw_many(model, rng, 500);
  const EigenSystem s = batch_pca(data, 3);
  const EigenSystem m = merge(s, s);
  EXPECT_TRUE(approx_equal(m.mean(), s.mean(), 1e-10));
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(m.eigenvalues()[k], s.eigenvalues()[k],
                1e-8 * s.eigenvalues()[k]);
  }
  EXPECT_GT(subspace_affinity(m.basis(), s.basis()), 1.0 - 1e-10);
}

TEST(Merge, TwoHalvesMatchFullBatch) {
  // Split a dataset in two, batch-solve each half, merge — the result must
  // match the batch solution of the union (up to truncation error).
  Rng rng(173);
  const auto model = testing::make_model(rng, 12, 3, 3.0, 0.02);
  const auto data = testing::draw_many(model, rng, 2000);
  const std::vector<linalg::Vector> half1(data.begin(), data.begin() + 1000);
  const std::vector<linalg::Vector> half2(data.begin() + 1000, data.end());

  // Rank high enough that truncation loses little.
  const EigenSystem s1 = batch_pca(half1, 6);
  const EigenSystem s2 = batch_pca(half2, 6);
  const EigenSystem whole = batch_pca(data, 6);
  const EigenSystem merged = merge(s1, s2);

  EXPECT_LT(linalg::distance(merged.mean(), whole.mean()), 1e-6);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(merged.eigenvalues()[k], whole.eigenvalues()[k],
                0.02 * whole.eigenvalues()[k] + 1e-6);
  }
  EXPECT_GT(subspace_affinity(truncate(merged, 3).basis(),
                              truncate(whole, 3).basis()),
            0.999);
}

TEST(Merge, UnequalPartitionWeightsRespectCounts) {
  // One system saw 10x the data; merged mean should sit close to it.
  Rng rng(179);
  auto model_a = testing::make_model(rng, 10, 2, 2.0, 0.01);
  auto model_b = model_a;
  model_b.mean = model_a.mean + linalg::Vector(10, 1.0);  // shifted mean

  const auto data_a = testing::draw_many(model_a, rng, 2000);
  const auto data_b = testing::draw_many(model_b, rng, 200);
  const EigenSystem sa = batch_pca(data_a, 4);
  const EigenSystem sb = batch_pca(data_b, 4);
  const EigenSystem m = merge(sa, sb);

  const double da = linalg::distance(m.mean(), sa.mean());
  const double db = linalg::distance(m.mean(), sb.mean());
  EXPECT_LT(da, db);
  // gamma_b ~ 200/2200 -> mean shift ~ 0.0909 * |1|*sqrt(10)
  EXPECT_NEAR(da, (200.0 / 2200.0) * std::sqrt(10.0), 0.05);
}

TEST(Merge, MeanCorrectionCapturesBetweenGroupVariance) {
  // Two clusters with identical internal covariance but different means:
  // the exact merge must show the between-means direction; the
  // assume_equal_means path must not.
  Rng rng(181);
  auto model_a = testing::make_model(rng, 10, 1, 0.5, 0.01);
  auto model_b = model_a;
  linalg::Vector offset(10);
  offset[7] = 5.0;  // big separation along axis 7
  model_b.mean = model_a.mean + offset;

  const auto data_a = testing::draw_many(model_a, rng, 800);
  const auto data_b = testing::draw_many(model_b, rng, 800);
  const EigenSystem sa = batch_pca(data_a, 2);
  const EigenSystem sb = batch_pca(data_b, 2);

  const EigenSystem exact = merge(sa, sb);
  MergeOptions fast;
  fast.assume_equal_means = true;
  const EigenSystem approx = merge(sa, sb, fast);

  // Top eigenvector of the exact merge aligns with the offset direction.
  linalg::Vector axis(10);
  axis[7] = 1.0;
  EXPECT_GT(alignment(exact.basis().col(0), axis), 0.99);
  EXPECT_GT(exact.eigenvalues()[0], 5.0);  // ~ gamma(1-gamma)*25 + ...
  // The equal-means approximation misses it entirely.
  EXPECT_LT(alignment(approx.basis().col(0), axis), 0.5);
}

TEST(Merge, MatchesDenseEigendecomposition) {
  // Reference check of eq. (15): build the pooled covariance densely and
  // compare with the low-rank merge path.
  Rng rng(191);
  const auto model = testing::make_model(rng, 8, 2, 2.0, 0.05);
  const auto data_a = testing::draw_many(model, rng, 600);
  const auto data_b = testing::draw_many(model, rng, 600);
  const EigenSystem sa = batch_pca(data_a, 8);  // full rank: no truncation
  const EigenSystem sb = batch_pca(data_b, 8);

  const double ga = 0.5, gb = 0.5;
  linalg::Vector mu = ga * sa.mean() + gb * sb.mean();
  linalg::Matrix c(8, 8);
  c += sa.covariance() * ga;
  c += sb.covariance() * gb;
  c += linalg::Matrix::outer(sa.mean() - mu, sa.mean() - mu) * ga;
  c += linalg::Matrix::outer(sb.mean() - mu, sb.mean() - mu) * gb;
  const linalg::EigResult dense = linalg::eig_sym(c);

  const EigenSystem merged = merge(sa, sb);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(merged.eigenvalues()[k], dense.values[k],
                1e-6 * dense.values[k] + 1e-9);
  }
}

TEST(Merge, ManySystems) {
  Rng rng(193);
  const auto model = testing::make_model(rng, 10, 2, 2.0, 0.02);
  std::vector<EigenSystem> systems;
  for (int i = 0; i < 5; ++i) {
    const auto data = testing::draw_many(model, rng, 400);
    systems.push_back(batch_pca(data, 4));
  }
  const EigenSystem m = merge(systems);
  EXPECT_EQ(std::size_t(m.observations()), 5u * 400u);
  EXPECT_GT(subspace_affinity(truncate(m, 2).basis(), model.basis), 0.99);
}

TEST(Merge, PooledSigmaIsUWeighted) {
  EigenSystem a(4, 2), b(4, 2);
  a.mutable_sums().update(1.0, 1.0);  // u = 1
  b.mutable_sums().update(1.0, 1.0);
  b.mutable_sums().update(1.0, 1.0);  // u = 2
  a.set_sigma2(3.0);
  b.set_sigma2(6.0);
  a.count_observation();
  b.count_observation();
  const EigenSystem m = merge(a, b);
  EXPECT_NEAR(m.sigma2(), (1.0 * 3.0 + 2.0 * 6.0) / 3.0, 1e-12);
}

TEST(Merge, StreamingEnginesConvergeAfterMerge) {
  // Two robust engines on disjoint substreams; merged system must beat
  // either individual one against ground truth (the paper's "faster
  // convergence than the individual components by themselves").
  Rng rng(199);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.02);
  RobustPcaConfig cfg;
  cfg.dim = 20;
  cfg.rank = 3;
  cfg.alpha = 1.0;
  cfg.init_count = 25;
  RobustIncrementalPca e1(cfg), e2(cfg);
  for (int i = 0; i < 400; ++i) {
    e1.observe(testing::draw(model, rng));
    e2.observe(testing::draw(model, rng));
  }
  const double a1 = subspace_affinity(e1.eigensystem().basis(), model.basis);
  const double a2 = subspace_affinity(e2.eigensystem().basis(), model.basis);
  const EigenSystem m = merge(e1.eigensystem(), e2.eigensystem());
  const double am = subspace_affinity(m.basis(), model.basis);
  EXPECT_GE(am, std::min(a1, a2) - 1e-6);
}

}  // namespace
}  // namespace astro::pca
