// Micro-batched rank-b updates (DESIGN.md "Micro-batching"): the batched
// observe path must be the eq. (1)-(3) recursion unrolled, not a different
// algorithm.  The anchor is the 20-seed equivalence property: on data lying
// exactly in the retained subspace the intermediate rank-p truncations
// discard nothing, so batched and sequential classic PCA agree to FP noise
// (pinned at 1e-10).  Around it: bitwise b == 1 delegation, init-boundary
// handling, and the robust outlier semantics (per-tuple decisions, rejected
// tuples inert).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pca/incremental_pca.h"
#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using linalg::Vector;
using stats::Rng;
using testing::draw;
using testing::draw_many;
using testing::draw_outlier;
using testing::make_model;

/// Entrywise comparison of two eigensystems, aligning each basis column's
/// sign (the SVD fixes columns only up to sign, and the d x (p+1) and
/// d x (p+b) decompositions need not pick the same one).
void expect_systems_close(const EigenSystem& a, const EigenSystem& b,
                          double tol) {
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.rank(), b.rank());
  EXPECT_EQ(a.observations(), b.observations());
  for (std::size_t r = 0; r < a.dim(); ++r) {
    EXPECT_NEAR(a.mean()[r], b.mean()[r], tol) << "mean[" << r << "]";
  }
  EXPECT_NEAR(a.sums().u(), b.sums().u(), tol * std::max(1.0, a.sums().u()));
  EXPECT_NEAR(a.sums().v(), b.sums().v(), tol * std::max(1.0, a.sums().v()));
  // q is a running sum of squared residuals over u() effective
  // observations; on exact-subspace data every r² is FP noise, so the
  // natural comparison scale is the count, not the (vanishing) value.
  EXPECT_NEAR(a.sums().q(), b.sums().q(), tol * std::max(1.0, a.sums().u()));
  EXPECT_NEAR(a.sigma2(), b.sigma2(), tol * std::max(1.0, a.sigma2()));
  for (std::size_t c = 0; c < a.rank(); ++c) {
    EXPECT_NEAR(a.eigenvalues()[c], b.eigenvalues()[c],
                tol * std::max(1.0, a.eigenvalues()[c]))
        << "lambda[" << c << "]";
    double dot = 0.0;
    for (std::size_t r = 0; r < a.dim(); ++r) {
      dot += a.basis()(r, c) * b.basis()(r, c);
    }
    const double sign = dot < 0.0 ? -1.0 : 1.0;
    for (std::size_t r = 0; r < a.dim(); ++r) {
      EXPECT_NEAR(a.basis()(r, c), sign * b.basis()(r, c), tol)
          << "basis(" << r << "," << c << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance property: batched classic == sequential classic within
// 1e-10 on exact rank-p data, across 20 seeds, for both the infinite-memory
// and forgetting recursions, with batch sizes that do and do not divide the
// stream length.

class BatchEquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BatchEquivalenceProperty, ClassicBatchedMatchesSequentialOnSubspaceData) {
  constexpr std::size_t kDim = 24;
  constexpr std::size_t kRank = 4;
  constexpr std::size_t kTuples = 400;
  Rng rng(GetParam());
  // noise = 0: every draw lies exactly in mean + span(basis), so the
  // sequential path's per-tuple truncation to rank p discards nothing and
  // the unrolled batch recursion is algebraically identical.
  const auto model = make_model(rng, kDim, kRank, 3.0, /*noise=*/0.0);

  for (const double alpha : {1.0, 1.0 - 1.0 / 256.0}) {
    for (const std::size_t batch : {std::size_t{8}, std::size_t{7}}) {
      Rng draw_rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
      IncrementalPcaConfig cfg;
      cfg.dim = kDim;
      cfg.rank = kRank;
      cfg.alpha = alpha;
      IncrementalPca sequential(cfg);
      IncrementalPca batched(cfg);

      const auto data = draw_many(model, draw_rng, cfg.init_count + kTuples);
      std::vector<const Vector*> ptrs;
      std::size_t i = 0;
      while (i < data.size()) {
        const std::size_t n = std::min(batch, data.size() - i);
        ptrs.clear();
        for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&data[i + k]);
        for (std::size_t k = 0; k < n; ++k) sequential.observe(data[i + k]);
        batched.observe_batch(ptrs.data(), n);
        i += n;
        if (sequential.initialized()) {
          ASSERT_TRUE(batched.initialized());
          expect_systems_close(sequential.eigensystem(), batched.eigensystem(),
                               1e-10);
        }
      }
      ASSERT_TRUE(sequential.initialized());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalenceProperty,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{21}));

// ---------------------------------------------------------------------------
// Degenerate and boundary batch shapes.

TEST(BatchedClassic, BatchOfOneIsBitIdenticalToObserve) {
  Rng rng(7);
  const auto model = make_model(rng, 16, 3);
  IncrementalPcaConfig cfg;
  cfg.dim = 16;
  cfg.rank = 3;
  IncrementalPca a(cfg);
  IncrementalPca b(cfg);
  for (std::size_t i = 0; i < cfg.init_count + 64; ++i) {
    const Vector x = draw(model, rng);
    a.observe(x);
    const Vector* p = &x;
    b.observe_batch(&p, 1);  // observe() is this same batch of one
  }
  ASSERT_TRUE(a.initialized());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(a.eigensystem().eigenvalues()[c], b.eigensystem().eigenvalues()[c]);
    for (std::size_t r = 0; r < 16; ++r) {
      EXPECT_EQ(a.eigensystem().basis()(r, c), b.eigensystem().basis()(r, c));
    }
  }
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(a.eigensystem().mean()[r], b.eigensystem().mean()[r]);
  }
}

TEST(BatchedClassic, BatchSpanningInitBoundary) {
  Rng rng(11);
  const auto model = make_model(rng, 20, 4, 3.0, /*noise=*/0.0);
  IncrementalPcaConfig cfg;
  cfg.dim = 20;
  cfg.rank = 4;
  IncrementalPca sequential(cfg);
  IncrementalPca batched(cfg);

  // One batch that covers the whole init buffer plus five streamed tuples:
  // the init tuples must be buffered singly and the remainder absorbed as a
  // (smaller) batch, landing on the same state as the sequential run.
  const auto data = draw_many(model, rng, cfg.init_count + 5);
  for (const auto& x : data) sequential.observe(x);
  std::vector<Vector> copy = data;
  batched.observe_batch(copy);

  ASSERT_TRUE(sequential.initialized());
  ASSERT_TRUE(batched.initialized());
  EXPECT_EQ(batched.eigensystem().observations(), data.size());
  expect_systems_close(sequential.eigensystem(), batched.eigensystem(), 1e-10);
}

TEST(BatchedRobust, BatchOfOneIsBitIdenticalToObserve) {
  Rng rng(13);
  const auto model = make_model(rng, 16, 3);
  RobustPcaConfig cfg;
  cfg.dim = 16;
  cfg.rank = 3;
  RobustIncrementalPca a(cfg);
  RobustIncrementalPca b(cfg);
  for (std::size_t i = 0; i < cfg.init_count + 128; ++i) {
    const Vector x = draw(model, rng);
    const ObservationReport ra = a.observe(x);
    ObservationReport rb;
    const Vector* p = &x;
    b.observe_batch(&p, 1, &rb);
    EXPECT_EQ(ra.outlier, rb.outlier);
    EXPECT_EQ(ra.weight, rb.weight);
    EXPECT_EQ(ra.squared_residual, rb.squared_residual);
  }
  ASSERT_TRUE(a.initialized());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(a.eigensystem().eigenvalues()[c], b.eigensystem().eigenvalues()[c]);
    for (std::size_t r = 0; r < 16; ++r) {
      EXPECT_EQ(a.eigensystem().basis()(r, c), b.eigensystem().basis()(r, c));
    }
  }
  EXPECT_EQ(a.sigma2(), b.sigma2());
}

TEST(BatchedRobust, AllOutlierBatchLeavesEigensystemUntouched) {
  Rng rng(17);
  const auto model = make_model(rng, 16, 3, 3.0, 0.02);
  RobustPcaConfig cfg;
  cfg.dim = 16;
  cfg.rank = 3;
  RobustIncrementalPca engine(cfg);
  for (std::size_t i = 0; i < cfg.init_count + 200; ++i) {
    engine.observe(draw(model, rng));
  }
  ASSERT_TRUE(engine.initialized());

  const EigenSystem before = engine.eigensystem();
  std::vector<Vector> outliers;
  for (int i = 0; i < 8; ++i) outliers.push_back(draw_outlier(model, rng, 80.0));
  const auto reports = engine.observe_batch(outliers);

  // Every tuple rejected (w = 0, γ₂ = 1): the covariance update is the
  // identity, so basis and eigenvalues must not move AT ALL — the rejected
  // tuples' reserved A columns are zero-filled and the SVD is skipped.
  ASSERT_EQ(reports.size(), 8u);
  for (const auto& r : reports) EXPECT_TRUE(r.outlier);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(before.eigenvalues()[c], engine.eigensystem().eigenvalues()[c]);
    for (std::size_t r = 0; r < 16; ++r) {
      EXPECT_EQ(before.basis()(r, c), engine.eigensystem().basis()(r, c));
    }
  }
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(before.mean()[r], engine.eigensystem().mean()[r]);
  }
  EXPECT_EQ(engine.eigensystem().observations(), before.observations() + 8);
}

TEST(BatchedRobust, FlagsInjectedOutliersLikeSequential) {
  Rng rng(23);
  const auto model = make_model(rng, 16, 3, 3.0, 0.02);
  RobustPcaConfig cfg;
  cfg.dim = 16;
  cfg.rank = 3;
  RobustIncrementalPca sequential(cfg);
  RobustIncrementalPca batched(cfg);

  constexpr std::size_t kTuples = 600;
  std::vector<Vector> data;
  std::vector<bool> injected(kTuples + cfg.init_count, false);
  for (std::size_t i = 0; i < cfg.init_count + kTuples; ++i) {
    if (i >= cfg.init_count && i % 37 == 17) {
      data.push_back(draw_outlier(model, rng, 60.0));
      injected[i] = true;
    } else {
      data.push_back(draw(model, rng));
    }
  }

  std::vector<ObservationReport> seq_reports;
  for (const auto& x : data) seq_reports.push_back(sequential.observe(x));
  std::vector<ObservationReport> batch_reports;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    const std::size_t n = std::min<std::size_t>(8, data.size() - i);
    std::vector<Vector> chunk(data.begin() + long(i), data.begin() + long(i + n));
    const auto reps = batched.observe_batch(chunk);
    batch_reports.insert(batch_reports.end(), reps.begin(), reps.end());
  }

  // Gross outliers sit far above the rejection point in both paths: the
  // at-most-(b-1)-updates-stale basis the batch judges against cannot flip
  // the decision.  Near-threshold clean tuples may legitimately differ, so
  // they are only bounded, not matched.
  std::size_t seq_false = 0;
  std::size_t batch_false = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (injected[i]) {
      EXPECT_TRUE(seq_reports[i].outlier) << "sequential missed outlier " << i;
      EXPECT_TRUE(batch_reports[i].outlier) << "batched missed outlier " << i;
    } else {
      seq_false += seq_reports[i].outlier ? 1 : 0;
      batch_false += batch_reports[i].outlier ? 1 : 0;
    }
  }
  EXPECT_LT(seq_false, kTuples / 50);
  EXPECT_LT(batch_false, kTuples / 50);

  // Both estimates track the true subspace despite the contamination.
  EXPECT_GT(subspace_affinity(model.basis, sequential.eigensystem().basis()),
            0.95);
  EXPECT_GT(subspace_affinity(model.basis, batched.eigensystem().basis()),
            0.95);
  EXPECT_GT(subspace_affinity(sequential.eigensystem().basis(),
                              batched.eigensystem().basis()),
            0.98);
}

// ---------------------------------------------------------------------------
// A malformed tuple is rejected before any state moves, whatever the batch
// size: the sums, mean and eigensystem stay bit-identical.

void expect_same_state(const EigenSystem& a, const EigenSystem& b) {
  EXPECT_EQ(a.basis(), b.basis());
  EXPECT_EQ(a.eigenvalues(), b.eigenvalues());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sigma2(), b.sigma2());
  EXPECT_EQ(a.sums().u(), b.sums().u());
  EXPECT_EQ(a.sums().v(), b.sums().v());
  EXPECT_EQ(a.sums().q(), b.sums().q());
  EXPECT_EQ(a.observations(), b.observations());
}

TEST(BatchedClassic, WrongLengthSingleTupleBatchThrowsBeforeAnyUpdate) {
  Rng rng(31);
  const auto model = make_model(rng, 16, 3);
  IncrementalPcaConfig cfg;
  cfg.dim = 16;
  cfg.rank = 3;
  IncrementalPca engine(cfg);
  for (std::size_t i = 0; i < cfg.init_count + 32; ++i) {
    engine.observe(draw(model, rng));
  }
  ASSERT_TRUE(engine.initialized());
  const EigenSystem before = engine.eigensystem();
  for (const std::size_t len : {cfg.dim + 1, cfg.dim - 1}) {
    const Vector bad(len, 0.5);
    const Vector* p = &bad;
    EXPECT_THROW(engine.observe_batch(&p, 1), std::invalid_argument) << len;
    expect_same_state(before, engine.eigensystem());
  }
}

TEST(BatchedRobust, WrongLengthSingleTupleBatchThrowsBeforeAnyUpdate) {
  Rng rng(37);
  const auto model = make_model(rng, 16, 3);
  RobustPcaConfig cfg;
  cfg.dim = 16;
  cfg.rank = 3;
  RobustIncrementalPca engine(cfg);
  for (std::size_t i = 0; i < cfg.init_count + 32; ++i) {
    engine.observe(draw(model, rng));
  }
  ASSERT_TRUE(engine.initialized());
  const EigenSystem before = engine.eigensystem();
  for (const std::size_t len : {cfg.dim + 1, cfg.dim - 1}) {
    const Vector bad(len, 0.5);
    const Vector* p = &bad;
    ObservationReport rep;
    EXPECT_THROW(engine.observe_batch(&p, 1, &rep), std::invalid_argument)
        << len;
    expect_same_state(before, engine.eigensystem());
  }
}

}  // namespace
}  // namespace astro::pca
