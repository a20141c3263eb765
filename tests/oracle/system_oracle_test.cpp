// The system-wide differential oracle: exact-vs-truncated pairs driven
// through each layer the repo has grown — sequential and micro-batched
// observes, two-engine merges, a full pipeline checkpoint -> crash ->
// restore, and serve queries — asserting (a) the
// truncated production path's subspace-angle error against the exact
// reference stays inside documented bounds, and (b) everything touching
// the exact engine is invariant / consistent at oracle (1e-10..1e-12)
// tolerances.  Bounds are generous by design: they document the regime,
// they do not chase the noise floor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "app/pipeline.h"
#include "linalg/principal_angles.h"
#include "pca/exact_ipca.h"
#include "pca/incremental_pca.h"
#include "pca/merge.h"
#include "pca/robust_pca.h"
#include "serve/snapshot_server.h"
#include "stats/rng.h"
#include "stream/fault.h"
#include "tests/pca/test_data.h"

namespace astro {
namespace {

using linalg::Matrix;
using linalg::Vector;
using pca::EigenSystem;
using pca::ExactIpca;
using pca::ExactIpcaConfig;
using pca::PcaMode;
using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

// Documented truncated-vs-exact bounds for the graded low-rank regime the
// suite streams (top_scale 3, noise 0.02, a few hundred tuples): the
// truncated engines track the exact top-p subspace to well under these.
constexpr double kStreamingAngleBound = 0.15;   // rad, classic + robust
constexpr double kMergeAngleBound = 0.20;       // rad, two-engine truncated

Matrix top_block(const EigenSystem& s, std::size_t p) {
  Matrix out(s.dim(), p);
  for (std::size_t c = 0; c < p; ++c) {
    for (std::size_t r = 0; r < s.dim(); ++r) out(r, c) = s.basis()(r, c);
  }
  return out;
}

class SystemOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

// --- observe / observe_batch against the exact reference ----------------

TEST_P(SystemOracleTest, StreamingEnginesTrackExactReference) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kDim = 30, kRank = 4, kTotal = 500;

  Rng rng(seed * 3 + 17);
  const auto model = make_model(rng, kDim, kRank, 3.0, 0.02);
  std::vector<Vector> stream;
  for (std::size_t i = 0; i < kTotal; ++i) stream.push_back(draw(model, rng));

  ExactIpcaConfig ecfg;
  ecfg.dim = kDim;
  ecfg.rank = kRank;
  ExactIpca exact(ecfg);
  for (const auto& x : stream) exact.observe(x);
  const Matrix exact_top = top_block(exact.eigensystem(), kRank);

  // Classic truncated, sequential.
  pca::IncrementalPcaConfig ccfg;
  ccfg.dim = kDim;
  ccfg.rank = kRank;
  pca::IncrementalPca classic(ccfg);
  for (const auto& x : stream) classic.observe(x);
  const double classic_angle = linalg::max_principal_angle_radians(
      top_block(classic.eigensystem(), kRank), exact_top);
  EXPECT_LE(classic_angle, kStreamingAngleBound) << "seed " << seed;

  // Robust truncated, sequential.
  pca::RobustPcaConfig rcfg;
  rcfg.dim = kDim;
  rcfg.rank = kRank;
  pca::RobustIncrementalPca robust(rcfg);
  for (const auto& x : stream) robust.observe(x);
  const double robust_angle = linalg::max_principal_angle_radians(
      top_block(robust.eigensystem(), kRank), exact_top);
  EXPECT_LE(robust_angle, kStreamingAngleBound) << "seed " << seed;

  // Robust truncated, micro-batched (b = 8): batching must not leave the
  // documented envelope either.
  pca::RobustIncrementalPca batched(rcfg);
  std::vector<const Vector*> ptrs;
  std::vector<pca::ObservationReport> reports(8);
  std::size_t i = 0;
  while (i < kTotal) {
    const std::size_t take = std::min<std::size_t>(8, kTotal - i);
    ptrs.clear();
    for (std::size_t k = 0; k < take; ++k) ptrs.push_back(&stream[i + k]);
    batched.observe_batch(ptrs.data(), take, reports.data());
    i += take;
  }
  const double batched_angle = linalg::max_principal_angle_radians(
      top_block(batched.eigensystem(), kRank), exact_top);
  EXPECT_LE(batched_angle, kStreamingAngleBound) << "seed " << seed;

  // The truncated engines also reproduce the exact top eigenvalues to a
  // loose multiplicative factor (the truncation discards tail energy).
  const Vector& el = exact.eigensystem().eigenvalues();
  for (std::size_t k = 0; k < kRank; ++k) {
    EXPECT_NEAR(classic.eigensystem().eigenvalues()[k], el[k],
                0.35 * std::max(1.0, el[k]))
        << "seed " << seed << " lambda " << k;
  }
}

// --- two-engine merge ----------------------------------------------------

TEST_P(SystemOracleTest, TwoEngineExactMergeEqualsSingleExactEngine) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kDim = 16, kRank = 4, kTotal = 300;

  Rng rng(seed * 7 + 41);
  const auto model = make_model(rng, kDim, kRank, 2.5, 0.05);
  std::vector<Vector> stream;
  for (std::size_t i = 0; i < kTotal; ++i) stream.push_back(draw(model, rng));

  // At alpha = 1 the exact state is order-independent, so the rank-d merge
  // of two disjoint exact partitions must equal one exact engine over the
  // whole stream — at oracle tolerance, through the eq. (15) pooling.
  ExactIpcaConfig ecfg;
  ecfg.dim = kDim;
  ecfg.rank = kRank;
  ExactIpca left(ecfg), right(ecfg), whole(ecfg);
  for (std::size_t i = 0; i < kTotal; ++i) {
    (i % 2 == 0 ? left : right).observe(stream[i]);
    whole.observe(stream[i]);
  }

  const EigenSystem merged =
      pca::merge(left.eigensystem(), right.eigensystem());
  ASSERT_EQ(merged.rank(), kDim);
  EXPECT_EQ(merged.observations(), kTotal);

  const EigenSystem& ref = whole.eigensystem();
  for (std::size_t r = 0; r < kDim; ++r) {
    EXPECT_NEAR(merged.mean()[r], ref.mean()[r], 1e-10) << "seed " << seed;
  }
  for (std::size_t k = 0; k < kDim; ++k) {
    EXPECT_NEAR(merged.eigenvalues()[k], ref.eigenvalues()[k],
                1e-10 * std::max(1.0, ref.eigenvalues()[k]))
        << "seed " << seed << " lambda " << k;
  }
  // Subspace agreement of the informative block.  acos resolves ~1e-8 at
  // best (see linalg/principal_angles.h), so the bound is 1e-7, not 1e-10.
  EXPECT_LE(linalg::max_principal_angle_radians(top_block(merged, kRank),
                                                top_block(ref, kRank)),
            1e-7)
      << "seed " << seed;

  // The truncated pair merged at rank p stays inside the documented
  // envelope of the same reference.
  pca::RobustPcaConfig rcfg;
  rcfg.dim = kDim;
  rcfg.rank = kRank;
  pca::RobustIncrementalPca tleft(rcfg), tright(rcfg);
  for (std::size_t i = 0; i < kTotal; ++i) {
    (i % 2 == 0 ? tleft : tright).observe(stream[i]);
  }
  const EigenSystem tmerged =
      pca::merge(tleft.eigensystem(), tright.eigensystem());
  EXPECT_LE(linalg::max_principal_angle_radians(top_block(tmerged, kRank),
                                                top_block(ref, kRank)),
            kMergeAngleBound)
      << "seed " << seed;
}

// --- serve queries -------------------------------------------------------

TEST_P(SystemOracleTest, ServeAnswersMatchExactReferenceWithinBounds) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kDim = 20, kRank = 3, kTotal = 400;

  Rng rng(seed * 11 + 53);
  const auto model = make_model(rng, kDim, kRank, 3.0, 0.02);
  std::vector<Vector> stream;
  for (std::size_t i = 0; i < kTotal; ++i) stream.push_back(draw(model, rng));

  pca::RobustPcaConfig base;
  base.dim = kDim;
  base.rank = kRank;

  pca::RobustPcaConfig exact_cfg = base;
  exact_cfg.mode = PcaMode::kExact;
  pca::RobustIncrementalPca exact(exact_cfg);
  pca::RobustIncrementalPca truncated(base);
  for (const auto& x : stream) {
    exact.observe(x);
    truncated.observe(x);
  }

  // Publish both serve views side by side; the truncated server's
  // residual subspace must agree with the exact server's within the
  // streaming envelope, and the exact server's answers must match direct
  // computation from its serve view at reader tolerance.
  serve::SnapshotServer exact_server, truncated_server;
  const EigenSystem exact_view = exact.serve_system();
  ASSERT_EQ(exact_view.rank(), kRank);  // rank-p view, not the rank-d emit
  exact_server.publish(exact_view, 0, 1);
  truncated_server.publish(truncated.serve_system(), 0, 1);

  serve::QueryWorkspace ws;
  for (std::size_t probe = 0; probe < 16; ++probe) {
    const Vector x = draw(model, rng);

    serve::ProjectionResult pe, pt;
    ASSERT_EQ(exact_server.project(x, ws, pe), serve::QueryStatus::kOk);
    ASSERT_EQ(truncated_server.project(x, ws, pt), serve::QueryStatus::kOk);
    const Vector direct = exact_view.project(x);
    for (std::size_t k = 0; k < kRank; ++k) {
      ASSERT_NEAR(pe.coefficients[k], direct[k], 1e-12);
    }
    // Same subspace within the envelope => same captured energy within a
    // matching tolerance (coefficients themselves are basis-convention
    // dependent; energy is not).
    double ee = 0.0, et = 0.0;
    for (std::size_t k = 0; k < kRank; ++k) {
      ee += pe.coefficients[k] * pe.coefficients[k];
      et += pt.coefficients[k] * pt.coefficients[k];
    }
    EXPECT_NEAR(ee, et, 0.12 * std::max(1.0, ee)) << "seed " << seed;

    serve::ResidualResult re, rt;
    ASSERT_EQ(exact_server.residual_score(x, ws, re),
              serve::QueryStatus::kOk);
    ASSERT_EQ(truncated_server.residual_score(x, ws, rt),
              serve::QueryStatus::kOk);
    ASSERT_NEAR(re.squared_residual, exact_view.squared_residual(x),
                1e-10 * (1.0 + re.squared_residual));
    EXPECT_NEAR(rt.squared_residual, re.squared_residual,
                0.25 * std::max(0.05, re.squared_residual))
        << "seed " << seed;
  }

  std::shared_ptr<const serve::TopKResult> topk;
  ASSERT_EQ(exact_server.top_k_components(kRank, topk),
            serve::QueryStatus::kOk);
  for (std::size_t k = 0; k < kRank; ++k) {
    ASSERT_NEAR(topk->eigenvalues[k], exact_view.eigenvalues()[k], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, SystemOracleTest,
                         ::testing::Range(std::uint64_t(1), std::uint64_t(21)));

// --- pipeline checkpoint -> crash -> restore (exact mode) ---------------

class PipelineOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineOracleTest, ExactModeInvariantToEngineCrashAndRestore) {
  const std::uint64_t seed = GetParam();
  constexpr std::size_t kDim = 12, kRank = 3, kTotal = 480;

  Rng rng(seed * 13 + 71);
  const auto model = make_model(rng, kDim, kRank, 2.5, 0.05);
  std::vector<Vector> data;
  for (std::size_t i = 0; i < kTotal; ++i) data.push_back(draw(model, rng));

  app::PipelineConfig cfg;
  cfg.pca.dim = kDim;
  cfg.pca.rank = kRank;
  cfg.pca.alpha = 1.0;
  cfg.pca.mode = PcaMode::kExact;
  cfg.engines = 2;
  // Deterministic partitioning and no timing-dependent state exchange:
  // the no-fault and fault runs then absorb identical per-engine streams,
  // so the final pooled results must agree at oracle tolerance — the
  // checkpoint+WAL restore is the only thing the fault run adds.
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  cfg.batch_max = 4;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;

  app::StreamingPcaPipeline clean(cfg, data);
  clean.run();
  const EigenSystem clean_result = clean.result();

  auto schedule = std::make_shared<stream::FaultInjector>();
  schedule->kill_engine(0, 150);  // mid-stream, past several checkpoints
  cfg.fault_injector = schedule;
  app::StreamingPcaPipeline faulted(cfg, data);
  faulted.run();
  const EigenSystem faulted_result = faulted.result();

  ASSERT_EQ(clean_result.observations(), faulted_result.observations());
  for (std::size_t r = 0; r < kDim; ++r) {
    EXPECT_NEAR(clean_result.mean()[r], faulted_result.mean()[r], 1e-10)
        << "seed " << seed;
  }
  for (std::size_t k = 0; k < kRank; ++k) {
    EXPECT_NEAR(clean_result.eigenvalues()[k], faulted_result.eigenvalues()[k],
                1e-10 * std::max(1.0, clean_result.eigenvalues()[k]))
        << "seed " << seed << " lambda " << k;
  }
  EXPECT_LE(linalg::max_principal_angle_radians(
                top_block(clean_result, kRank),
                top_block(faulted_result, kRank)),
            1e-7)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineOracleTest,
                         ::testing::Values(std::uint64_t(1), std::uint64_t(2),
                                           std::uint64_t(3)));

}  // namespace
}  // namespace astro
