// Oracle property suite: for 20 seeds, every answer the serving API gives
// must match the direct EigenSystem computation to 1e-12 — the served
// version is the *same mathematical object* as the engine state it froze,
// across robust engines digesting outliers, forgetting-engine rolls, and a
// checkpoint-encode/decode reincarnation of the server.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "pca/robust_pca.h"
#include "serve/snapshot_server.h"
#include "stats/rng.h"
#include "sync/checkpoint_store.h"
#include "tests/pca/test_data.h"

namespace astro::serve {
namespace {

using pca::testing::draw;
using pca::testing::draw_outlier;
using pca::testing::make_model;
using stats::Rng;

constexpr double kTol = 1e-12;

/// Asserts that every serving API answers exactly what `oracle` computes
/// directly, for a batch of probe points.
void expect_serves_exactly(SnapshotServer& server,
                           const pca::EigenSystem& oracle,
                           const std::vector<linalg::Vector>& probes,
                           std::uint64_t expect_version) {
  QueryWorkspace ws;
  ProjectionResult proj;
  ResidualResult res;
  for (const auto& x : probes) {
    ASSERT_EQ(server.project(x, ws, proj), QueryStatus::kOk);
    ASSERT_EQ(proj.version, expect_version);
    ASSERT_EQ(proj.observations, oracle.observations());
    const linalg::Vector direct = oracle.project(x);
    ASSERT_EQ(proj.coefficients.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(proj.coefficients[i], direct[i], kTol);
    }

    ASSERT_EQ(server.residual_score(x, ws, res), QueryStatus::kOk);
    ASSERT_EQ(res.version, expect_version);
    const double direct_r2 = oracle.squared_residual(x);
    ASSERT_NEAR(res.squared_residual, direct_r2, kTol * (1.0 + direct_r2));
    ASSERT_NEAR(res.sigma2, oracle.sigma2(), kTol);
    if (oracle.sigma2() > 0.0) {
      ASSERT_NEAR(res.score, direct_r2 / oracle.sigma2(),
                  kTol * (1.0 + res.score));
    }
  }

  std::shared_ptr<const TopKResult> topk;
  for (std::size_t k = 1; k <= oracle.rank(); ++k) {
    ASSERT_EQ(server.top_k_components(k, topk), QueryStatus::kOk);
    ASSERT_EQ(topk->version, expect_version);
    ASSERT_EQ(topk->observations, oracle.observations());
    ASSERT_EQ(topk->eigenvalues.size(), k);
    ASSERT_EQ(topk->components.rows(), oracle.dim());
    ASSERT_EQ(topk->components.cols(), k);
    double retained = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_NEAR(topk->eigenvalues[i], oracle.eigenvalues()[i], kTol);
      retained += oracle.eigenvalues()[i];
      for (std::size_t r = 0; r < oracle.dim(); ++r) {
        ASSERT_NEAR(topk->components(r, i), oracle.basis()(r, i), kTol);
      }
    }
    ASSERT_NEAR(topk->retained_variance, retained, kTol * (1.0 + retained));
    ASSERT_NEAR(topk->sigma2, oracle.sigma2(), kTol);
  }
}

TEST(ServeOracle, RobustEngineWithOutliersTwentySeeds) {
  constexpr std::size_t kDim = 12;
  constexpr std::size_t kRank = 3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto model = make_model(rng, kDim, kRank, 2.5, 0.05);
    pca::RobustPcaConfig cfg;
    cfg.dim = kDim;
    cfg.rank = kRank;
    pca::RobustIncrementalPca engine(cfg);
    // 5% gross contamination after warm-up: the robust weights must not
    // perturb serving exactness (we serve whatever state the engine has).
    for (int i = 0; i < 400; ++i) {
      if (i > 100 && i % 20 == 0) {
        engine.observe(draw_outlier(model, rng));
      } else {
        engine.observe(draw(model, rng));
      }
    }
    ASSERT_TRUE(engine.initialized());

    SnapshotServer server;
    const pca::EigenSystem oracle = engine.eigensystem();
    const std::uint64_t v = server.publish(oracle, 0, std::int64_t(seed));
    ASSERT_EQ(v, 1u);

    std::vector<linalg::Vector> probes;
    for (int i = 0; i < 8; ++i) probes.push_back(draw(model, rng));
    probes.push_back(draw_outlier(model, rng));  // anomalies served too
    expect_serves_exactly(server, oracle, probes, 1);
  }
}

TEST(ServeOracle, WindowRollsRepublishExactly) {
  // A forgetting engine (alpha = 1 - 1/256, a 256-tuple effective window)
  // whose state keeps rolling mid-stream: after each republish the server
  // must answer for exactly the current state, with the version advancing
  // once per publish.
  constexpr std::size_t kDim = 10;
  for (std::uint64_t seed = 101; seed <= 105; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto model = make_model(rng, kDim, 2, 2.0, 0.05);
    pca::RobustPcaConfig cfg;
    cfg.dim = kDim;
    cfg.rank = 2;
    cfg.alpha = 1.0 - 1.0 / 256.0;
    pca::RobustIncrementalPca engine(cfg);

    SnapshotServer server;
    std::uint64_t expect_version = 0;
    // 3 * window tuples: the old data is forgotten several times over;
    // republish every 32 tuples once the estimate exists.
    for (int i = 0; i < 768; ++i) {
      engine.observe(draw(model, rng));
      if (i % 32 != 31) continue;
      if (!engine.initialized()) continue;
      const pca::EigenSystem est = engine.eigensystem();
      const std::uint64_t v = server.publish(est, 0, std::int64_t(i));
      ASSERT_EQ(v, ++expect_version);
      std::vector<linalg::Vector> probes;
      for (int p = 0; p < 3; ++p) probes.push_back(draw(model, rng));
      expect_serves_exactly(server, est, probes, expect_version);
    }
    ASSERT_GT(expect_version, 10u);  // the roll actually exercised publishes
  }
}

TEST(ServeOracle, CheckpointReincarnationServesDecodedStateExactly) {
  // Kill-and-restore drill for the read side: the eigensystem goes through
  // the ASPC checkpoint codec (the same bytes a crash recovery replays),
  // and the reincarnated publish must serve the decoded state exactly —
  // with the version counter strictly advancing across the reincarnation.
  constexpr std::size_t kDim = 12;
  for (std::uint64_t seed = 201; seed <= 205; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto model = make_model(rng, kDim, 3, 2.0, 0.05);
    pca::RobustPcaConfig cfg;
    cfg.dim = kDim;
    cfg.rank = 3;
    pca::RobustIncrementalPca engine(cfg);
    for (int i = 0; i < 300; ++i) engine.observe(draw(model, rng));

    SnapshotServer server;
    const pca::EigenSystem live = engine.eigensystem();
    server.publish(live, 0, 1);

    const std::string blob = sync::CheckpointStore::encode(live, cfg.alpha);
    const pca::EigenSystem revived = sync::CheckpointStore::decode(blob);
    const std::uint64_t v2 = server.publish(revived, 0, 2);
    ASSERT_EQ(v2, 2u);
    ASSERT_EQ(server.version(), 2u);

    std::vector<linalg::Vector> probes;
    for (int p = 0; p < 6; ++p) probes.push_back(draw(model, rng));
    expect_serves_exactly(server, revived, probes, 2);
    // And the codec did not drift the state the readers see.
    ASSERT_EQ(revived.observations(), live.observations());
    QueryWorkspace ws;
    ResidualResult res;
    ASSERT_EQ(server.residual_score(probes[0], ws, res), QueryStatus::kOk);
    ASSERT_NEAR(res.squared_residual, live.squared_residual(probes[0]),
                1e-9 * (1.0 + res.squared_residual));
  }
}

}  // namespace
}  // namespace astro::serve
