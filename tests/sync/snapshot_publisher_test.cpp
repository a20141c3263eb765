#include "sync/snapshot_publisher.h"

#include <gtest/gtest.h>

#include <set>

#include "app/pipeline.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::sync {
namespace {

using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

TEST(SnapshotPublisher, PipelineEmitsInFlightResults) {
  Rng rng(821);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 4000; ++i) data.push_back(draw(model, rng));

  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 3;
  cfg.sync_rate_hz = 0.0;
  cfg.source_rate = 8000.0;               // ~0.5 s run
  cfg.snapshot_interval_seconds = 0.05;   // ~10 rounds
  app::StreamingPcaPipeline pipeline(cfg, data);
  pipeline.run();

  const auto snaps = pipeline.snapshots();
  ASSERT_GT(snaps.size(), 5u);
  // Snapshots carry sane, monotone-by-engine observation counts.
  std::uint64_t last_obs_engine0 = 0;
  for (const auto& s : snaps) {
    EXPECT_GE(s.engine, 0);
    EXPECT_LT(s.engine, 3);
    EXPECT_EQ(s.eigenvalues.size(), 2u);
    EXPECT_GE(s.eigenvalues[0], s.eigenvalues[1]);
    EXPECT_GT(s.sigma2, 0.0);
    if (s.engine == 0) {
      EXPECT_GE(s.observations, last_obs_engine0);
      last_obs_engine0 = s.observations;
    }
  }
  // Every engine appears in the feed (all three are live the whole run).
  std::set<int> engines_seen;
  for (const auto& s : snaps) engines_seen.insert(s.engine);
  EXPECT_EQ(engines_seen.size(), 3u);
  // Retained variance is a live, finite estimate throughout.
  for (const auto& s : snaps) {
    EXPECT_TRUE(std::isfinite(s.retained_variance));
    EXPECT_GT(s.retained_variance, 0.0);
  }
}

TEST(SnapshotPublisher, DisabledByDefault) {
  Rng rng(823);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 500; ++i) data.push_back(draw(model, rng));
  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.source_rate = 5000.0;  // ~0.1 s run: several publish rounds
  cfg.serve.publish_interval_seconds = 0.01;
  for (const bool serve : {false, true}) {
    // Serving alone runs the publisher as the writer, but builds no feed.
    cfg.serve.enabled = serve;
    app::StreamingPcaPipeline pipeline(cfg, data);
    pipeline.run();
    EXPECT_TRUE(pipeline.snapshots().empty()) << "serve " << serve;
  }
}

TEST(SnapshotPublisher, StopsPromptlyWithPipeline) {
  // A short run with a long snapshot interval: shutdown must not wait for
  // the next snapshot tick.
  Rng rng(827);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 200; ++i) data.push_back(draw(model, rng));
  app::PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.snapshot_interval_seconds = 30.0;  // would be a 30 s stall if waited
  app::StreamingPcaPipeline pipeline(cfg, data);
  const auto start = std::chrono::steady_clock::now();
  pipeline.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace astro::sync
