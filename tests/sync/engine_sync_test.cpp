// Integration tests: PCA engines + state exchange + controller, wired
// through the full pipeline.

#include <gtest/gtest.h>

#include "app/pipeline.h"
#include "pca/health.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "sync/exchange.h"
#include "tests/pca/test_data.h"

namespace astro::sync {
namespace {

using app::PipelineConfig;
using app::StreamingPcaPipeline;
using pca::testing::draw;
using pca::testing::draw_outlier;
using pca::testing::make_model;
using stats::Rng;

PipelineConfig small_config(std::size_t engines, std::size_t d = 16,
                            std::size_t p = 2) {
  PipelineConfig cfg;
  cfg.pca.dim = d;
  cfg.pca.rank = p;
  cfg.pca.alpha = 1.0 - 1.0 / 500.0;
  cfg.pca.init_count = 20;
  cfg.engines = engines;
  cfg.sync_rate_hz = 200.0;  // fast sync so short tests see merges
  cfg.independence_fallback = 100;
  return cfg;
}

TEST(StateExchange, PublishFetchRoundTrip) {
  StateExchange x(3);
  EXPECT_FALSE(x.fetch(1).has_value());
  pca::EigenSystem s(4, 2);
  s.count_observation();
  x.publish(1, s, 7);
  const auto got = x.fetch(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 7u);
  EXPECT_EQ(got->system->dim(), 4u);
  EXPECT_EQ(got->observations, 1u);
}

TEST(StateExchange, OutOfRangeThrows) {
  StateExchange x(2);
  EXPECT_THROW(x.publish(5, pca::EigenSystem(2, 1), 0), std::out_of_range);
  EXPECT_THROW((void)x.fetch(9), std::out_of_range);
}

TEST(Pipeline, ZeroEnginesThrows) {
  auto cfg = small_config(1);
  cfg.engines = 0;
  EXPECT_THROW(StreamingPcaPipeline(cfg, std::vector<linalg::Vector>{}),
               std::invalid_argument);
}

TEST(Pipeline, SingleEngineMatchesDirectUse) {
  Rng rng(301);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 1500; ++i) data.push_back(draw(model, rng));

  auto cfg = small_config(1);
  cfg.sync_rate_hz = 0.0;  // no sync with one engine
  StreamingPcaPipeline pipeline(cfg, data);
  pipeline.run();

  const pca::EigenSystem result = pipeline.result();
  EXPECT_EQ(result.observations(), 1500u);
  EXPECT_GT(pca::subspace_affinity(result.basis(), model.basis), 0.99);
}

TEST(Pipeline, ParallelEnginesAllInitialized) {
  Rng rng(303);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 4000; ++i) data.push_back(draw(model, rng));

  StreamingPcaPipeline pipeline(small_config(4), data);
  pipeline.run();

  const auto stats = pipeline.engine_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& s : stats) {
    EXPECT_GT(s.tuples, 0u);
    total += s.tuples;
  }
  // init_count observations per engine are buffered before updates count,
  // but every tuple is routed somewhere.
  const auto split_counts = pipeline.split_counts();
  std::uint64_t routed = 0;
  for (auto c : split_counts) routed += c;
  EXPECT_EQ(routed, 4000u);
  EXPECT_EQ(total, 4000u);
}

TEST(Pipeline, ParallelResultRecoversSubspace) {
  Rng rng(307);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 6000; ++i) data.push_back(draw(model, rng));

  StreamingPcaPipeline pipeline(small_config(4), data);
  pipeline.run();
  const pca::EigenSystem result = pipeline.result();
  EXPECT_GT(pca::subspace_affinity(result.basis(), model.basis), 0.99);
}

TEST(Pipeline, SynchronizationActuallyHappens) {
  Rng rng(311);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 8000; ++i) data.push_back(draw(model, rng));

  auto cfg = small_config(3);
  cfg.source_rate = 40000.0;  // stretch the run so sync rounds fire
  StreamingPcaPipeline pipeline(cfg, data);
  pipeline.run();

  const auto stats = pipeline.engine_stats();
  std::uint64_t published = 0, merged = 0;
  for (const auto& s : stats) {
    published += s.syncs_sent;
    merged += s.merges_applied;
  }
  EXPECT_GT(published, 0u);
  EXPECT_GT(merged, 0u);
}

TEST(Pipeline, SyncMakesEnginesConsistent) {
  // With sync on, engines' subspaces should agree closely at the end;
  // without sync they still converge here (same distribution) but merges
  // must be zero.
  Rng rng(313);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 8000; ++i) data.push_back(draw(model, rng));

  auto cfg_nosync = small_config(3);
  cfg_nosync.sync_rate_hz = 0.0;
  StreamingPcaPipeline no_sync(cfg_nosync, data);
  no_sync.run();
  for (const auto& s : no_sync.engine_stats()) {
    EXPECT_EQ(s.merges_applied, 0u);
    EXPECT_EQ(s.syncs_sent, 0u);
  }

  auto cfg_sync = small_config(3);
  cfg_sync.source_rate = 40000.0;
  StreamingPcaPipeline with_sync(cfg_sync, data);
  with_sync.run();
  // Pairwise subspace affinity between engines.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      const double aff = pca::subspace_affinity(
          with_sync.engine_snapshot(i).basis(),
          with_sync.engine_snapshot(j).basis());
      EXPECT_GT(aff, 0.98) << "engines " << i << "," << j;
    }
  }
}

TEST(Pipeline, IndependenceGateSkipsTooFrequentMerges) {
  Rng rng(317);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 3000; ++i) data.push_back(draw(model, rng));

  auto cfg = small_config(2);
  cfg.pca.alpha = 1.0 - 1.0 / 2000.0;  // N=2000 -> gate at 3000: few merges
  cfg.source_rate = 30000.0;
  StreamingPcaPipeline pipeline(cfg, data);
  pipeline.run();
  std::uint64_t skipped = 0, applied = 0;
  for (const auto& s : pipeline.engine_stats()) {
    skipped += s.merges_skipped;
    applied += s.merges_applied;
  }
  // With ~1500 tuples per engine and a 3000-observation gate, merges are
  // blocked; the controller keeps asking, so skips accumulate.
  EXPECT_EQ(applied, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(Pipeline, OutlierStreamCollectsRejects) {
  Rng rng(319);
  const auto model = make_model(rng, 16, 2, 3.0, 0.01);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 3000; ++i) data.push_back(draw(model, rng));
  // 30 planted outliers after warmup.
  for (int i = 0; i < 30; ++i) data.push_back(draw_outlier(model, rng, 60.0));

  auto cfg = small_config(2);
  cfg.collect_outliers = true;
  StreamingPcaPipeline pipeline(cfg, data);
  pipeline.run();
  const auto outliers = pipeline.outliers();
  // Most planted outliers end up flagged; clean tuples rarely are.
  EXPECT_GE(outliers.size(), 20u);
  EXPECT_LE(outliers.size(), 200u);
  // Outliers carry their original sequence numbers (>= 3000 for planted).
  std::size_t planted = 0;
  for (const auto& t : outliers) {
    if (t.seq >= 3000) ++planted;
  }
  EXPECT_GE(planted, 20u);
}

TEST(Pipeline, StopEndsEndlessGenerator) {
  Rng rng(323);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  auto shared_rng = std::make_shared<Rng>(rng.split());
  auto model_copy = model;

  auto cfg = small_config(2);
  StreamingPcaPipeline pipeline(
      cfg, [model_copy, shared_rng]() -> std::optional<linalg::Vector> {
        return draw(model_copy, *shared_rng);
      });
  pipeline.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pipeline.stop();
  pipeline.wait();
  const auto stats = pipeline.engine_stats();
  std::uint64_t total = 0;
  for (const auto& s : stats) total += s.tuples;
  EXPECT_GT(total, 0u);
}

TEST(Pipeline, LiveMergesKeepLocalWeightSumsAtAlphaOne) {
  // At alpha = 1 nothing decays the (u, v, q) weight sums.  A live merge
  // that kept the pooled sums would add the peer's sums — which already
  // hold this engine's — on every round, so they would grow geometrically
  // and overflow to inf within a thousand merges.  Kept local, u counts
  // this engine's own updates.
  Rng rng(331);
  const auto model = make_model(rng, 16, 2, 3.0, 0.02);
  auto shared_rng = std::make_shared<Rng>(rng.split());
  auto cfg = small_config(2);
  cfg.pca.alpha = 1.0;
  cfg.sync_rate_hz = 5000.0;
  cfg.independence_fallback = 10;
  StreamingPcaPipeline pipeline(
      cfg, [model, shared_rng]() -> std::optional<linalg::Vector> {
        return draw(model, *shared_rng);
      });
  const auto merges = [&pipeline] {
    std::uint64_t n = 0;
    for (const auto& s : pipeline.engine_stats()) n += s.merges_applied;
    return n;
  };
  constexpr std::uint64_t kMerges = 1100;
  pipeline.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (merges() < kMerges && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pipeline.stop();
  pipeline.wait();

  ASSERT_GE(merges(), kMerges);
  std::uint64_t applied = 0;
  for (const auto& s : pipeline.engine_stats()) applied += s.tuples;
  for (std::size_t i = 0; i < pipeline.engines(); ++i) {
    const pca::EigenSystem e = pipeline.engine_snapshot(i);
    EXPECT_LE(e.sums().u(), double(applied)) << i;
    EXPECT_TRUE(pca::all_finite(e)) << i;
  }
  EXPECT_TRUE(pca::all_finite(pipeline.result()));
}

}  // namespace
}  // namespace astro::sync
