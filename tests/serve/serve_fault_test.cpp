// Fault-path drill for the serving layer: an engine is killed mid-stream
// (FaultInjector, virtual tuple-count trigger) while readers query the
// live pipeline.  Readers must keep getting answers from the last good
// version the whole time, the version counter must never regress across
// the Supervisor's checkpoint restore, and a publish round that finds no
// eligible engine must be suppressed (counted), not served.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "serve/snapshot_server.h"
#include "stats/rng.h"
#include "stream/fault.h"
#include "tests/pca/test_data.h"

namespace astro::serve {
namespace {

using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

TEST(ServeFault, ReadersKeepServingAcrossEngineKillAndRestore) {
  constexpr std::size_t kDim = 12;
  Rng rng(911);
  const auto model = make_model(rng, kDim, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (int i = 0; i < 6000; ++i) data.push_back(draw(model, rng));

  auto injector = std::make_shared<stream::FaultInjector>(911);
  injector->kill_engine(0, 800);  // mid-run, well after first publishes

  app::PipelineConfig cfg;
  cfg.pca.dim = kDim;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 0.0;
  cfg.source_rate = 8000.0;  // ~0.75 s run
  cfg.fault_injector = injector;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 128;
  cfg.serve.enabled = true;
  cfg.serve.publish_interval_seconds = 0.01;
  app::StreamingPcaPipeline pipeline(cfg, data);
  SnapshotServer* server = pipeline.serve_server();
  ASSERT_NE(server, nullptr);

  // A reader thread hammering the live pipeline throughout the kill and
  // the restore.  Failures are collected and reported after the join.
  std::atomic<bool> stop{false};
  std::vector<std::string> failures;
  std::uint64_t reader_ok = 0;
  std::thread reader([&] {
    QueryWorkspace ws;
    ProjectionResult proj;
    ResidualResult res;
    std::uint64_t last_version = 0;
    linalg::Vector probe = data[0];
    while (!stop.load(std::memory_order_acquire)) {
      const QueryStatus ps = server->project(probe, ws, proj);
      if (ps == QueryStatus::kOk) {
        ++reader_ok;
        if (proj.version < last_version) {
          failures.push_back("version regressed: " +
                             std::to_string(proj.version) + " < " +
                             std::to_string(last_version));
          break;
        }
        last_version = proj.version;
        if (proj.coefficients.size() != 2) {
          failures.push_back("torn coefficients");
          break;
        }
      } else if (ps != QueryStatus::kNoVersion) {
        failures.push_back("unexpected status");
        break;
      }
      const QueryStatus rs = server->residual_score(probe, ws, res);
      if (rs == QueryStatus::kOk) {
        ++reader_ok;
        if (res.version < last_version) {
          failures.push_back("residual version regressed");
          break;
        }
        last_version = res.version;
      }
      std::this_thread::yield();
    }
  });

  pipeline.run();
  stop.store(true, std::memory_order_release);
  reader.join();

  for (const auto& f : failures) ADD_FAILURE() << f;
  // The kill actually fired, and the supervisor actually restored.
  EXPECT_GE(injector->injected(stream::Fault::kKill), 1u);
  ASSERT_NE(pipeline.supervisor(), nullptr);
  EXPECT_GE(pipeline.supervisor()->total_restarts(), 1u);
  // The serving layer kept publishing through it all.
  EXPECT_GT(server->version(), 0u);
  EXPECT_GT(reader_ok, 0u);
  // Post-mortem service: the final version answers exactly.
  QueryWorkspace ws;
  ProjectionResult proj;
  EXPECT_EQ(server->project(data[0], ws, proj), QueryStatus::kOk);
  EXPECT_EQ(proj.version, server->version());
}

TEST(ServeFault, AllEnginesGatedSuppressesPublishInsteadOfServingPoison) {
  // Directly exercise the writer's gating path: a publisher round where no
  // engine is eligible must keep the old version and count the skip.
  constexpr std::size_t kDim = 8;
  Rng rng(913);
  const auto model = make_model(rng, kDim, 2, 2.0, 0.05);
  pca::RobustPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = 2;
  pca::RobustIncrementalPca engine(cfg);
  for (int i = 0; i < 200; ++i) engine.observe(draw(model, rng));

  SnapshotServer server;
  server.publish(engine.eigensystem(), 0, 1);
  const std::uint64_t before = server.version();

  // The writer-side contract SnapshotPublisher::publish_to_server obeys:
  // a round with zero eligible engines calls note_publish_suppressed().
  server.note_publish_suppressed();
  server.note_publish_suppressed();
  EXPECT_EQ(server.version(), before);  // readers keep the last good version
  EXPECT_EQ(server.publishes_suppressed(), 2u);
  QueryWorkspace ws;
  ProjectionResult proj;
  linalg::Vector probe(kDim);
  EXPECT_EQ(server.project(probe, ws, proj), QueryStatus::kOk);
  EXPECT_EQ(proj.version, before);
}

TEST(ServeFault, OverloadRejectsImmediatelyWhileWriterPublishes) {
  // Budget exhausted + writer swapping at full rate: rejection must stay
  // immediate (no blocking on the writer), and service must resume the
  // moment a slot frees.
  SnapshotServer* raw = nullptr;
  ServeConfig cfg;
  cfg.max_in_flight = 1;
  SnapshotServer server(cfg);
  raw = &server;

  pca::EigenSystem sys(8, 2, 1.0);
  for (std::size_t i = 0; i < 2; ++i) sys.mutable_basis()(i, i) = 1.0;
  sys.set_observations(10);
  server.publish(sys, 0, 1);

  ASSERT_TRUE(server.admission().try_acquire());  // squat the only slot

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t t = 2;
    while (!stop.load(std::memory_order_acquire)) {
      pca::EigenSystem s(8, 2, 1.0);
      for (std::size_t i = 0; i < 2; ++i) s.mutable_basis()(i, i) = 1.0;
      s.set_observations(t);
      raw->publish(std::move(s), 0, std::int64_t(t++));
    }
  });

  QueryWorkspace ws;
  ProjectionResult proj;
  linalg::Vector probe(8);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(server.project(probe, ws, proj), QueryStatus::kOverloaded);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_GE(server.rejected(), 100u);

  server.admission().release();
  EXPECT_EQ(server.project(probe, ws, proj), QueryStatus::kOk);
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(server.admission().in_flight(), 0u);
}

}  // namespace
}  // namespace astro::serve
