// Micro-batching under faults (DESIGN.md "Micro-batching"): the engine
// WAL-logs a whole drained batch BEFORE applying any of it, and the kill
// chunking stops the apply loop exactly at the scheduled tuple — so a crash
// mid-batch loses nothing: recovery replays the logged tail per tuple and
// the stream completes with exactly the clean run's per-engine counts.
// Also: the deterministic deep-queue scenario where the backpressure
// controller must actually amortize, and the registry export of the
// batch-size distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "app/pipeline.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "stream/graph.h"
#include "sync/exchange.h"
#include "sync/pca_engine_op.h"
#include "tests/pca/test_data.h"
#include "tests/stream/json_mini.h"

namespace astro::app {
namespace {

using astro::testing::JsonParser;
using astro::testing::JsonValue;
using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

std::vector<linalg::Vector> make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(draw(model, rng));
  return out;
}

PipelineConfig batched_config(std::size_t engines, std::size_t batch_max) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = engines;
  cfg.split = stream::SplitStrategy::kRoundRobin;  // deterministic partition
  cfg.sync_rate_hz = 0.0;
  cfg.channel_capacity = 4096;
  cfg.batch_max = batch_max;
  return cfg;
}

// ---------------------------------------------------------------------------
// The acceptance scenario: kill an engine at a scheduled tuple while it runs
// with batch_max 8; the supervised restart must replay the WAL tail and the
// run must end indistinguishable (counts exactly, subspace statistically)
// from the unbatched fault-free run.

TEST(BatchRecovery, CrashMidBatchReplaysToUnbatchedResult) {
  constexpr std::size_t kTuples = 3000;
  const auto data = make_data(kTuples, 2203);

  // Reference: batch_max 1, no faults.
  PipelineConfig clean_cfg = batched_config(3, 1);
  StreamingPcaPipeline clean(clean_cfg, data);
  clean.run();

  // Batched + a kill scheduled at applied tuple 200 on engine 1 — with
  // batch_max 8 that trigger lands inside a drained batch, which is exactly
  // the case the pre-apply WAL logging and kill-boundary chunking protect.
  PipelineConfig cfg = batched_config(3, 8);
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(31);
  cfg.fault_injector->kill_engine(1, 200);
  StreamingPcaPipeline faulty(cfg, data);
  faulty.run();

  const auto clean_stats = clean.engine_stats();
  const auto faulty_stats = faulty.engine_stats();
  ASSERT_EQ(clean_stats.size(), 3u);
  ASSERT_EQ(faulty_stats.size(), 3u);
  std::uint64_t restarts = 0;
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    // Round-robin gives both runs the identical partition; zero tuples may
    // be lost to the crash even though it struck mid-batch.
    EXPECT_EQ(faulty_stats[i].tuples, clean_stats[i].tuples) << "engine " << i;
    EXPECT_EQ(clean_stats[i].tuples, kTuples / 3) << "engine " << i;
    restarts += faulty_stats[i].restarts;
    replayed += faulty_stats[i].replayed;
    EXPECT_GT(faulty_stats[i].batches, 0u);
    EXPECT_LE(faulty_stats[i].batches, faulty_stats[i].tuples);
  }
  EXPECT_GE(restarts, 1u);
  EXPECT_GT(replayed, 0u) << "the crash should have forced a WAL replay";

  // Same eigensystem as the unbatched run: batching changes the grouping of
  // the robust updates (bounded-staleness weights), not the subspace the
  // stream pins down.
  EXPECT_GT(pca::subspace_affinity(clean.result().basis(),
                                   faulty.result().basis()),
            0.98);
  EXPECT_EQ(faulty.result().observations(), clean.result().observations());
}

// ---------------------------------------------------------------------------
// Deterministic backpressure: an engine facing a pre-filled queue drains
// min(depth, batch_max) per lock acquisition, so a 512-deep queue at
// batch_max 8 is absorbed in exactly 64 full batches from the first drain
// on, and the histogram must record what it did.

TEST(BatchRecovery, DeepQueueAmortizesLockAcquisitions) {
  constexpr std::size_t kTuples = 512;
  const auto data = make_data(kTuples, 7001);

  auto data_in = stream::make_channel<stream::DataTuple>(1024);
  auto control_in = stream::make_channel<stream::ControlTuple>(8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    stream::DataTuple t;
    t.seq = i;
    t.values = data[i];
    ASSERT_TRUE(data_in->push(std::move(t)));
  }
  data_in->close();  // the whole stream is queued before the engine starts

  pca::RobustPcaConfig pca_cfg;
  pca_cfg.dim = 12;
  pca_cfg.rank = 2;
  auto exchange = std::make_shared<sync::StateExchange>(1);
  stream::FlowGraph graph;
  auto* engine = graph.add<sync::PcaEngineOperator>(
      "pca-0", 0, pca_cfg, data_in, control_in, exchange,
      std::vector<stream::ChannelPtr<stream::ControlTuple>>{control_in},
      sync::IndependencePolicy(1.0), nullptr, sync::EngineFaultOptions{},
      /*batch_max=*/8);
  control_in->close();  // no control plane: lets the engine exit after drain
  graph.start();
  graph.wait();

  const sync::EngineStats stats = engine->stats();
  EXPECT_EQ(stats.tuples, kTuples);
  EXPECT_EQ(stats.batches, kTuples / 8)
      << "a 512-deep queue must drain in full batches from the start";
  const stream::HistogramSnapshot hist = engine->batch_size_histogram().snapshot();
  EXPECT_EQ(hist.total, stats.batches);
  EXPECT_EQ(hist.min, 8u);
  EXPECT_EQ(hist.max, 8u);
}

// ---------------------------------------------------------------------------
// Observability: the batch-size distribution reaches the metrics registry.

TEST(BatchMetrics, ExportedThroughRegistry) {
  constexpr std::size_t kTuples = 2000;
  const auto data = make_data(kTuples, 9103);

  PipelineConfig cfg = batched_config(2, 8);
  StreamingPcaPipeline p(cfg, data);
  p.run();

  const JsonValue root = JsonParser::parse(p.metrics_json());
  double tuples = 0.0;
  double batches = 0.0;
  for (const JsonValue& op : root.at("operators").array) {
    if (op.str("name").rfind("pca-", 0) != 0) continue;
    const JsonValue& extras = op.at("extras");
    tuples += extras.num("data_tuples");
    batches += extras.num("batches");
    EXPECT_GE(extras.num("batch_size_mean"), 1.0);
    EXPECT_LE(extras.num("batch_size_max"), 8.0);
  }
  EXPECT_EQ(tuples, double(kTuples));
  EXPECT_GT(batches, 0.0);
  EXPECT_LE(batches, tuples);
}

}  // namespace
}  // namespace astro::app
