// Stress and determinism tests for the assembled pipeline.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>

#include "app/pipeline.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"
#include "tests/stream/json_mini.h"

namespace astro::app {
namespace {

using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

std::vector<linalg::Vector> make_data(std::size_t n, std::uint64_t seed,
                                      std::size_t dim = 12) {
  Rng rng(seed);
  const auto model = make_model(rng, dim, 2, 2.0, 0.05);
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(draw(model, rng));
  return out;
}

TEST(PipelineStress, RoundRobinSingleEngineIsDeterministic) {
  // One engine + round-robin split + no sync: the pipeline is a pure
  // function of its input; two runs must produce identical eigensystems.
  const auto data = make_data(2000, 901);
  auto run_once = [&] {
    PipelineConfig cfg;
    cfg.pca.dim = 12;
    cfg.pca.rank = 2;
    cfg.engines = 1;
    cfg.split = stream::SplitStrategy::kRoundRobin;
    cfg.sync_rate_hz = 0.0;
    StreamingPcaPipeline p(cfg, data);
    p.run();
    return p.result();
  };
  const pca::EigenSystem a = run_once();
  const pca::EigenSystem b = run_once();
  EXPECT_TRUE(approx_equal(a.mean(), b.mean(), 0.0));
  EXPECT_TRUE(approx_equal(a.basis(), b.basis(), 0.0));
  EXPECT_TRUE(approx_equal(a.eigenvalues(), b.eigenvalues(), 0.0));
  EXPECT_EQ(a.observations(), b.observations());
}

TEST(PipelineStress, ManyEnginesTinyChannels) {
  // Deliberately tiny channel capacity: the splitter's reroute +
  // backpressure must still deliver every tuple with no deadlock.
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 8;
  cfg.channel_capacity = 2;
  cfg.sync_rate_hz = 100.0;
  cfg.independence_fallback = 200;
  StreamingPcaPipeline p(cfg, make_data(4000, 907));
  p.run();
  std::uint64_t total = 0;
  for (const auto& s : p.engine_stats()) total += s.tuples;
  EXPECT_EQ(total, 4000u);
}

TEST(PipelineStress, RepeatedRunsShutDownCleanly) {
  // Start/stop churn: ten short pipelines back to back must not leak
  // threads or hang (the destructor joins everything).
  for (int round = 0; round < 10; ++round) {
    PipelineConfig cfg;
    cfg.pca.dim = 12;
    cfg.pca.rank = 2;
    cfg.engines = 3;
    cfg.sync_rate_hz = 50.0;
    StreamingPcaPipeline p(cfg, make_data(300, 911 + std::uint64_t(round)));
    p.run();
  }
  SUCCEED();
}

TEST(PipelineStress, StopBeforeStartedDataDrains) {
  // stop() immediately after start(): must terminate promptly even though
  // almost nothing was processed.
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.source_rate = 500.0;  // slow source: stop lands mid-stream
  StreamingPcaPipeline p(cfg, make_data(100000, 919));
  p.start();
  p.stop();
  p.wait();
  SUCCEED();
}

TEST(PipelineStress, ThroughputReported) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  StreamingPcaPipeline p(cfg, make_data(2000, 923));
  p.run();
  EXPECT_GT(p.throughput(), 0.0);
}

TEST(PipelineStress, LeastLoadedSplitBalancesSlowEngine) {
  // With the least-loaded strategy every tuple still arrives even though
  // queue depths differ; per-engine counts stay within a sane band.
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 4;
  cfg.split = stream::SplitStrategy::kLeastLoaded;
  cfg.sync_rate_hz = 0.0;
  StreamingPcaPipeline p(cfg, make_data(4000, 929));
  p.run();
  const auto counts = p.split_counts();
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 4000u);
}

// ---------------------------------------------------------------------------
// End-to-end metrics conservation: run a full pipeline (sync on, outliers
// collected, tiny channels so backpressure actually fires), export the
// registry as JSON, and check the tuple-accounting invariants hold exactly
// across the parsed per-operator/per-channel breakdown.

using astro::testing::JsonParser;
using astro::testing::JsonValue;

// Index the "operators"/"queues" arrays by name for invariant checks.
std::map<std::string, const JsonValue*> index_by_name(const JsonValue& arr) {
  std::map<std::string, const JsonValue*> out;
  for (const JsonValue& entry : arr.array) out[entry.str("name")] = &entry;
  return out;
}

TEST(PipelineStress, MetricsJsonConservationInvariants) {
  constexpr std::size_t kEngines = 4;
  constexpr std::size_t kTuples = 3000;

  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = kEngines;
  cfg.channel_capacity = 8;  // small: push/pop waits show up in histograms
  cfg.sync_rate_hz = 200.0;
  cfg.independence_fallback = 100;
  cfg.collect_outliers = true;
  cfg.metrics_sample_interval_seconds = 0.005;

  // Inject occasional large spikes so the robust weighting has outliers to
  // reject (exercises the outlier recorder's accounting too).
  auto data = make_data(kTuples, 937);
  for (std::size_t i = 50; i < data.size(); i += 50) {
    for (std::size_t j = 0; j < data[i].size(); ++j) data[i][j] *= 25.0;
  }

  StreamingPcaPipeline p(cfg, data);
  const auto t0 = std::chrono::steady_clock::now();
  p.run();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const JsonValue root = JsonParser::parse(p.metrics_json());
  ASSERT_TRUE(root.at("operators").is_array());
  ASSERT_TRUE(root.at("queues").is_array());
  const auto ops = index_by_name(root.at("operators"));
  const auto queues = index_by_name(root.at("queues"));

  ASSERT_TRUE(ops.count("source"));
  ASSERT_TRUE(ops.count("split"));
  ASSERT_TRUE(ops.count("outliers"));

  // Source emitted the whole dataset; the splitter saw every one of them.
  const double source_out = ops.at("source")->num("tuples_out");
  const double split_in = ops.at("split")->num("tuples_in");
  const double split_out = ops.at("split")->num("tuples_out");
  const double split_dropped = ops.at("split")->num("dropped");
  EXPECT_EQ(source_out, double(kTuples));
  EXPECT_EQ(split_in, source_out);
  EXPECT_EQ(split_out, split_in - split_dropped);

  // Every tuple the splitter forwarded landed in exactly one engine, and
  // every outlier an engine emitted reached the outlier sink.
  double engines_in = 0.0;
  double engines_out = 0.0;
  for (std::size_t i = 0; i < kEngines; ++i) {
    const std::string name = "pca-" + std::to_string(i);
    ASSERT_TRUE(ops.count(name)) << name;
    const JsonValue& e = *ops.at(name);
    engines_in += e.num("tuples_in");
    engines_out += e.num("tuples_out");
    // The extras block mirrors EngineStats; data_tuples is the same count
    // the data-plane metrics saw.
    EXPECT_EQ(e.at("extras").num("data_tuples"), e.num("tuples_in")) << name;
    // Per-tuple processing histogram covered every tuple.
    EXPECT_EQ(e.at("proc_ns").num("count"), e.num("tuples_in")) << name;
  }
  EXPECT_EQ(engines_in, split_out);
  EXPECT_EQ(ops.at("outliers")->num("tuples_in"), engines_out);

  // Channel accounting: successful pushes minus pops equals residual depth
  // (zero for the fully drained data channels), and the high watermark
  // never exceeded capacity.
  ASSERT_GE(queues.size(), 2 + kEngines);
  for (const auto& [name, q] : queues) {
    EXPECT_EQ(q->num("pushed") - q->num("popped"), q->num("depth")) << name;
    EXPECT_LE(q->num("high_watermark"), q->num("capacity")) << name;
  }
  EXPECT_EQ(queues.at("chan.source->split")->num("depth"), 0.0);
  for (std::size_t i = 0; i < kEngines; ++i) {
    EXPECT_EQ(queues.at("chan.split->pca-" + std::to_string(i))->num("depth"),
              0.0);
  }

  // The sync plane ran: the controller issued rounds and engines tallied
  // control traffic outside the data-plane counters.
  ASSERT_TRUE(ops.count("sync-controller"));
  const double rounds = ops.at("sync-controller")->at("extras").num("rounds");
  EXPECT_GT(rounds, 0.0);
  // Rounds are decided on the tick that sends them, never queued ahead: a
  // ring round is one command, one command per sync period.
  EXPECT_LE(rounds, elapsed_s * cfg.sync_rate_hz + 1.0);

  // The background sampler collected history and its last snapshot agrees
  // with the final export on the totals above.
  const auto history = p.metrics_history();
  ASSERT_FALSE(history.empty());
  const auto* last_split = history.back().find_operator("split");
  ASSERT_NE(last_split, nullptr);
  EXPECT_EQ(double(last_split->tuples_in), split_in);
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].timestamp_ns, history[i - 1].timestamp_ns);
  }
}

// ---------------------------------------------------------------------------
// The payload arena's default size counts only the data channels that
// exist: the engine ports (the fused split's in-edge buffers nothing).  A
// full run with every port filling must never grow the pool.

TEST(PipelineStress, DefaultArenaNeverGrowsOverAFullRun) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 4;
  cfg.batch_max = 8;
  cfg.channel_capacity = 16;
  cfg.sync_rate_hz = 50.0;
  cfg.independence_fallback = 200;
  cfg.validate_ingest = true;
  StreamingPcaPipeline p(cfg, make_data(20000, 941));
  p.run();

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const JsonValue& source = index_by_name(root.at("operators")).at("source")
                                ->at("extras");
  // 4 ports x 16 + 4 x (8 + 4) staging + 64 slack.
  EXPECT_EQ(source.num("arena_preallocated"), 176.0);
  EXPECT_EQ(source.num("arena_grown"), 0.0);
  std::uint64_t applied = 0;
  for (const auto& s : p.engine_stats()) applied += s.tuples;
  EXPECT_EQ(applied, 20000u);
}

// ---------------------------------------------------------------------------
// Behind TCP the default pool is sized like every other carrier's: each
// data channel full plus the staging share.  An unthrottled run whose
// engine ports back up behind the link never grows it.

TEST(PipelineStress, DefaultTcpArenaNeverGrows) {
  PipelineConfig cfg;
  cfg.pca.dim = 64;
  cfg.pca.rank = 4;
  cfg.engines = 2;
  cfg.channel_capacity = 256;  // engine ports back up behind the link
  cfg.sync_rate_hz = 50.0;
  cfg.independence_fallback = 200;
  cfg.transport.enabled = true;
  StreamingPcaPipeline p(cfg, make_data(20000, 943, 64));
  p.run();

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const JsonValue& source = index_by_name(root.at("operators")).at("source")
                                ->at("extras");
  EXPECT_EQ(source.num("arena_preallocated"),
            double(arena_shares(cfg).total()));
  EXPECT_EQ(source.num("arena_grown"), 0.0);
  std::uint64_t applied = 0;
  for (const auto& s : p.engine_stats()) applied += s.tuples;
  EXPECT_EQ(applied, 20000u);
}

// ---------------------------------------------------------------------------
// Collected outliers are copies in a bounded ring: the retained window stays
// at dead_letter_retained however many outliers two engines record
// concurrently, every recorded one is counted, and each outlier's slab goes
// back to the arena, so the default pool never grows.

TEST(PipelineStress, CollectedOutliersStayBoundedAndArenaNeverGrows) {
  constexpr std::size_t kTuples = 16000;
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.channel_capacity = 8;  // default arena: 2 x 8 + 2 x (1 + 4) + 64 slabs
  cfg.sync_rate_hz = 0.0;
  cfg.collect_outliers = true;
  cfg.dead_letter_retained = 16;

  auto data = make_data(kTuples, 959);
  std::size_t spikes = 0;
  for (std::size_t i = 50; i < data.size(); i += 50, ++spikes) {
    for (std::size_t j = 0; j < data[i].size(); ++j) data[i][j] *= 25.0;
  }
  ASSERT_GE(spikes, 300u);

  StreamingPcaPipeline p(cfg, data);
  p.run();

  std::uint64_t flagged = 0;
  for (const auto& s : p.engine_stats()) flagged += s.outliers;
  EXPECT_GT(flagged, cfg.dead_letter_retained) << "the bound never bit";
  EXPECT_LE(p.outliers().size(), cfg.dead_letter_retained);

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  EXPECT_EQ(ops.at("outliers")->num("tuples_in"), double(flagged));
  EXPECT_EQ(ops.at("source")->at("extras").num("arena_grown"), 0.0);
}

// ---------------------------------------------------------------------------
// Engine rows: the ingest -> apply latency histogram and the applied rate.

/// A paced 2-engine run (sync off, so each engine exits at its last apply)
/// and its operators indexed by name.
std::map<std::string, JsonValue> run_paced_engines(StreamingPcaPipeline& p) {
  p.run();
  std::map<std::string, JsonValue> out;
  const JsonValue root = JsonParser::parse(p.metrics_json());
  for (const JsonValue& op : root.at("operators").array) {
    out[op.str("name")] = op;
  }
  return out;
}

PipelineConfig paced_config() {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 0.0;
  cfg.source_rate = 10000.0;  // 4000 tuples over ~0.4 s
  return cfg;
}

TEST(PipelineStress, EnginesRecordIngestToApplyLatency) {
  StreamingPcaPipeline p(paced_config(), make_data(4000, 947));
  const auto ops = run_paced_engines(p);
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& x = ops.at("pca-" + std::to_string(i)).at("extras");
    // One sample per applied tuple.
    EXPECT_EQ(x.num("ingest_to_apply_us_count"), x.num("data_tuples"));
    EXPECT_GT(x.num("data_tuples"), 0.0);
    EXPECT_LE(x.num("ingest_to_apply_us_min"), x.num("ingest_to_apply_us_p50"));
    EXPECT_LE(x.num("ingest_to_apply_us_p50"), x.num("ingest_to_apply_us_max"));
    // Same clock on both ends: a lag is never negative, and far below an
    // hour on a paced stream.
    EXPECT_LT(x.num("ingest_to_apply_us_max"), 3600e6);
  }
}

TEST(PipelineStress, EngineRowsReportAppliedRate) {
  StreamingPcaPipeline p(paced_config(), make_data(4000, 953));
  const auto ops = run_paced_engines(p);
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue& e = ops.at("pca-" + std::to_string(i));
    const double applied = e.at("extras").num("data_tuples");
    const double rate = e.at("extras").num("applied_tps");
    const double plain = applied / e.num("elapsed_seconds");
    EXPECT_EQ(e.num("throughput"), 0.0);  // a sink emits nothing
    EXPECT_GT(rate, 0.0);
    EXPECT_NEAR(rate, plain, 0.1 * plain);
  }
}

}  // namespace
}  // namespace astro::app
