// Deterministic fault-schedule scenarios for the supervised pipeline: every
// fault fires at a virtual trigger (applied-tuple count, push-attempt index,
// sync epoch), so each scenario replays identically run after run.  The
// assertions go through the metrics-registry JSON export wherever possible —
// the same observable surface an operator would use in production.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "pca/subspace.h"
#include "stats/rng.h"
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

std::map<std::string, const JsonValue*> index_by_name(const JsonValue& arr) {
  std::map<std::string, const JsonValue*> out;
  for (const JsonValue& entry : arr.array) out[entry.str("name")] = &entry;
  return out;
}

/// Deterministic base config: round-robin split (a pure function of tuple
/// order), sync off, channels big enough that the splitter never reroutes
/// around a dead engine's backlog — the partition each engine sees is
/// identical with and without faults.
PipelineConfig deterministic_config(std::size_t engines) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = engines;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  cfg.channel_capacity = 4096;
  return cfg;
}

/// Spin until `pred` holds or ~5 s pass (fault triggers are virtual, but the
/// threads that reach them run on real time).
template <typename Pred>
bool poll_until(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// The acceptance scenario: kill one engine at a scheduled tuple; the stream
// must complete with >= 1 restart, zero lost tuples (checked via the JSON
// export), and a final eigensystem matching the fault-free run.

TEST(FaultSchedule, EngineKillAtScheduledTuple) {
  constexpr std::size_t kTuples = 3000;
  const auto data = make_data(kTuples, 1009);

  auto run_once = [&](bool inject) {
    PipelineConfig cfg = deterministic_config(3);
    cfg.supervise = true;
    cfg.checkpoint_every_tuples = 64;
    if (inject) {
      cfg.fault_injector = std::make_shared<stream::FaultInjector>(11);
      cfg.fault_injector->kill_engine(1, 200);
    }
    auto p = std::make_unique<StreamingPcaPipeline>(cfg, data);
    p->run();
    return p;
  };

  const auto clean = run_once(false);
  const auto faulty = run_once(true);

  const JsonValue root = JsonParser::parse(faulty->metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  const auto queues = index_by_name(root.at("queues"));

  // Zero lost tuples: the splitter forwarded the whole stream and every
  // forwarded tuple was applied by exactly one engine — crash, restore and
  // replay included.
  EXPECT_EQ(ops.at("source")->num("tuples_out"), double(kTuples));
  EXPECT_EQ(ops.at("split")->num("dropped"), 0.0);
  const double split_out = ops.at("split")->num("tuples_out");
  EXPECT_EQ(split_out, double(kTuples));
  double applied = 0.0;
  for (int i = 0; i < 3; ++i) {
    const JsonValue& e = *ops.at("pca-" + std::to_string(i));
    applied += e.at("extras").num("data_tuples");
    EXPECT_EQ(e.at("extras").num("data_tuples"), e.num("tuples_in")) << i;
  }
  EXPECT_EQ(applied, double(kTuples));
  for (const auto& [name, q] : queues) {
    EXPECT_EQ(q->num("pushed") - q->num("popped"), q->num("depth")) << name;
  }

  // Exactly the scheduled restart, surfaced per engine and by the
  // supervisor, with the recovery machinery's telemetry alongside.
  EXPECT_EQ(ops.at("pca-1")->at("extras").num("restarts"), 1.0);
  EXPECT_EQ(ops.at("pca-0")->at("extras").num("restarts"), 0.0);
  ASSERT_TRUE(ops.count("supervisor"));
  const JsonValue& sup = ops.at("supervisor")->at("extras");
  EXPECT_EQ(sup.num("restarts"), 1.0);
  EXPECT_EQ(sup.num("abandoned"), 0.0);
  EXPECT_EQ(sup.num("discarded_tuples"), 0.0);
  EXPECT_GT(sup.num("checkpoints"), 0.0);
  EXPECT_GT(sup.num("checkpoint_bytes"), 0.0);
  EXPECT_GT(sup.num("last_recovery_ms"), 0.0);
  // The kill fired with the engine mid-interval: checkpoint at 192, crash
  // popping tuple 201 -> tuples 193..201 sat in the write-ahead log.
  EXPECT_EQ(sup.num("replayed_tuples"), 9.0);
  EXPECT_EQ(faulty->engine_stats()[1].replayed, 9u);

  // Checkpoint restore + log replay reproduces the exact pre-crash state,
  // so the interrupted run converges to the uninterrupted one.
  const pca::EigenSystem a = clean->result();
  const pca::EigenSystem b = faulty->result();
  EXPECT_LT(pca::max_principal_angle(a.basis(), b.basis()), 1e-6);
  EXPECT_EQ(a.observations(), b.observations());
  for (std::size_t i = 0; i < a.eigenvalues().size(); ++i) {
    EXPECT_NEAR(a.eigenvalues()[i], b.eigenvalues()[i],
                1e-9 * (1.0 + std::abs(a.eigenvalues()[i])));
  }
}

// ---------------------------------------------------------------------------

TEST(FaultSchedule, DoubleFailureRecoversBothEngines) {
  constexpr std::size_t kTuples = 3000;
  const auto data = make_data(kTuples, 1013);

  PipelineConfig cfg = deterministic_config(3);
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(13);
  cfg.fault_injector->kill_engine(0, 150);
  cfg.fault_injector->kill_engine(2, 300);

  StreamingPcaPipeline p(cfg, data);
  p.run();

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  EXPECT_EQ(ops.at("pca-0")->at("extras").num("restarts"), 1.0);
  EXPECT_EQ(ops.at("pca-2")->at("extras").num("restarts"), 1.0);
  EXPECT_EQ(ops.at("supervisor")->at("extras").num("restarts"), 2.0);
  double applied = 0.0;
  for (int i = 0; i < 3; ++i) {
    applied += ops.at("pca-" + std::to_string(i))->at("extras").num("data_tuples");
  }
  EXPECT_EQ(applied, double(kTuples));
}

TEST(FaultSchedule, RepeatedKillsOfOneEngineRecoverEachTime) {
  constexpr std::size_t kTuples = 3000;
  const auto data = make_data(kTuples, 1019);

  auto run_once = [&](bool inject) {
    PipelineConfig cfg = deterministic_config(3);
    cfg.supervise = true;
    cfg.checkpoint_every_tuples = 64;
    if (inject) {
      cfg.fault_injector = std::make_shared<stream::FaultInjector>(17);
      cfg.fault_injector->kill_engine(0, 150);
      cfg.fault_injector->kill_engine(0, 400);
    }
    auto p = std::make_unique<StreamingPcaPipeline>(cfg, data);
    p->run();
    return p;
  };

  const auto clean = run_once(false);
  const auto faulty = run_once(true);

  EXPECT_EQ(faulty->engine_stats()[0].restarts, 2u);
  std::uint64_t applied = 0;
  for (const auto& s : faulty->engine_stats()) applied += s.tuples;
  EXPECT_EQ(applied, kTuples);
  EXPECT_LT(pca::max_principal_angle(clean->result().basis(),
                                     faulty->result().basis()),
            1e-6);
}

// ---------------------------------------------------------------------------
// A partitioned control link eats state forwards during sync rounds; the
// drops are accounted (per engine and at the injector) and the data plane
// never stalls.

TEST(FaultSchedule, LinkPartitionDuringSyncRounds) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 500.0;
  cfg.independence_fallback = 50;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(19);
  // Cut 0<->1 for a wide epoch window: with two engines, every ring round
  // crosses the partition once the sender is initialized.
  cfg.fault_injector->partition_link(0, 1, 0, 1u << 30);

  Rng rng(1021);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  StreamingPcaPipeline p(cfg, [&rng, &model]() -> std::optional<linalg::Vector> {
    return draw(model, rng);  // endless stream; the test stops the pipeline
  });
  p.start();
  const bool saw_blocks = poll_until([&] {
    return cfg.fault_injector->injected(stream::Fault::kPartition) >= 3;
  });
  p.stop();
  p.wait();
  ASSERT_TRUE(saw_blocks) << "no sync forward crossed the partition in time";

  std::uint64_t partition_drops = 0;
  std::uint64_t merges = 0;
  for (const auto& s : p.engine_stats()) {
    partition_drops += s.partition_drops;
    merges += s.merges_applied;
  }
  EXPECT_EQ(partition_drops,
            cfg.fault_injector->injected(stream::Fault::kPartition));
  EXPECT_GE(partition_drops, 3u);
  // The partition was total and never healed: no merge can have landed.
  EXPECT_EQ(merges, 0u);
}

// ---------------------------------------------------------------------------
// Kill an engine as it applies a sync merge: the crash site is the control
// path (inside the merge), not the data path.  The supervisor still
// recovers it, and the degraded controller folds the rejoined engine back
// in with injected re-merge commands.

TEST(FaultSchedule, KillDuringMergeRecoversAndRejoins) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.sync_rate_hz = 500.0;
  cfg.independence_fallback = 50;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(23);
  cfg.fault_injector->kill_engine_on_merge(1, 0);  // first merge crashes it

  Rng rng(1031);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  StreamingPcaPipeline p(cfg, [&rng, &model]() -> std::optional<linalg::Vector> {
    return draw(model, rng);
  });
  p.start();
  const bool recovered = poll_until([&] {
    return p.supervisor()->total_restarts() >= 1 &&
           p.engine_stats()[1].merges_applied >= 1;
  });
  // The rejoin re-merge pair fires on the controller's first round after it
  // observes the new restart generation; give that round time to happen.
  const bool rejoined = recovered && poll_until([&] {
    const JsonValue live = JsonParser::parse(p.metrics_json());
    const auto live_ops = index_by_name(live.at("operators"));
    return live_ops.at("sync-controller")->at("extras").num("rejoin_syncs") >=
           2.0;
  });
  p.stop();
  p.wait();
  ASSERT_TRUE(recovered) << "merge-kill never fired or engine never rejoined";

  EXPECT_EQ(cfg.fault_injector->injected(stream::Fault::kKill), 1u);
  EXPECT_EQ(p.engine_stats()[1].restarts, 1u);
  // The rejoin path issued its bidirectional re-merge pair at least once.
  EXPECT_TRUE(rejoined);
}

// ---------------------------------------------------------------------------
// Injected channel drops are lossy-link losses, not queue rejections: the
// producer sees success, the gauge distinguishes `faulted` from `rejected`,
// and downstream conservation shifts by exactly the injected count.

TEST(FaultSchedule, InjectedChannelDropsAreAccountedSeparately) {
  constexpr std::size_t kTuples = 1000;
  PipelineConfig cfg = deterministic_config(2);
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(29);
  cfg.fault_injector->drop_on_channel("chan.split->pca-0", 10, 5);

  StreamingPcaPipeline p(cfg, make_data(kTuples, 1033));
  p.run();

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  const auto queues = index_by_name(root.at("queues"));
  const JsonValue& q0 = *queues.at("chan.split->pca-0");

  EXPECT_EQ(cfg.fault_injector->injected(stream::Fault::kDrop), 5u);
  EXPECT_EQ(q0.num("faulted"), 5.0);
  EXPECT_EQ(q0.num("rejected"), 0.0);
  // The splitter believed all its sends succeeded...
  EXPECT_EQ(ops.at("split")->num("tuples_out"), double(kTuples));
  EXPECT_EQ(ops.at("split")->num("dropped"), 0.0);
  // ...but only pushed - faulted tuples actually landed.
  const double e0 = ops.at("pca-0")->num("tuples_in");
  const double e1 = ops.at("pca-1")->num("tuples_in");
  EXPECT_EQ(e0, double(kTuples) / 2 - 5);
  EXPECT_EQ(e1, double(kTuples) / 2);
  EXPECT_EQ(q0.num("pushed"), e0);
  EXPECT_EQ(q0.num("pushed") - q0.num("popped"), q0.num("depth"));
}

TEST(FaultSchedule, SeededRandomDropsAreDeterministic) {
  constexpr std::size_t kTuples = 2000;
  auto run_once = [&] {
    PipelineConfig cfg = deterministic_config(2);
    cfg.fault_injector = std::make_shared<stream::FaultInjector>(31);
    cfg.fault_injector->drop_randomly("chan.split->pca-0", 0.2, 50);
    StreamingPcaPipeline p(cfg, make_data(kTuples, 1039));
    p.run();
    std::vector<std::uint64_t> out;
    for (const auto& s : p.engine_stats()) out.push_back(s.tuples);
    out.push_back(cfg.fault_injector->injected(stream::Fault::kDrop));
    return out;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.back(), 0u);          // the schedule actually dropped tuples
  EXPECT_LE(a.back(), 50u);         // and respected its budget
}

// ---------------------------------------------------------------------------
// Shutdown safety: stop() while an engine sits crashed (its supervisor mid
// backoff) must not deadlock the splitter against the dead consumer.

TEST(FaultSchedule, StopDuringCrashWindowShutsDownCleanly) {
  PipelineConfig cfg = deterministic_config(2);
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  // Very long backoff: the crash window stays open until stop() lands.
  cfg.supervisor.backoff_base_seconds = 30.0;
  cfg.supervisor.backoff_max_seconds = 30.0;
  cfg.channel_capacity = 8;  // small: the splitter *will* block on pca-0
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(37);
  cfg.fault_injector->kill_engine(0, 50);

  Rng rng(1049);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  StreamingPcaPipeline p(cfg, [&rng, &model]() -> std::optional<linalg::Vector> {
    return draw(model, rng);
  });
  p.start();
  const bool crashed = poll_until(
      [&] { return cfg.fault_injector->injected(stream::Fault::kKill) >= 1; });
  p.stop();
  p.wait();  // must return: the supervisor's stop path drains dead ports
  ASSERT_TRUE(crashed);
  SUCCEED();
}

}  // namespace
}  // namespace astro::app
