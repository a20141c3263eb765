// End-to-end data-plane hardening scenarios: seeded corruption on the wire,
// the split's ingest gate + dead-letter recorder in front of the engines,
// and the numerical-health watchdog behind them.  Every count is asserted
// through the metrics-registry JSON export — the surface an operator would
// watch.
//
// The acceptance invariants (DESIGN.md "Data-plane robustness"):
//
//   accepted + quarantined == ingested             (validator)
//   dead_letters == quarantined + CRC husks        (recorder vs validator;
//                                                   no transport here, so
//                                                   no husks)
//   dead_letters == corruptions_injected           (repair off: every
//                                                   corrupt tuple rejected)
//   tuples_in == data_tuples + dropped + replay_quarantined   (engines)

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "app/pipeline.h"
#include "pca/health.h"
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

/// Strict no-repair policy: every injected defect must be a dead letter, so
/// dead_letters == corruptions_injected holds exactly.
void configure_strict_validation(PipelineConfig& cfg) {
  cfg.validate_ingest = true;
  cfg.validation.nonfinite_as_masked = false;  // NaN/Inf reject outright
  cfg.validation.max_interp_run = 0;           // no interpolation
  cfg.validation.max_abs_flux = 1e6;           // catches kGarble's 1e30s
}

template <typename Pred>
bool poll_until(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Topology sanity: with validation enabled and a clean stream, the gate is
// transparent — everything accepted, nothing quarantined, engines see the
// full stream, and the new operators/channels show up in the JSON export.

TEST(DataHardening, CleanStreamPassesValidationUntouched) {
  constexpr std::size_t kTuples = 600;
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  configure_strict_validation(cfg);

  StreamingPcaPipeline p(cfg, make_data(kTuples, 2003));
  p.run();

  ASSERT_NE(p.validator(), nullptr);
  ASSERT_NE(p.dead_letters(), nullptr);
  EXPECT_EQ(p.validator()->accepted(), kTuples);
  EXPECT_EQ(p.validator()->quarantined(), 0u);
  EXPECT_EQ(p.validator()->repaired(), 0u);
  EXPECT_EQ(p.dead_letters()->count(), 0u);

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  const auto queues = index_by_name(root.at("queues"));
  ASSERT_TRUE(ops.count("validate"));
  ASSERT_TRUE(ops.count("dead-letter"));
  ASSERT_TRUE(queues.count("chan.source->validate"));
  // Validation runs inside the split stage: no queue between the two.
  EXPECT_FALSE(queues.count("chan.validate->split"));
  // Rejects are recorded on the gate's thread: no dead-letter queue.
  EXPECT_FALSE(queues.count("chan.validate->dlq"));
  EXPECT_EQ(ops.at("validate")->at("extras").num("accepted"), double(kTuples));
  EXPECT_EQ(ops.at("validate")->num("tuples_out"), double(kTuples));
  EXPECT_EQ(ops.at("split")->num("tuples_in"), double(kTuples));
  EXPECT_EQ(ops.at("dead-letter")->at("extras").num("dead_letters"), 0.0);

  std::uint64_t applied = 0;
  for (const auto& s : p.engine_stats()) applied += s.tuples;
  EXPECT_EQ(applied, kTuples);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: ~1% seeded corruption (all four kinds) on the
// source wire of a 4-engine run.  Zero crashes, zero NaN/Inf downstream,
// and the dead-letter count equals the injected-corruption count exactly.

TEST(DataHardening, SeededCorruptionFullyQuarantinedAcrossFourEngines) {
  constexpr std::size_t kTuples = 4000;
  const auto data = make_data(kTuples, 2011);

  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 4;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  configure_strict_validation(cfg);
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(101);
  cfg.fault_injector->corrupt_randomly("chan.source->validate", 0.01, 60);

  StreamingPcaPipeline p(cfg, data);
  p.run();

  const std::uint64_t injected =
      cfg.fault_injector->injected(stream::Fault::kCorrupt);
  ASSERT_GT(injected, 0u);  // ~40 expected from 4000 attempts at 1%
  ASSERT_LE(injected, 60u);

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  const auto queues = index_by_name(root.at("queues"));
  const JsonValue& validate = *ops.at("validate");
  const JsonValue& vx = validate.at("extras");

  // The wire counted each damaged push...
  EXPECT_EQ(queues.at("chan.source->validate")->num("corrupted"),
            double(injected));
  // ...validation conservation holds exactly...
  EXPECT_EQ(validate.num("tuples_in"), double(kTuples));
  EXPECT_EQ(vx.num("accepted") + vx.num("quarantined"), double(kTuples));
  // ...and with repair off, the quarantine is exactly the injection set.
  EXPECT_EQ(vx.num("quarantined"), double(injected));
  EXPECT_EQ(ops.at("dead-letter")->at("extras").num("dead_letters"),
            double(injected));

  // Typed reasons partition the quarantine count, and only the reasons the
  // four corruption kinds can produce appear.
  const double by_reason = vx.num("reason.length_mismatch") +
                           vx.num("reason.non_finite") +
                           vx.num("reason.out_of_range");
  EXPECT_EQ(by_reason, double(injected));
  EXPECT_EQ(vx.num("reason.mask_mismatch"), 0.0);
  EXPECT_EQ(vx.num("reason.negative_flux"), 0.0);

  // The sink agrees with the validator, reason by reason.
  const auto* dlq = p.dead_letters();
  ASSERT_NE(dlq, nullptr);
  for (int r = 1; r < int(spectra::RejectReason::kCount); ++r) {
    const auto reason = spectra::RejectReason(r);
    EXPECT_EQ(dlq->count(reason), p.validator()->quarantined_for(reason))
        << spectra::to_string(reason);
  }
  // Forensics: every retained letter still holds its damaged payload.
  EXPECT_EQ(dlq->retained().size(),
            std::min<std::size_t>(injected, cfg.dead_letter_retained));

  // Zero crashes, and only clean tuples reached the engines.
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < p.engines(); ++i) {
    const sync::EngineStats s = p.engine_stats()[i];
    EXPECT_EQ(s.restarts, 0u) << i;
    EXPECT_EQ(s.health_faults, 0u) << i;
    applied += s.tuples;
    EXPECT_TRUE(pca::all_finite(p.engine_snapshot(i))) << i;
  }
  EXPECT_EQ(applied, kTuples - injected);
  EXPECT_TRUE(pca::all_finite(p.result()));

  // Channel conservation survives corruption (corrupt pushes land).
  for (const auto& [name, q] : queues) {
    EXPECT_EQ(q->num("pushed") - q->num("popped"), q->num("depth")) << name;
  }
}

TEST(DataHardening, CorruptionRunIsSeedDeterministic) {
  const auto run_once = [] {
    PipelineConfig cfg;
    cfg.pca.dim = 12;
    cfg.pca.rank = 2;
    cfg.engines = 2;
    cfg.split = stream::SplitStrategy::kRoundRobin;
    cfg.sync_rate_hz = 0.0;
    // Per-engine counts are deterministic only while no port fills (a
    // full port reroutes by timing): room for the whole stream.
    cfg.channel_capacity = 4096;
    configure_strict_validation(cfg);
    cfg.fault_injector = std::make_shared<stream::FaultInjector>(113);
    cfg.fault_injector->corrupt_randomly("chan.source->validate", 0.02, 40);
    StreamingPcaPipeline p(cfg, make_data(1500, 2017));
    p.run();
    std::vector<std::uint64_t> out{
        cfg.fault_injector->injected(stream::Fault::kCorrupt),
        p.validator()->quarantined(), p.dead_letters()->count()};
    for (int r = 1; r < int(spectra::RejectReason::kCount); ++r) {
      out.push_back(p.validator()->quarantined_for(spectra::RejectReason(r)));
    }
    for (const auto& s : p.engine_stats()) out.push_back(s.tuples);
    return out;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a[0], 0u);
}

// ---------------------------------------------------------------------------
// Watchdog quarantine-and-reinit: with validation OFF, a NaN reaches engine
// 1 and poisons its state.  The health check trips within one cadence, the
// engine crashes like an injected kill, and the Supervisor restores it from
// the last good checkpoint — with the poisoned tuple quarantined out of the
// WAL replay, so the recovered incarnation is finite by construction.

TEST(DataHardening, WatchdogQuarantinesPoisonedEngineAndReinitializes) {
  constexpr std::size_t kTuples = 2000;
  const auto data = make_data(kTuples, 2027);

  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  cfg.channel_capacity = 4096;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.health_check_every_tuples = 25;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(127);
  cfg.fault_injector->corrupt_on_channel("chan.split->pca-1", 301, 1,
                                         stream::CorruptionKind::kNaN);

  StreamingPcaPipeline p(cfg, data);
  p.run();

  const sync::EngineStats s1 = p.engine_stats()[1];
  EXPECT_EQ(s1.health_faults, 1u);
  EXPECT_EQ(s1.restarts, 1u);
  EXPECT_EQ(s1.replay_quarantined, 1u);
  EXPECT_GE(s1.replayed, 1u);
  // The poisoned tuple is the only loss; everything else was re-applied.
  EXPECT_EQ(s1.tuples, kTuples / 2 - 1);
  EXPECT_EQ(p.engine_stats()[0].tuples, kTuples / 2);
  EXPECT_EQ(p.engine_stats()[0].health_faults, 0u);

  // The recovered incarnation reports healthy and finite.
  EXPECT_TRUE(p.engine_health()[1]);
  EXPECT_TRUE(pca::all_finite(p.engine_snapshot(1)));
  EXPECT_TRUE(pca::all_finite(p.result()));

  const JsonValue root = JsonParser::parse(p.metrics_json());
  const auto ops = index_by_name(root.at("operators"));
  const JsonValue& e1 = ops.at("pca-1")->at("extras");
  EXPECT_EQ(e1.num("health_faults"), 1.0);
  EXPECT_EQ(e1.num("replay_quarantined"), 1.0);
  EXPECT_EQ(e1.num("healthy"), 1.0);
  // Engine conservation with quarantine: every popped tuple was applied,
  // dropped at the structural guard, or quarantined during replay.
  EXPECT_EQ(ops.at("pca-1")->num("tuples_in"),
            e1.num("data_tuples") + ops.at("pca-1")->num("dropped") +
                e1.num("replay_quarantined"));
  EXPECT_EQ(ops.at("supervisor")->at("extras").num("restarts"), 1.0);
  EXPECT_EQ(ops.at("supervisor")->at("extras").num("abandoned"), 0.0);
}

// ---------------------------------------------------------------------------
// Sync exclusion: while the poisoned engine sits quarantined (crashed,
// recovery pending behind a long-ish backoff), the controller must route
// merge rounds around it via the *health* dimension, then fold it back in
// with rejoin re-merges once the checkpoint reinit completes.

TEST(DataHardening, PoisonedEngineExcludedFromSyncUntilRejoin) {
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 500.0;
  cfg.independence_fallback = 50;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.health_check_every_tuples = 25;
  // Stretch the quarantine window across many sync rounds so the exclusion
  // is observable; recovery still completes well inside the poll budget.
  cfg.supervisor.backoff_base_seconds = 0.2;
  cfg.supervisor.backoff_max_seconds = 0.2;
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(131);
  cfg.fault_injector->corrupt_on_channel("chan.split->pca-1", 400, 1,
                                         stream::CorruptionKind::kNaN);

  Rng rng(2039);
  const auto model = make_model(rng, 12, 2, 2.0, 0.05);
  StreamingPcaPipeline p(cfg, [&rng, &model]() -> std::optional<linalg::Vector> {
    return draw(model, rng);  // endless; the test stops the pipeline
  });
  p.start();

  // Phase 1: the watchdog trips and the controller skips the quarantined
  // engine in at least one merge round (health filter, not just liveness).
  const bool excluded = poll_until([&] {
    return p.engine_stats()[1].health_faults >= 1 &&
           p.sync_controller()->skipped_unhealthy() >= 1;
  });

  // Phase 2: checkpoint reinit finishes, the engine reports healthy again,
  // and the rejoin machinery issues its bidirectional re-merge pair.
  const bool rejoined = excluded && poll_until([&] {
    return p.engine_stats()[1].restarts >= 1 &&
           p.sync_controller()->rejoin_syncs() >= 2 && p.engine_health()[1];
  });
  p.stop();
  p.wait();

  ASSERT_TRUE(excluded) << "watchdog never tripped or no round skipped it";
  ASSERT_TRUE(rejoined) << "quarantined engine never rejoined the sync ring";
  EXPECT_GE(p.engine_stats()[1].health_faults, 1u);
  EXPECT_GE(p.engine_stats()[1].replay_quarantined, 1u);
  EXPECT_TRUE(pca::all_finite(p.engine_snapshot(0)));
  EXPECT_TRUE(pca::all_finite(p.engine_snapshot(1)));
  EXPECT_TRUE(pca::all_finite(p.result()));
}

// ---------------------------------------------------------------------------
// Validation in front of the engines prevents the watchdog scenario: same
// corruption schedule, but with the gate on, no engine ever sees the NaN.

TEST(DataHardening, ValidationShieldsEnginesFromInjectedNaN) {
  constexpr std::size_t kTuples = 2000;
  PipelineConfig cfg;
  cfg.pca.dim = 12;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.health_check_every_tuples = 25;
  configure_strict_validation(cfg);
  cfg.fault_injector = std::make_shared<stream::FaultInjector>(137);
  cfg.fault_injector->corrupt_on_channel("chan.source->validate", 301, 3,
                                         stream::CorruptionKind::kNaN);

  StreamingPcaPipeline p(cfg, make_data(kTuples, 2053));
  p.run();

  EXPECT_EQ(p.validator()->quarantined(), 3u);
  EXPECT_EQ(p.dead_letters()->count(spectra::RejectReason::kNonFinite), 3u);
  for (const auto& s : p.engine_stats()) {
    EXPECT_EQ(s.health_faults, 0u);
    EXPECT_EQ(s.restarts, 0u);
  }
  EXPECT_TRUE(pca::all_finite(p.result()));
}

}  // namespace
}  // namespace astro::app
