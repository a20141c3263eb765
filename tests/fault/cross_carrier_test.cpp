// One seeded fault schedule across carriers: a single FaultInjector is both
// the pipeline's engine/channel injector and the TCP uplink's socket shim,
// so an engine kill, a channel corruption and an in-flight byte flip fire
// in the same supervised run — each at its own virtual trigger.
//
// Wire geometry the flip relies on (io/frame.h): a dim-8 unmasked tuple
// frame is 24 (header) + 24 (fixed payload fields) + 8 * 8 = 112 bytes,
// after a 24-byte HELLO, so stream byte 4096 is 40 bytes into data frame
// 36 — inside its payload, where only the CRC can catch the damage.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "app/pipeline.h"
#include "stats/rng.h"
#include "stream/fault.h"
#include "stream/net.h"
#include "tests/pca/test_data.h"

namespace astro::app {
namespace {

using stream::Fault;

TEST(CrossCarrierFault, OneScheduleDrivesEngineChannelAndTcp) {
  constexpr std::size_t kN = 1200;
  constexpr std::size_t kDim = 8;
  stats::Rng rng(2029);
  const auto model = pca::testing::make_model(rng, kDim, 2, 2.0, 0.05);
  std::vector<linalg::Vector> data;
  for (std::size_t i = 0; i < kN; ++i) {
    data.push_back(pca::testing::draw(model, rng));
  }

  auto fault = std::make_shared<stream::FaultInjector>(20);
  fault->kill_engine(0, 400);
  fault->corrupt_on_channel("chan.downlink->validate", 250, 1,
                            stream::CorruptionKind::kNaN);
  fault->flip_at(0, 4096);

  PipelineConfig cfg;
  cfg.pca.dim = kDim;
  cfg.pca.rank = 2;
  cfg.engines = 2;
  cfg.split = stream::SplitStrategy::kRoundRobin;
  cfg.sync_rate_hz = 0.0;
  cfg.supervise = true;
  cfg.checkpoint_every_tuples = 64;
  cfg.validate_ingest = true;
  cfg.validation.nonfinite_as_masked = false;  // NaN tuples -> quarantine
  cfg.fault_injector = fault;
  cfg.transport.enabled = true;
  cfg.transport.ack_every = 8;
  cfg.transport.tcp.retransmit_window = 16;
  cfg.transport.tcp.write_timeout = std::chrono::milliseconds(200);
  cfg.transport.tcp.ack_timeout = std::chrono::milliseconds(150);
  cfg.transport.tcp.backoff_initial = std::chrono::milliseconds(5);
  cfg.transport.tcp.backoff_max = std::chrono::milliseconds(40);
  cfg.transport.tcp.fault = fault;
  StreamingPcaPipeline pipeline(cfg, std::move(data));

  auto run = std::async(std::launch::async, [&] { pipeline.run(); });
  const bool finished =
      run.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  if (!finished) pipeline.stop();
  run.get();
  ASSERT_TRUE(finished) << "the pipeline did not drain";

  // Each scheduled kind fired exactly once, and nothing else fired.
  EXPECT_EQ(fault->injected(Fault::kKill), 1u);
  EXPECT_EQ(fault->injected(Fault::kCorrupt), 1u);
  EXPECT_EQ(fault->injected(Fault::kFlip), 1u);
  EXPECT_EQ(fault->injected(Fault::kReset), 0u);
  EXPECT_EQ(fault->injected(Fault::kDrop), 0u);

  // The killed engine recovered once; the other never went down.
  const auto stats = pipeline.engine_stats();
  EXPECT_EQ(stats[0].restarts, 1u);
  EXPECT_EQ(stats[1].restarts, 0u);

  // The flipped frame failed its CRC, was never acked, and the sender's
  // resume replayed it clean: every tuple crossed the wire exactly once.
  const stream::TcpServerCounters down =
      pipeline.transport_downlink()->counters();
  const stream::TcpSinkCounters up = pipeline.transport_uplink()->counters();
  EXPECT_EQ(down.crc_rejects, 1u);
  EXPECT_EQ(down.delivered, kN);
  EXPECT_EQ(up.accepted, kN);
  EXPECT_EQ(up.acked, kN);
  EXPECT_EQ(up.lossy_dropped, 0u);
  EXPECT_GE(up.retransmits, 1u);

  // The gate quarantined exactly the corrupted tuple, and conservation
  // holds through the crash: emitted = applied + quarantined.
  const auto* gate = pipeline.validator();
  EXPECT_EQ(gate->quarantined(), 1u);
  EXPECT_EQ(gate->quarantined_for(spectra::RejectReason::kNonFinite), 1u);
  std::uint64_t applied = 0;
  for (const auto& st : stats) applied += st.tuples;
  EXPECT_EQ(applied + gate->quarantined(), kN);
  EXPECT_EQ(pipeline.dead_letters()->count(),
            down.dead_letters + gate->quarantined());
}

}  // namespace
}  // namespace astro::app
