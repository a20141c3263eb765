// Proof of the allocation-free hot path: once a streaming engine is
// initialized and warmed, observe() performs ZERO heap allocations.
//
// alloc_probe.h replaces the global operator new/delete for THIS binary
// (exactly one TU may include it per binary — this is that TU for
// test_perf) and counts every allocation; AllocWindow measures a span.
// Assertions run after the measured loops so gtest's own bookkeeping
// allocations cannot leak into the counted window.

#include "src/perf/alloc_probe.h"

#include <gtest/gtest.h>

#include <vector>

#include "app/pipeline.h"
#include "linalg/svd.h"
#include "pca/exact_ipca.h"
#include "pca/health.h"
#include "pca/incremental_pca.h"
#include "pca/robust_pca.h"
#include "serve/snapshot_server.h"
#include "spectra/validate.h"
#include "stats/rng.h"

namespace astro {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr std::size_t kDim = 64;
constexpr std::size_t kRank = 5;
constexpr std::size_t kSteadyCalls = 1000;
constexpr std::size_t kWarmup = 64;

std::vector<Vector> make_stream(std::uint64_t seed, std::size_t count) {
  stats::Rng rng(seed);
  std::vector<Vector> data;
  data.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data.push_back(rng.gaussian_vector(kDim));
  }
  return data;
}

TEST(AllocCount, ClassicObserveIsAllocationFreeAtSteadyState) {
  pca::IncrementalPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::IncrementalPca engine(cfg);

  const auto data = make_stream(101, cfg.init_count + kWarmup + kSteadyCalls);
  std::size_t i = 0;
  for (; i < cfg.init_count + kWarmup; ++i) engine.observe(data[i]);
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  for (; i < data.size(); ++i) engine.observe(data[i]);
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "classic observe() allocated on the hot path";
  EXPECT_LE(engine.eigensystem().basis_drift(), 1e-8);
}

TEST(AllocCount, RobustObserveIsAllocationFreeAtSteadyState) {
  pca::RobustPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::RobustIncrementalPca engine(cfg);

  const auto data =
      make_stream(202, cfg.init_count + kWarmup + kSteadyCalls);
  std::size_t i = 0;
  for (; i < cfg.init_count + kWarmup; ++i) engine.observe(data[i]);
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  for (; i < data.size(); ++i) engine.observe(data[i]);
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "robust observe() allocated on the hot path";
  EXPECT_LE(engine.eigensystem().basis_drift(), 1e-8);
}

TEST(AllocCount, RobustObserveWithOutliersIsAllocationFree) {
  // The outlier branch (rejected_residuals_ bookkeeping) must also stay off
  // the allocator: the run buffer is reserved to the reset threshold.
  pca::RobustPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::RobustIncrementalPca engine(cfg);

  auto data = make_stream(303, cfg.init_count + kWarmup + kSteadyCalls);
  // Inject gross outliers at 5% after the warm-up region.
  for (std::size_t i = cfg.init_count + kWarmup; i < data.size(); i += 20) {
    for (std::size_t r = 0; r < kDim; ++r) data[i][r] *= 50.0;
  }
  std::size_t i = 0;
  for (; i < cfg.init_count + kWarmup; ++i) engine.observe(data[i]);
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  std::uint64_t outliers = 0;
  for (; i < data.size(); ++i) {
    if (engine.observe(data[i]).outlier) ++outliers;
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "outlier handling allocated on the hot path";
  EXPECT_GT(outliers, 0u) << "test vacuous: no outlier was actually flagged";
}

/// Redshift-like coverage: a contiguous masked band whose position and
/// width vary per observation; every fourth observation is complete.
pca::PixelMask band_mask(stats::Rng& rng, std::size_t i) {
  pca::PixelMask mask(kDim, true);
  if (i % 4 == 3) return mask;
  const std::size_t width = 4 + rng.index(kDim / 4);
  const std::size_t lo = rng.index(kDim - width);
  for (std::size_t r = lo; r < lo + width; ++r) mask[r] = false;
  return mask;
}

TEST(AllocCount, RobustMaskedObserveIsAllocationFreeAtSteadyState) {
  // Gap patching (masked least squares + Cholesky) and the §II-D corrected
  // residual run in the engine workspace: once the first gappy tuples have
  // sized it, a masked observe() allocates nothing either.
  pca::RobustPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  cfg.extra_rank = 2;
  pca::RobustIncrementalPca engine(cfg);

  const auto data =
      make_stream(404, cfg.init_count + kWarmup + kSteadyCalls);
  stats::Rng rng(405);
  std::vector<pca::PixelMask> masks;
  masks.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    masks.push_back(band_mask(rng, i));
  }
  std::size_t i = 0;
  for (; i < cfg.init_count + kWarmup; ++i) engine.observe(data[i], masks[i]);
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  std::size_t patched = 0;
  for (; i < data.size(); ++i) {
    patched += engine.observe(data[i], masks[i]).patched_pixels;
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "masked robust observe() allocated on the hot path";
  EXPECT_GT(patched, 0u) << "test vacuous: no pixel was patched";
  EXPECT_LE(engine.eigensystem().basis_drift(), 1e-8);
}

TEST(AllocCount, ExactObserveIsAllocationFreeAtSteadyState) {
  // The exact reference engine's observe() is a rank-1 in-place update of
  // the d x d second-moment matrix — no SVD, no emit.  Steady state must
  // be allocation-free exactly like the truncated engines; only the lazy
  // eigensystem() emit (outside the window) pays an eigendecomposition.
  pca::ExactIpcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::ExactIpca engine(cfg);

  const auto data = make_stream(808, cfg.init_count + kWarmup + kSteadyCalls);
  std::size_t i = 0;
  for (; i < cfg.init_count + kWarmup; ++i) engine.observe(data[i]);
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  for (; i < data.size(); ++i) engine.observe(data[i]);
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "exact observe() allocated on the hot path";
  EXPECT_EQ(engine.observations(), data.size());
}

TEST(AllocCount, ClassicObserveBatchIsAllocationFreeAtSteadyState) {
  // The batched path widens the workspace to d x (p + b); once warm at that
  // shape, absorbing a full batch — one SVD per b tuples — must stay off
  // the allocator exactly like the per-tuple path.
  constexpr std::size_t kBatch = 8;
  pca::IncrementalPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::IncrementalPca engine(cfg);

  const auto data = make_stream(606, cfg.init_count + kWarmup + kSteadyCalls);
  std::size_t i = 0;
  std::vector<const Vector*> ptrs(kBatch);
  for (; i < cfg.init_count + kWarmup; i += kBatch) {
    for (std::size_t k = 0; k < kBatch; ++k) ptrs[k] = &data[i + k];
    engine.observe_batch(ptrs.data(), kBatch);  // warms the widened ws
  }
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  for (; i + kBatch <= data.size(); i += kBatch) {
    for (std::size_t k = 0; k < kBatch; ++k) ptrs[k] = &data[i + k];
    engine.observe_batch(ptrs.data(), kBatch);
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "classic observe_batch allocated on the hot path";
  EXPECT_LE(engine.eigensystem().basis_drift(), 1e-8);
}

TEST(AllocCount, RobustObserveBatchIsAllocationFreeAtSteadyState) {
  constexpr std::size_t kBatch = 8;
  pca::RobustPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::RobustIncrementalPca engine(cfg);

  auto data = make_stream(707, cfg.init_count + kWarmup + kSteadyCalls);
  // Gross outliers inside the measured region: the rejected-tuple branch
  // (zero-filled A columns, γ₂ = 1 bookkeeping) must also be free.
  for (std::size_t i = cfg.init_count + kWarmup; i < data.size(); i += 20) {
    for (std::size_t r = 0; r < kDim; ++r) data[i][r] *= 50.0;
  }
  std::size_t i = 0;
  std::vector<const Vector*> ptrs(kBatch);
  std::vector<pca::ObservationReport> reports(kBatch);
  for (; i < cfg.init_count + kWarmup; i += kBatch) {
    for (std::size_t k = 0; k < kBatch; ++k) ptrs[k] = &data[i + k];
    engine.observe_batch(ptrs.data(), kBatch, reports.data());
  }
  ASSERT_TRUE(engine.initialized());

  perf::AllocWindow window;
  std::uint64_t outliers = 0;
  for (; i + kBatch <= data.size(); i += kBatch) {
    for (std::size_t k = 0; k < kBatch; ++k) ptrs[k] = &data[i + k];
    engine.observe_batch(ptrs.data(), kBatch, reports.data());
    for (const auto& r : reports) outliers += r.outlier ? 1 : 0;
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "robust observe_batch allocated on the hot path";
  EXPECT_GT(outliers, 0u) << "test vacuous: no outlier in the batched region";
}

TEST(AllocCount, SvdLeftInplaceIsAllocationFreeWhenWarm) {
  stats::Rng rng(404);
  const Matrix a = rng.gaussian_matrix(kDim, kRank + 1);
  linalg::SvdWorkspace ws;
  Matrix u;
  Vector s;
  linalg::svd_left_inplace(a, ws, linalg::ThinUView{&u, &s});  // warm

  perf::AllocWindow window;
  linalg::svd_left_inplace(a, ws, linalg::ThinUView{&u, &s});
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "warm svd_left_inplace allocated";
  EXPECT_LE(linalg::orthonormality_error(u), 1e-10);
}

TEST(AllocCount, WriteIntoKernelsAreAllocationFreeWhenWarm) {
  stats::Rng rng(505);
  const Matrix a = rng.gaussian_matrix(32, 8);
  const Matrix b = rng.gaussian_matrix(8, 8);
  const Vector v = rng.gaussian_vector(32);
  Matrix mout;
  Matrix gout;
  Vector vout;
  a.multiply_into(b, mout);  // warm all three destinations
  a.gram_into(gout);
  a.transpose_times_into(v, vout);

  perf::AllocWindow window;
  a.multiply_into(b, mout);
  a.gram_into(gout);
  a.transpose_times_into(v, vout);
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "warm write-into kernels allocated";
}

TEST(AllocCount, ValidateAcceptPathIsAllocationFree) {
  // The ingest gate sits on every tuple: its accept path (clean tuple,
  // in-place scans, optional short-run interpolation over an existing
  // mask) must not touch the allocator.  Only the defective branch that
  // promotes NaN pixels into a brand-new mask may allocate.
  spectra::ValidationPolicy policy;
  policy.expected_dim = kDim;
  policy.max_abs_flux = 1e6;
  policy.max_interp_run = 2;

  const auto data = make_stream(401, kSteadyCalls);
  std::vector<Vector> tuples = data;         // warm, owned buffers
  pca::PixelMask gappy(kDim, true);
  gappy[kDim / 2] = false;                   // one short run to interpolate
  std::vector<pca::PixelMask> masks(kSteadyCalls);
  for (std::size_t i = 0; i < kSteadyCalls; i += 2) masks[i] = gappy;

  perf::AllocWindow window;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kSteadyCalls; ++i) {
    const auto out = spectra::validate_and_repair(tuples[i], masks[i], policy);
    if (out.ok()) ++accepted;
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "validation accept/repair path allocated";
  EXPECT_EQ(accepted, kSteadyCalls);
}

TEST(AllocCount, HealthCheckIsAllocationFreeWhenWarm) {
  // The watchdog runs on a tuple-count cadence inside the engine's state
  // lock; a warm workspace must keep it off the allocator.
  pca::IncrementalPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::IncrementalPca engine(cfg);
  const auto data = make_stream(409, cfg.init_count + kWarmup);
  for (const auto& x : data) engine.observe(x);
  ASSERT_TRUE(engine.initialized());

  pca::HealthWorkspace ws;
  pca::HealthThresholds thresholds;
  ASSERT_TRUE(pca::check_health(engine.eigensystem(), thresholds, ws).ok());

  perf::AllocWindow window;
  bool ok = true;
  for (int i = 0; i < 100; ++i) {
    ok = ok && pca::check_health(engine.eigensystem(), thresholds, ws).ok();
    ok = ok && pca::all_finite(engine.eigensystem());
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "warm health check allocated";
  EXPECT_TRUE(ok);
}

TEST(AllocCount, ServeReaderPathIsAllocationFreeAtSteadyState) {
  // The serving layer's reader contract (DESIGN.md "Serving layer"): once
  // a reader's workspace is warm, project / residual_score / cached top-k
  // queries perform ZERO heap allocations — the version load is a
  // shared_ptr refcount bump, the scratch reuses caller-owned capacity,
  // and a cache hit hands back the shared immutable result.
  pca::RobustPcaConfig cfg;
  cfg.dim = kDim;
  cfg.rank = kRank;
  pca::RobustIncrementalPca engine(cfg);
  const auto data = make_stream(501, cfg.init_count + kWarmup);
  for (const auto& x : data) engine.observe(x);
  ASSERT_TRUE(engine.initialized());

  serve::SnapshotServer server;
  ASSERT_EQ(server.publish(engine.eigensystem(), 0, 1), 1u);

  serve::QueryWorkspace ws;
  serve::ProjectionResult proj;
  serve::ResidualResult res;
  std::shared_ptr<const serve::TopKResult> topk;
  const Vector probe = data.back();
  // Warm-up: sizes the workspace/result capacities and fills the top-k
  // cache slot (the one legitimate allocation site, paid once per
  // (version, k)).
  ASSERT_EQ(server.project(probe, ws, proj), serve::QueryStatus::kOk);
  ASSERT_EQ(server.residual_score(probe, ws, res), serve::QueryStatus::kOk);
  ASSERT_EQ(server.top_k_components(kRank, topk), serve::QueryStatus::kOk);

  perf::AllocWindow window;
  bool ok = true;
  for (std::size_t i = 0; i < kSteadyCalls; ++i) {
    ok = ok && server.project(probe, ws, proj) == serve::QueryStatus::kOk;
    ok = ok &&
         server.residual_score(probe, ws, res) == serve::QueryStatus::kOk;
    ok = ok &&
         server.top_k_components(kRank, topk) == serve::QueryStatus::kOk;
  }
  const std::uint64_t allocs = window.allocations();

  EXPECT_EQ(allocs, 0u) << "serve reader path allocated at steady state";
  EXPECT_TRUE(ok);
  EXPECT_EQ(server.cache_misses(), 1u);  // warm-up only; the loop all hit
  EXPECT_EQ(server.cache_hits(), kSteadyCalls);
}

/// Allocations of one full-pipeline run over `tuples` tuples (see
/// FullPipelineSteadyStateIsAllocationFreePerTuple), with redshift-band
/// masks on most tuples when `masked`, and the TCP transport between the
/// source and the split when `tcp`.
std::uint64_t full_pipeline_allocations(std::size_t tuples, bool masked,
                                        bool tcp) {
  stats::Rng rng(7707);  // same seed: the warm prefix is identical
  std::vector<Vector> data;
  std::vector<pca::PixelMask> masks;
  data.reserve(tuples);
  for (std::size_t i = 0; i < tuples; ++i) {
    data.push_back(rng.gaussian_vector(kDim));
    if (masked) masks.push_back(band_mask(rng, i));
  }
  app::PipelineConfig cfg;
  cfg.pca.dim = kDim;
  cfg.pca.rank = kRank;
  cfg.pca.extra_rank = masked ? 2 : 0;
  cfg.engines = 4;
  cfg.batch_max = 8;
  cfg.validate_ingest = true;
  cfg.sync_rate_hz = 0.0;      // no control plane (see below)
  cfg.transport.enabled = tcp;
  app::StreamingPcaPipeline pipeline(cfg, std::move(data), std::move(masks));

  perf::AllocWindow window;
  pipeline.run();
  return window.allocations();
}

/// Marginal allocations per tuple: the allocation difference between two
/// runs identical in everything but stream length.
double full_pipeline_allocs_per_tuple(bool masked, bool tcp = false) {
  constexpr std::size_t kWarmTuples = 600;
  constexpr std::size_t kExtraTuples = 1000;
  const std::uint64_t base =
      full_pipeline_allocations(kWarmTuples, masked, tcp);
  const std::uint64_t longer =
      full_pipeline_allocations(kWarmTuples + kExtraTuples, masked, tcp);
  return longer <= base ? 0.0 : double(longer - base) / double(kExtraTuples);
}

TEST(AllocCount, FullPipelineSteadyStateIsAllocationFreePerTuple) {
  // The e2e version of the per-class probes above (ISSUE 8): the WHOLE
  // pipeline — replay source leasing arena slabs, ingest validation in the
  // split, ring channels, four batching engines — must have ~zero
  // *marginal* allocation cost per tuple once warm.
  //
  // Differential two-run design: a pipeline run has a real fixed
  // allocation budget (thread spawns, per-engine init-phase buffering,
  // gtest plumbing) that a single AllocWindow cannot separate from the
  // per-tuple cost.  So run two pipelines identical in everything but
  // stream length and attribute the allocation *difference* to the extra
  // tuples.  Sync, outlier collection, checkpoints, and the samplers stay
  // off: their cadences are wall-clock-driven, which would make the two
  // runs differ by more than the stream length.
  EXPECT_LT(full_pipeline_allocs_per_tuple(/*masked=*/false), 0.05)
      << "full pipeline allocated per tuple at steady state";
}

TEST(AllocCount, FullPipelineWithMasksIsAllocationFreePerTuple) {
  // Same differential design with gappy spectra: the masks ride the arena
  // slabs, and the engines patch them in their workspaces.
  EXPECT_LT(full_pipeline_allocs_per_tuple(/*masked=*/true), 0.05)
      << "masked full pipeline allocated per tuple at steady state";
}

TEST(AllocCount, FullPipelineOverTcpIsAllocationFreePerTuple) {
  // The same differential design with the TCP transport in the data path:
  // the sink encodes each tuple into its frame ring and releases the slab,
  // the server decodes into an arena lease, and acks are by-value frames.
  EXPECT_LT(full_pipeline_allocs_per_tuple(/*masked=*/false, /*tcp=*/true),
            0.05)
      << "TCP pipeline allocated per tuple at steady state";
}

TEST(AllocCount, ProbeCountsAllocations) {
  // Sanity check that the probe is actually live in this binary.  A direct
  // call to the replaceable function (unlike a new-expression) cannot be
  // elided by the optimizer.
  perf::AllocWindow window;
  void* p = ::operator new(64);
  const std::uint64_t allocs = window.allocations();
  ::operator delete(p);
  EXPECT_GE(allocs, 1u);
}

}  // namespace
}  // namespace astro
