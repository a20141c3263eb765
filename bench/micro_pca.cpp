// E10: PCA-kernel micro-benchmarks: per-tuple streaming updates (classic vs
// robust, with and without gaps), eigensystem merging, and batch baselines
// (google-benchmark suites), plus a steady-state harness that reports the
// two numbers the hot-path discipline is graded on — tuples/sec and heap
// allocations per tuple — and writes them to BENCH_micro_pca.json.
//
//   micro_pca                      # steady-state table + JSON + micro suites
//   micro_pca --steady-only        # just the steady-state harness
//   micro_pca --json <path>        # JSON destination (default
//                                  # BENCH_micro_pca.json in the cwd)
//   micro_pca --baseline <path>    # embed a previously recorded steady-state
//                                  # object as "baseline_pre_pr" so the
//                                  # committed file carries before/after

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "pca/batch_pca.h"
#include "pca/exact_ipca.h"
#include "pca/incremental_pca.h"
#include "pca/merge.h"
#include "pca/robust_pca.h"
#include "src/perf/alloc_probe.h"
#include "stats/rng.h"

using namespace astro;

namespace {

std::vector<linalg::Vector> dataset(std::size_t n, std::size_t d,
                                    std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<linalg::Vector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.gaussian_vector(d));
  return out;
}

// ---------------------------------------------------------------------------
// Steady-state harness: initialized engine, pregenerated data, timed loop
// with the allocation probe around it.  This is the per-tuple data plane the
// paper's Fig. 6 throughput is made of — no channels, no threads, just
// observe().
// ---------------------------------------------------------------------------

struct SteadyRow {
  std::string name;
  std::size_t dim = 0;
  std::size_t rank = 0;
  std::size_t tuples = 0;
  std::size_t batch = 1;  ///< tuples absorbed per SVD (1 = per-tuple path)
  double tuples_per_sec = 0.0;
  double allocs_per_tuple = 0.0;
};

template <typename Engine>
SteadyRow measure_steady(std::string name, Engine& engine, std::size_t dim,
                         std::size_t rank, std::size_t iters,
                         const std::vector<linalg::Vector>& data) {
  std::size_t i = 0;
  while (!engine.initialized()) engine.observe(data[i++ % data.size()]);
  // Warm the workspace and the allocator before the measured window.
  for (std::size_t w = 0; w < 32; ++w) engine.observe(data[i++ % data.size()]);

  perf::AllocWindow window;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t n = 0; n < iters; ++n) {
    engine.observe(data[i++ % data.size()]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  SteadyRow row;
  row.name = std::move(name);
  row.dim = dim;
  row.rank = rank;
  row.tuples = iters;
  row.tuples_per_sec = secs > 0.0 ? double(iters) / secs : 0.0;
  row.allocs_per_tuple = double(window.allocations()) / double(iters);
  return row;
}

/// The masked path the engine operator runs one tuple at a time: a robust
/// rank 10+2 engine whose every tuple is missing its last 20% of pixels
/// (the BM_RobustUpdateWithGaps stream), behind measure_steady's interface.
struct MaskedRobust {
  pca::RobustIncrementalPca engine;
  pca::PixelMask mask;

  explicit MaskedRobust(const pca::RobustPcaConfig& cfg)
      : engine(cfg), mask(cfg.dim, true) {
    for (std::size_t i = 0; i < cfg.dim / 5; ++i) mask[cfg.dim - 1 - i] = false;
  }
  [[nodiscard]] bool initialized() const { return engine.initialized(); }
  void observe(const linalg::Vector& x) { engine.observe(x, mask); }
};

std::string steady_json(const std::vector<SteadyRow>& rows) {
  char buf[256];
  std::string json = "{\"runs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"dim\":%zu,\"rank\":%zu,\"tuples\":%zu,"
                  "\"batch\":%zu,\"tuples_per_sec\":%.1f,"
                  "\"allocs_per_tuple\":%.3f}",
                  i ? "," : "", rows[i].name.c_str(), rows[i].dim,
                  rows[i].rank, rows[i].tuples, rows[i].batch,
                  rows[i].tuples_per_sec, rows[i].allocs_per_tuple);
    json += buf;
  }
  // Exact-vs-truncated cost ratio per operating point: how many times
  // slower the O(d^2) reference recursion is than the classic rank-p
  // update it oracles for (>= 1; grows ~ d/p).
  json += "],\"exact_vs_truncated_cost_ratio\":[";
  bool first = true;
  for (const SteadyRow& exact : rows) {
    if (exact.name != "exact" || exact.tuples_per_sec <= 0.0) continue;
    for (const SteadyRow& classic : rows) {
      if (classic.name != "classic" || classic.dim != exact.dim) continue;
      std::snprintf(buf, sizeof(buf), "%s{\"dim\":%zu,\"rank\":%zu,\"ratio\":%.2f}",
                    first ? "" : ",", exact.dim, exact.rank,
                    classic.tuples_per_sec / exact.tuples_per_sec);
      json += buf;
      first = false;
    }
  }
  json += "]}";
  return json;
}

/// Batched counterpart of measure_steady: same engine, same stream, but
/// absorbed `b` tuples per observe_batch call (one SVD each).  The pointer
/// array lives outside the measured window, matching the stream engine's
/// reused batch_xs_ scratch.
SteadyRow measure_steady_batched(std::string name, pca::IncrementalPca& engine,
                                 std::size_t dim, std::size_t rank,
                                 std::size_t iters, std::size_t b,
                                 const std::vector<linalg::Vector>& data) {
  std::size_t i = 0;
  while (!engine.initialized()) engine.observe(data[i++ % data.size()]);
  std::vector<const linalg::Vector*> ptrs(b);
  auto fill = [&] {
    for (std::size_t k = 0; k < b; ++k) ptrs[k] = &data[i++ % data.size()];
  };
  for (std::size_t w = 0; w < 32 / b + 1; ++w) {  // warm the widened ws
    fill();
    engine.observe_batch(ptrs.data(), b);
  }

  const std::size_t batches = iters / b;
  perf::AllocWindow window;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t n = 0; n < batches; ++n) {
    fill();
    engine.observe_batch(ptrs.data(), b);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  SteadyRow row;
  row.name = std::move(name);
  row.dim = dim;
  row.rank = rank;
  row.tuples = batches * b;
  row.batch = b;
  row.tuples_per_sec = secs > 0.0 ? double(batches * b) / secs : 0.0;
  row.allocs_per_tuple = double(window.allocations()) / double(batches * b);
  return row;
}

SteadyRow measure_steady_batched(std::string name,
                                 pca::RobustIncrementalPca& engine,
                                 std::size_t dim, std::size_t rank,
                                 std::size_t iters, std::size_t b,
                                 const std::vector<linalg::Vector>& data) {
  std::size_t i = 0;
  while (!engine.initialized()) engine.observe(data[i++ % data.size()]);
  std::vector<const linalg::Vector*> ptrs(b);
  std::vector<pca::ObservationReport> reports(b);
  auto fill = [&] {
    for (std::size_t k = 0; k < b; ++k) ptrs[k] = &data[i++ % data.size()];
  };
  for (std::size_t w = 0; w < 32 / b + 1; ++w) {
    fill();
    engine.observe_batch(ptrs.data(), b, reports.data());
  }

  const std::size_t batches = iters / b;
  perf::AllocWindow window;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t n = 0; n < batches; ++n) {
    fill();
    engine.observe_batch(ptrs.data(), b, reports.data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  SteadyRow row;
  row.name = std::move(name);
  row.dim = dim;
  row.rank = rank;
  row.tuples = batches * b;
  row.batch = b;
  row.tuples_per_sec = secs > 0.0 ? double(batches * b) / secs : 0.0;
  row.allocs_per_tuple = double(window.allocations()) / double(batches * b);
  return row;
}

std::vector<SteadyRow> run_steady_state() {
  std::printf("=== Steady-state hot path (tuples/sec, heap allocs/tuple) "
              "===\n\n");
  std::printf("%-22s %6s %5s %8s %5s %14s %14s\n", "engine", "dim", "rank",
              "tuples", "batch", "tuples/sec", "allocs/tuple");

  std::vector<SteadyRow> rows;
  struct Point {
    std::size_t dim, rank, iters;
  };
  const std::vector<Point> points{{250, 10, 4000}, {1000, 10, 1500},
                                  {2000, 10, 600}};

  for (const Point& pt : points) {
    const auto data = dataset(512, pt.dim, 11 + pt.dim);
    pca::IncrementalPcaConfig cfg;
    cfg.dim = pt.dim;
    cfg.rank = pt.rank;
    pca::IncrementalPca engine(cfg);
    rows.push_back(measure_steady("classic", engine, pt.dim, pt.rank,
                                  pt.iters, data));
  }
  for (const Point& pt : points) {
    const auto data = dataset(512, pt.dim, 13 + pt.dim);
    pca::RobustPcaConfig cfg;
    cfg.dim = pt.dim;
    cfg.rank = pt.rank;
    pca::RobustIncrementalPca engine(cfg);
    rows.push_back(measure_steady("robust", engine, pt.dim, pt.rank, pt.iters,
                                  data));
  }
  for (const Point& pt : points) {
    const auto data = dataset(512, pt.dim, 17 + pt.dim);
    pca::RobustPcaConfig cfg;
    cfg.dim = pt.dim;
    cfg.rank = pt.rank;
    cfg.extra_rank = 2;
    MaskedRobust engine(cfg);
    rows.push_back(measure_steady("robust-masked", engine, pt.dim, pt.rank,
                                  pt.iters, data));
  }
  // Exact reference mode (DESIGN.md "Exact reference mode"): the O(d^2)
  // full-second-moment recursion at the same operating points.  Its cost
  // relative to the classic rank-p path is the exact_vs_truncated ratio
  // recorded in the JSON — the price of the oracle, quantified.
  for (const Point& pt : points) {
    const auto data = dataset(512, pt.dim, 11 + pt.dim);
    pca::ExactIpcaConfig cfg;
    cfg.dim = pt.dim;
    cfg.rank = pt.rank;
    pca::ExactIpca engine(cfg);
    rows.push_back(measure_steady("exact", engine, pt.dim, pt.rank,
                                  pt.iters / 4 + 1, data));
  }
  // Micro-batched path (DESIGN.md "Micro-batching"): same operating points,
  // b = 8 tuples per SVD.  The b = 1 rows above are the baseline the batch
  // speedup is graded against.
  for (const Point& pt : points) {
    const auto data = dataset(512, pt.dim, 11 + pt.dim);
    pca::IncrementalPcaConfig cfg;
    cfg.dim = pt.dim;
    cfg.rank = pt.rank;
    pca::IncrementalPca engine(cfg);
    rows.push_back(measure_steady_batched("classic-b8", engine, pt.dim,
                                          pt.rank, pt.iters, 8, data));
  }
  for (const Point& pt : points) {
    const auto data = dataset(512, pt.dim, 13 + pt.dim);
    pca::RobustPcaConfig cfg;
    cfg.dim = pt.dim;
    cfg.rank = pt.rank;
    pca::RobustIncrementalPca engine(cfg);
    rows.push_back(measure_steady_batched("robust-b8", engine, pt.dim,
                                          pt.rank, pt.iters, 8, data));
  }
  for (SteadyRow& r : rows) {
    std::printf("%-22s %6zu %5zu %8zu %5zu %14.0f %14.3f\n", r.name.c_str(),
                r.dim, r.rank, r.tuples, r.batch, r.tuples_per_sec,
                r.allocs_per_tuple);
  }
  std::printf("\n");
  return rows;
}

// ---------------------------------------------------------------------------
// google-benchmark micro suites (unchanged operating points).
// ---------------------------------------------------------------------------

void BM_ClassicUpdate(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto p = std::size_t(state.range(1));
  pca::IncrementalPcaConfig cfg;
  cfg.dim = d;
  cfg.rank = p;
  pca::IncrementalPca engine(cfg);
  const auto data = dataset(512, d, 11);
  std::size_t i = 0;
  while (!engine.initialized()) engine.observe(data[i++ % data.size()]);
  std::uint64_t tuples = 0;
  perf::AllocWindow window;
  for (auto _ : state) {
    engine.observe(data[i++ % data.size()]);
    ++tuples;
  }
  state.counters["allocs_per_tuple"] =
      benchmark::Counter(double(window.allocations()) / double(tuples));
  state.counters["tuples_per_sec"] =
      benchmark::Counter(double(tuples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClassicUpdate)->Args({250, 10})->Args({1000, 10})->Args({2000, 10});

void BM_RobustUpdate(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto p = std::size_t(state.range(1));
  pca::RobustPcaConfig cfg;
  cfg.dim = d;
  cfg.rank = p;
  pca::RobustIncrementalPca engine(cfg);
  const auto data = dataset(512, d, 13);
  std::size_t i = 0;
  while (!engine.initialized()) engine.observe(data[i++ % data.size()]);
  std::uint64_t tuples = 0;
  perf::AllocWindow window;
  for (auto _ : state) {
    engine.observe(data[i++ % data.size()]);
    ++tuples;
  }
  state.counters["allocs_per_tuple"] =
      benchmark::Counter(double(window.allocations()) / double(tuples));
  state.counters["tuples_per_sec"] =
      benchmark::Counter(double(tuples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RobustUpdate)
    ->Args({250, 5})
    ->Args({250, 10})
    ->Args({500, 10})
    ->Args({1000, 10})
    ->Args({2000, 10});

void BM_RobustUpdateWithGaps(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  pca::RobustPcaConfig cfg;
  cfg.dim = d;
  cfg.rank = 10;
  cfg.extra_rank = 2;
  pca::RobustIncrementalPca engine(cfg);
  const auto data = dataset(512, d, 17);
  pca::PixelMask mask(d, true);
  for (std::size_t i = 0; i < d / 5; ++i) mask[d - 1 - i] = false;  // 20% gap
  std::size_t i = 0;
  while (!engine.initialized()) engine.observe(data[i++ % data.size()]);
  for (auto _ : state) {
    engine.observe(data[i++ % data.size()], mask);
  }
}
BENCHMARK(BM_RobustUpdateWithGaps)->Arg(250)->Arg(1000);

void BM_Merge(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto p = std::size_t(state.range(1));
  stats::Rng rng(19);
  auto make_system = [&](std::uint64_t seed) {
    stats::Rng r(seed);
    linalg::Matrix basis = stats::random_orthonormal(r, d, p);
    linalg::Vector lambda(p);
    for (std::size_t k = 0; k < p; ++k) lambda[k] = 1.0 / double(k + 1);
    stats::RobustRunningSums sums(1.0);
    sums.update(1.0, 1.0);
    return pca::EigenSystem(r.gaussian_vector(d), std::move(basis),
                            std::move(lambda), 0.1, sums, 100);
  };
  const pca::EigenSystem a = make_system(1), b = make_system(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pca::merge(a, b));
  }
}
BENCHMARK(BM_Merge)->Args({250, 10})->Args({1000, 10})->Args({2000, 10});

void BM_MergeEqualMeans(benchmark::State& state) {
  // The eq. (16) fast path used by live synchronization.
  const auto d = std::size_t(state.range(0));
  constexpr std::size_t p = 10;
  auto make_system = [&](std::uint64_t seed) {
    stats::Rng r(seed);
    linalg::Matrix basis = stats::random_orthonormal(r, d, p);
    linalg::Vector lambda(p);
    for (std::size_t k = 0; k < p; ++k) lambda[k] = 1.0 / double(k + 1);
    stats::RobustRunningSums sums(1.0);
    sums.update(1.0, 1.0);
    return pca::EigenSystem(r.gaussian_vector(d), std::move(basis),
                            std::move(lambda), 0.1, sums, 100);
  };
  const pca::EigenSystem a = make_system(3), b = make_system(4);
  pca::MergeOptions opts;
  opts.assume_equal_means = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pca::merge(a, b, opts));
  }
}
BENCHMARK(BM_MergeEqualMeans)->Arg(250)->Arg(1000)->Arg(2000);

void BM_BatchPca(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto data = dataset(n, 100, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pca::batch_pca(data, 5));
  }
}
BENCHMARK(BM_BatchPca)->Arg(100)->Arg(400);

void BM_SquaredResidual(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  stats::Rng rng(29);
  linalg::Matrix basis = stats::random_orthonormal(rng, d, 10);
  linalg::Vector lambda(10, 1.0);
  pca::EigenSystem sys(rng.gaussian_vector(d), std::move(basis),
                       std::move(lambda), 0.1, stats::RobustRunningSums(1.0),
                       10);
  const linalg::Vector x = rng.gaussian_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.squared_residual(x));
  }
}
BENCHMARK(BM_SquaredResidual)->Arg(250)->Arg(2000);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::take_json_arg(argc, argv, "BENCH_micro_pca.json");
  const std::string baseline_path =
      bench::take_value_arg(argc, argv, "--baseline", "");
  const bool steady_only = bench::take_switch(argc, argv, "--steady-only");

  const std::vector<SteadyRow> rows = run_steady_state();
  std::string json = "{\"bench\":\"micro_pca\",\"current\":";
  json += steady_json(rows);
  json += ",\"baseline_pre_pr\":";
  const std::string baseline = bench::read_file(baseline_path);
  json += baseline.empty() ? "null" : baseline;
  json += "}";
  bench::write_json_file(json_path, json);

  if (steady_only) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
