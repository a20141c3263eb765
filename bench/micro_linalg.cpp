// E9: linear-algebra kernel micro-benchmarks (google-benchmark).
//
// The shapes mirror the hot paths: thin SVD of the d x (p+1) update matrix,
// symmetric eigensolve for the merge/baseline paths, QR re-orthogonalization
// hygiene, and the mat-vec kernels inside residual computation.

#include <benchmark/benchmark.h>

#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "stats/rng.h"

using namespace astro;

namespace {

void BM_SvdLeft_TallSkinny(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(1);
  const linalg::Matrix a = rng.gaussian_matrix(d, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd_left(a));
  }
  state.SetLabel(std::to_string(d) + "x" + std::to_string(k));
}
BENCHMARK(BM_SvdLeft_TallSkinny)
    ->Args({250, 6})
    ->Args({250, 11})
    ->Args({500, 11})
    ->Args({1000, 11})
    ->Args({2000, 11})
    ->Args({2000, 21});

void BM_SvdFull(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  stats::Rng rng(2);
  const linalg::Matrix a = rng.gaussian_matrix(d, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd(a));
  }
}
BENCHMARK(BM_SvdFull)->Arg(16)->Arg(32)->Arg(64);

void BM_EigSym(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  stats::Rng rng(3);
  const linalg::Matrix g = rng.gaussian_matrix(n + 2, n);
  const linalg::Matrix a = g.gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eig_sym(a));
  }
}
BENCHMARK(BM_EigSym)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Qr(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(4);
  const linalg::Matrix a = rng.gaussian_matrix(d, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::qr(a));
  }
}
BENCHMARK(BM_Qr)->Args({250, 11})->Args({1000, 11})->Args({2000, 21});

void BM_TransposeTimes(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(5);
  const linalg::Matrix e = rng.gaussian_matrix(d, k);
  const linalg::Vector y = rng.gaussian_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.transpose_times(y));
  }
}
BENCHMARK(BM_TransposeTimes)->Args({250, 10})->Args({2000, 10});

void BM_MatVec(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  stats::Rng rng(6);
  const linalg::Matrix a = rng.gaussian_matrix(d, d);
  const linalg::Vector x = rng.gaussian_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * x);
  }
}
BENCHMARK(BM_MatVec)->Arg(100)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
