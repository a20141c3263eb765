#pragma once

// Deterministic random-number utilities for workload generation and tests.
//
// A thin façade over std::mt19937_64 so every generator in the repo draws
// from an explicitly-seeded engine — benchmarks and tests are reproducible
// run to run, and parallel engines can be given decorrelated seeds.

#include <cstdint>
#include <random>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace astro::stats {

/// One splitmix64 step: advances `state` by the golden-ratio increment and
/// returns the mixed value.  The one splitmix64 in the program, behind every
/// seeded fault schedule and the TCP sink's backoff jitter.
[[nodiscard]] constexpr std::uint64_t splitmix64(
    std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return uniform_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::size_t index(std::size_t n) {
    std::uniform_int_distribution<std::size_t> d(0, n - 1);
    return d(engine_);
  }

  /// Standard normal.
  double gaussian() { return normal_(engine_); }

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Bernoulli with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given rate.
  double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }

  /// Vector of iid standard normals.
  linalg::Vector gaussian_vector(std::size_t n) {
    linalg::Vector v(n);
    for (auto& x : v) x = gaussian();
    return v;
  }

  /// Matrix of iid standard normals.
  linalg::Matrix gaussian_matrix(std::size_t rows, std::size_t cols) {
    linalg::Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) m(r, c) = gaussian();
    }
    return m;
  }

  /// A fresh engine seeded from this one — decorrelated child streams for
  /// parallel generators.
  Rng split() { return Rng(engine_()); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

/// Random d x k matrix with orthonormal columns (QR of a Gaussian matrix):
/// the standard way to draw a uniformly random subspace, used to build
/// ground-truth eigenbases in tests and workloads.
[[nodiscard]] linalg::Matrix random_orthonormal(Rng& rng, std::size_t d,
                                                std::size_t k);

}  // namespace astro::stats
