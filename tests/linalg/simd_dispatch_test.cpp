// cpuid-dispatch verification (ISSUE 8): every SIMD tier the running CPU
// supports must agree with the scalar tier.  The contract in ISSUE 8 asks
// for 1e-12 agreement; the kernels are designed lane-compatible (no FMA,
// pinned reduction order), so this suite pins the stronger property —
// bit-identical results — with exact EXPECT_EQ.  Runs under the asan-perf
// and tsan-fault-stress presets via the `simd` label.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/svd.h"
#include "stats/rng.h"

namespace {

using astro::linalg::Matrix;
using astro::linalg::SvdWorkspace;
using astro::linalg::ThinUView;
using astro::linalg::Vector;
namespace simd = astro::linalg::simd;

std::vector<simd::Mode> supported_vector_modes() {
  std::vector<simd::Mode> modes;
  const simd::Mode best = simd::detect();
  if (best >= simd::Mode::kAvx2) modes.push_back(simd::Mode::kAvx2);
  if (best >= simd::Mode::kAvx512) modes.push_back(simd::Mode::kAvx512);
  return modes;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  astro::stats::Rng rng(seed);
  std::vector<double> out(n);
  for (double& x : out) x = rng.gaussian();
  return out;
}

TEST(SimdDispatch, DetectReportsRunnableMode) {
  const simd::Mode best = simd::detect();
  // Whatever cpuid reports must actually execute: run every kernel once.
  const simd::Kernels& k = simd::kernels_for(best);
  EXPECT_EQ(k.mode, best);
  std::vector<double> a = random_doubles(37, 1);
  std::vector<double> b = random_doubles(37, 2);
  const double d = k.dot(a.data(), b.data(), a.size());
  EXPECT_TRUE(std::isfinite(d));
  k.axpy(a.data(), b.data(), 0.5, a.size());
  k.rotate2(a.data(), b.data(), 0.8, 0.6, a.size());
}

TEST(SimdDispatch, ActiveDefaultsToDetectedBest) {
  // No ASTRO_SIMD override in the test environment, so the resolved table
  // must be the cpuid best (set_mode tests below restore this).
  ASSERT_TRUE(simd::set_mode(simd::detect()));
  EXPECT_EQ(simd::active_mode(), simd::detect());
}

TEST(SimdDispatch, ParseModeRoundTrips) {
  EXPECT_EQ(simd::parse_mode("scalar"), simd::Mode::kScalar);
  EXPECT_EQ(simd::parse_mode("avx2"), simd::Mode::kAvx2);
  EXPECT_EQ(simd::parse_mode("avx512"), simd::Mode::kAvx512);
  EXPECT_EQ(simd::parse_mode("auto"), simd::detect());
  EXPECT_FALSE(simd::parse_mode("sse9").has_value());
  EXPECT_EQ(std::string(simd::mode_name(simd::Mode::kScalar)), "scalar");
  EXPECT_EQ(std::string(simd::mode_name(simd::Mode::kAvx2)), "avx2");
  EXPECT_EQ(std::string(simd::mode_name(simd::Mode::kAvx512)), "avx512");
}

TEST(SimdDispatch, SetModeRejectsUnsupported) {
  // Scalar is always supported.
  EXPECT_TRUE(simd::set_mode(simd::Mode::kScalar));
  EXPECT_EQ(simd::active_mode(), simd::Mode::kScalar);
  ASSERT_TRUE(simd::set_mode(simd::detect()));
}

// Every vector tier must produce bit-identical results to scalar on every
// length, including all tail residues (n mod 8 = 0..7) and the empty case.
TEST(SimdDispatch, DotBitIdenticalToScalarAllTails) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Mode::kScalar);
  for (simd::Mode m : supported_vector_modes()) {
    const simd::Kernels& vec = simd::kernels_for(m);
    for (std::size_t n = 0; n <= 67; ++n) {
      const auto a = random_doubles(n, 100 + n);
      const auto b = random_doubles(n, 200 + n);
      const double want = scalar.dot(a.data(), b.data(), n);
      const double got = vec.dot(a.data(), b.data(), n);
      EXPECT_EQ(want, got) << simd::mode_name(m) << " dot n=" << n;
      // The ISSUE-level contract (implied by bit-identity, asserted anyway
      // so a future looser kernel still has a meaningful bound to beat):
      EXPECT_NEAR(want, got, 1e-12 * (1.0 + std::abs(want)));
    }
  }
}

TEST(SimdDispatch, AxpyBitIdenticalToScalarAllTails) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Mode::kScalar);
  for (simd::Mode m : supported_vector_modes()) {
    const simd::Kernels& vec = simd::kernels_for(m);
    for (std::size_t n = 0; n <= 67; ++n) {
      auto y_want = random_doubles(n, 300 + n);
      auto y_got = y_want;
      const auto x = random_doubles(n, 400 + n);
      scalar.axpy(y_want.data(), x.data(), -1.7, n);
      vec.axpy(y_got.data(), x.data(), -1.7, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(y_want[i], y_got[i])
            << simd::mode_name(m) << " axpy n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdDispatch, Rotate2BitIdenticalToScalarAllTails) {
  const simd::Kernels& scalar = simd::kernels_for(simd::Mode::kScalar);
  const double c = std::cos(0.37), s = std::sin(0.37);
  for (simd::Mode m : supported_vector_modes()) {
    const simd::Kernels& vec = simd::kernels_for(m);
    for (std::size_t n = 0; n <= 67; ++n) {
      auto x_want = random_doubles(n, 500 + n);
      auto y_want = random_doubles(n, 600 + n);
      auto x_got = x_want;
      auto y_got = y_want;
      scalar.rotate2(x_want.data(), y_want.data(), c, s, n);
      vec.rotate2(x_got.data(), y_got.data(), c, s, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(x_want[i], x_got[i])
            << simd::mode_name(m) << " rotate2.x n=" << n << " i=" << i;
        ASSERT_EQ(y_want[i], y_got[i])
            << simd::mode_name(m) << " rotate2.y n=" << n << " i=" << i;
      }
    }
  }
}

// End-to-end pin: the whole Jacobi SVD must produce bit-identical factors
// whichever tier is active, since every FP op it performs flows through
// the dispatched kernels or mode-independent scalar code.
TEST(SimdDispatch, SvdLeftBitIdenticalAcrossModes) {
  astro::stats::Rng rng(7781);
  Matrix a(96, 11);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.gaussian();
  }

  ASSERT_TRUE(simd::set_mode(simd::Mode::kScalar));
  Matrix u_scalar;
  Vector s_scalar;
  {
    SvdWorkspace ws;
    astro::linalg::svd_left_inplace(a, ws, ThinUView{&u_scalar, &s_scalar});
  }

  for (simd::Mode m : supported_vector_modes()) {
    ASSERT_TRUE(simd::set_mode(m));
    Matrix u_vec;
    Vector s_vec;
    {
      SvdWorkspace ws;
      astro::linalg::svd_left_inplace(a, ws, ThinUView{&u_vec, &s_vec});
    }
    ASSERT_EQ(u_scalar.rows(), u_vec.rows());
    ASSERT_EQ(u_scalar.cols(), u_vec.cols());
    for (std::size_t i = 0; i < s_scalar.size(); ++i) {
      ASSERT_EQ(s_scalar[i], s_vec[i]) << simd::mode_name(m) << " s[" << i
                                       << "]";
    }
    for (std::size_t i = 0; i < u_scalar.rows(); ++i) {
      for (std::size_t j = 0; j < u_scalar.cols(); ++j) {
        ASSERT_EQ(u_scalar(i, j), u_vec(i, j))
            << simd::mode_name(m) << " u(" << i << "," << j << ")";
      }
    }
  }
  ASSERT_TRUE(simd::set_mode(simd::detect()));
}

// Matrix products flow through the dispatched axpy; the matmul regression
// test pins bit-identity against naive loops for the *active* mode, this
// one pins it across modes.
TEST(SimdDispatch, MultiplyIntoBitIdenticalAcrossModes) {
  astro::stats::Rng rng(4242);
  Matrix a(23, 17), b(17, 29);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.gaussian();
  }
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.gaussian();
  }

  ASSERT_TRUE(simd::set_mode(simd::Mode::kScalar));
  Matrix want;
  a.multiply_into(b, want);
  for (simd::Mode m : supported_vector_modes()) {
    ASSERT_TRUE(simd::set_mode(m));
    Matrix got;
    a.multiply_into(b, got);
    for (std::size_t i = 0; i < want.rows(); ++i) {
      for (std::size_t j = 0; j < want.cols(); ++j) {
        ASSERT_EQ(want(i, j), got(i, j))
            << simd::mode_name(m) << " (" << i << "," << j << ")";
      }
    }
  }
  ASSERT_TRUE(simd::set_mode(simd::detect()));
}

}  // namespace
