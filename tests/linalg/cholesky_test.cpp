#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace astro::linalg {
namespace {

using astro::stats::Rng;

Matrix random_spd(Rng& rng, std::size_t n) {
  Matrix g = rng.gaussian_matrix(n + 3, n);
  Matrix a = g.gram();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.1;  // well conditioned
  return a;
}

TEST(Cholesky, FactorsIdentity) {
  const auto l = cholesky(Matrix::identity(4));
  ASSERT_TRUE(l.has_value());
  EXPECT_TRUE(approx_equal(*l, Matrix::identity(4), 1e-15));
}

TEST(Cholesky, ReconstructsSpdMatrix) {
  Rng rng(37);
  const Matrix a = random_spd(rng, 6);
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_TRUE(approx_equal(*l * l->transpose(), a, 1e-10));
}

TEST(Cholesky, LowerTriangular) {
  Rng rng(41);
  const Matrix a = random_spd(rng, 5);
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) EXPECT_EQ((*l)(i, j), 0.0);
  }
}

TEST(Cholesky, IndefiniteReturnsNullopt) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, SolveRoundTrip) {
  Rng rng(43);
  const Matrix a = random_spd(rng, 7);
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  const Vector x_true = rng.gaussian_vector(7);
  const Vector b = a * x_true;
  const Vector x = cholesky_solve(*l, b);
  EXPECT_TRUE(approx_equal(x, x_true, 1e-8));
}

TEST(Cholesky, TriangularSolvesSizeChecks) {
  const Matrix l = Matrix::identity(3);
  EXPECT_THROW((void)cholesky_solve(l, Vector(2)), std::invalid_argument);
  Vector x;
  EXPECT_THROW(cholesky_solve_into(l, Vector(4), x), std::invalid_argument);
}

TEST(Cholesky, WriteIntoFormsMatchOnReusedBuffers) {
  // One pair of buffers across shrinking and growing shapes: stale
  // contents must never leak into the factor or the solution.
  Rng rng(47);
  Matrix l;
  Vector x;
  for (const std::size_t n : {6u, 3u, 8u, 2u}) {
    const Matrix a = random_spd(rng, n);
    const Vector b = rng.gaussian_vector(n);
    const auto ref = cholesky(a);
    ASSERT_TRUE(ref.has_value());
    ASSERT_TRUE(cholesky_into(a, l));
    EXPECT_TRUE(approx_equal(l, *ref, 0.0)) << n;
    cholesky_solve_into(l, b, x);
    EXPECT_TRUE(approx_equal(x, cholesky_solve(*ref, b), 0.0)) << n;
  }
}

}  // namespace
}  // namespace astro::linalg
