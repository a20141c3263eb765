// The one low_rank_update kernel on a single fresh column (batch = 1, as
// observe() runs it): a reused workspace matches a fresh one bit for bit,
// including the aliased-output form the engines use (e_out == basis,
// lambda_out == eigenvalues), and stale outputs are fully rewritten.

#include "pca/update_workspace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/qr.h"
#include "pca/incremental_pca.h"
#include "stats/rng.h"

namespace astro::pca {
namespace {

using astro::stats::Rng;
using linalg::Matrix;
using linalg::Vector;

struct Inputs {
  Matrix basis;
  Vector eigenvalues;
  Vector y;
};

Inputs make_setup(std::uint64_t seed, std::size_t d, std::size_t k) {
  Rng rng(seed);
  Inputs s;
  s.basis = rng.gaussian_matrix(d, k);
  linalg::orthonormalize_columns(s.basis);
  s.eigenvalues = Vector(k);
  for (std::size_t c = 0; c < k; ++c) s.eigenvalues[c] = double(k - c) * 0.7;
  s.y = rng.gaussian_vector(d);
  return s;
}

// Stages y·√fresh as the single fresh column of ws.a — exactly what the
// estimators' per-tuple step does — and runs the kernel with γ as the
// history scale.
void update_one(const Matrix& basis, const Vector& eigenvalues,
                const Vector& y, double gamma, double fresh, std::size_t p,
                UpdateWorkspace& ws, Matrix& e_out, Vector& l_out) {
  const std::size_t k = eigenvalues.size();
  ws.a.resize_no_shrink(y.size(), k + 1);
  for (std::size_t r = 0; r < y.size(); ++r) {
    ws.a(r, k) = y[r] * std::sqrt(fresh);
  }
  low_rank_update(basis, eigenvalues, gamma, 1, p, ws, e_out, l_out);
}

// Reference: a fresh workspace for every call.
void update_fresh(const Inputs& s, double gamma, double fresh, std::size_t p,
                  Matrix& e_out, Vector& l_out) {
  UpdateWorkspace ws;
  update_one(s.basis, s.eigenvalues, s.y, gamma, fresh, p, ws, e_out, l_out);
}

TEST(LowRankUpdateWorkspace, InPlaceMatchesAllocatingBitForBit) {
  UpdateWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t d = 12 + std::size_t(seed) * 3;
    const std::size_t k = 2 + std::size_t(seed) % 4;
    const Inputs s = make_setup(seed, d, k);

    Matrix e_ref;
    Vector l_ref;
    update_fresh(s, 0.9, 0.1, k, e_ref, l_ref);

    Matrix e_new;
    Vector l_new;
    update_one(s.basis, s.eigenvalues, s.y, 0.9, 0.1, k, ws, e_new, l_new);
    EXPECT_EQ(e_new, e_ref) << "seed " << seed;
    EXPECT_EQ(l_new, l_ref) << "seed " << seed;
  }
}

TEST(LowRankUpdateWorkspace, AliasedOutputsMatchNonAliased) {
  // The engine hot path passes its own basis/eigenvalues as both input and
  // output; A is assembled before the outputs are written, so this must
  // equal the non-aliased result exactly.
  const Inputs s = make_setup(42, 30, 5);
  Matrix e_ref;
  Vector l_ref;
  update_fresh(s, 0.95, 0.05, 5, e_ref, l_ref);

  UpdateWorkspace ws;
  Matrix basis = s.basis;
  Vector lambda = s.eigenvalues;
  update_one(basis, lambda, s.y, 0.95, 0.05, 5, ws, basis, lambda);
  EXPECT_EQ(basis, e_ref);
  EXPECT_EQ(lambda, l_ref);
}

TEST(LowRankUpdateWorkspace, RankLargerThanColumnsZeroFillsTail) {
  // p > k+1: trailing eigenpairs must come out exactly zero even when the
  // preallocated outputs hold stale values from a previous call.
  const Inputs s = make_setup(7, 20, 2);
  UpdateWorkspace ws;
  Matrix e_out(20, 6);
  Vector l_out(6);
  e_out.fill(123.0);
  l_out.fill(456.0);
  update_one(s.basis, s.eigenvalues, s.y, 0.9, 0.1, 6, ws, e_out, l_out);

  Matrix e_ref;
  Vector l_ref;
  update_fresh(s, 0.9, 0.1, 6, e_ref, l_ref);
  EXPECT_EQ(e_out, e_ref);
  EXPECT_EQ(l_out, l_ref);
  for (std::size_t c = 3; c < 6; ++c) {
    EXPECT_EQ(l_out[c], 0.0);
    for (std::size_t r = 0; r < 20; ++r) EXPECT_EQ(e_out(r, c), 0.0);
  }
}

TEST(LowRankUpdateWorkspace, EnsureIsIdempotent) {
  UpdateWorkspace ws;
  ws.ensure(100, 11);
  const double* a_before = ws.a.data();
  const double* y_before = ws.y.data();
  ws.ensure(100, 11);
  ws.ensure(50, 6);  // smaller: must not shrink or reallocate
  EXPECT_EQ(ws.a.data(), a_before);
  EXPECT_EQ(ws.y.data(), y_before);
}

}  // namespace
}  // namespace astro::pca
