#pragma once

// Cholesky factorization (A = L L^T) for symmetric positive-definite
// matrices, plus triangular solves.
//
// Used to validate covariance estimates (a covariance that fails Cholesky
// after ridge regularization signals a broken update) and for whitening in
// the synthetic workload generators.

#include <optional>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace astro::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite `a`.
/// Returns std::nullopt when a non-positive pivot is met (matrix not PD).
[[nodiscard]] std::optional<Matrix> cholesky(const Matrix& a);

/// Solves A x = b given the Cholesky factor L of A (forward, then
/// backward substitution).
[[nodiscard]] Vector cholesky_solve(const Matrix& l, const Vector& b);

// Write-into forms for the hot path: the forms above wrap them, so the two
// are bit-identical, and a warm caller buffer never allocates.

/// cholesky() into `l`; false when `a` is not positive definite.
bool cholesky_into(const Matrix& a, Matrix& l);

/// cholesky_solve() into `x`; both substitutions run in place in `x`.
void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& x);

}  // namespace astro::linalg
