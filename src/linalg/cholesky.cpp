#include "linalg/cholesky.h"

#include <cmath>
#include <stdexcept>

namespace astro::linalg {

std::optional<Matrix> cholesky(const Matrix& a) {
  Matrix l;
  if (!cholesky_into(a, l)) return std::nullopt;
  return l;
}

bool cholesky_into(const Matrix& a, Matrix& l) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  l.resize_no_shrink(n, n);
  l.fill(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        if (acc <= 0.0) return false;
        l(i, i) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  return true;
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
  Vector x;
  cholesky_solve_into(l, b, x);
  return x;
}

void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& x) {
  const std::size_t n = l.rows();
  if (b.size() != n) {
    throw std::invalid_argument("cholesky_solve: size mismatch");
  }
  x = b;  // capacity-reusing copy
  // L y = b, y overwriting x: x[i] is read before it is written.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = x[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * x[k];
    x[i] = acc / l(i, i);
  }
  // L^T x = y, in place from the last entry up.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l(k, i) * x[k];
    x[i] = acc / l(i, i);
  }
}

}  // namespace astro::linalg
