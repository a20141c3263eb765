#include "pca/gap_fill.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/cholesky.h"

namespace astro::pca {

GapFillResult fill_gaps(const EigenSystem& system, const linalg::Vector& x,
                        const PixelMask& observed) {
  GapFillWorkspace ws;
  GapFillResult out;
  out.missing = fill_gaps_into(system, x, observed, ws);
  out.patched = std::move(ws.patched);
  out.coeffs = std::move(ws.coeffs);
  return out;
}

std::size_t fill_gaps_into(const EigenSystem& system, const linalg::Vector& x,
                           const PixelMask& observed, GapFillWorkspace& ws) {
  const std::size_t d = system.dim();
  const std::size_t p = system.rank();
  if (x.size() != d || observed.size() != d) {
    throw std::invalid_argument("fill_gaps: dimension mismatch");
  }

  const std::size_t missing =
      d - std::size_t(std::count(observed.begin(), observed.end(), true));
  ws.patched = x;  // capacity-reusing copy
  if (missing == 0) {
    system.center_into(x, ws.y);
    system.basis().transpose_times_into(ws.y, ws.coeffs);
    return 0;
  }

  // Masked normal equations: (E_oᵀ E_o) c = E_oᵀ y_o over observed pixels.
  const linalg::Matrix& e = system.basis();
  linalg::Matrix& gram = ws.gram;
  linalg::Vector& rhs = ws.rhs;
  gram.resize_no_shrink(p, p);
  gram.fill(0.0);
  rhs.resize_no_shrink(p);
  rhs.fill(0.0);
  for (std::size_t i = 0; i < d; ++i) {
    if (!observed[i]) continue;
    const double yi = x[i] - system.mean()[i];
    for (std::size_t a = 0; a < p; ++a) {
      const double ea = e(i, a);
      rhs[a] += ea * yi;
      for (std::size_t b = a; b < p; ++b) gram(a, b) += ea * e(i, b);
    }
  }
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
  }

  // Wiener shrinkage: add sigma_pix^2 / lambda_a to the diagonal so
  // coefficients the observed pixels barely constrain shrink toward 0
  // instead of extrapolating noise into the gap.
  const std::size_t resid_dof = d > p ? d - p : 1;
  const double sigma_pix2 = system.sigma2() / double(resid_dof);
  if (sigma_pix2 > 0.0) {
    const double lambda_floor =
        1e-6 * (system.retained_variance() / double(p) + sigma_pix2);
    for (std::size_t a = 0; a < p; ++a) {
      const double lambda = std::max(system.eigenvalues()[a], lambda_floor);
      gram(a, a) += sigma_pix2 / lambda;
    }
  }

  // Ridge escalation: a fully-masked component with no noise estimate can
  // still leave the gram singular.
  bool factored = linalg::cholesky_into(gram, ws.chol);
  double ridge = 1e-10 * (gram.trace() / double(p) + 1.0);
  while (!factored) {
    for (std::size_t a = 0; a < p; ++a) gram(a, a) += ridge;
    ridge *= 10.0;
    factored = linalg::cholesky_into(gram, ws.chol);
  }
  linalg::cholesky_solve_into(ws.chol, rhs, ws.coeffs);

  for (std::size_t i = 0; i < d; ++i) {
    if (observed[i]) continue;
    double v = system.mean()[i];
    for (std::size_t a = 0; a < p; ++a) v += e(i, a) * ws.coeffs[a];
    ws.patched[i] = v;
  }
  return missing;
}

double corrected_squared_residual(const EigenSystem& system, std::size_t p,
                                  const linalg::Vector& patched,
                                  const PixelMask& observed) {
  GapFillWorkspace ws;
  return corrected_squared_residual(system, p, patched, observed, ws);
}

double corrected_squared_residual(const EigenSystem& system, std::size_t p,
                                  const linalg::Vector& patched,
                                  const PixelMask& observed,
                                  GapFillWorkspace& ws) {
  const std::size_t d = system.dim();
  const std::size_t full = system.rank();
  if (p > full) {
    throw std::invalid_argument("corrected_squared_residual: p > rank");
  }
  if (patched.size() != d || observed.size() != d) {
    throw std::invalid_argument("corrected_squared_residual: bad sizes");
  }

  system.center_into(patched, ws.y);
  system.basis().transpose_times_into(ws.y, ws.coeffs);
  const linalg::Vector& y = ws.y;
  const linalg::Vector& c = ws.coeffs;

  double r2 = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    if (observed[i]) {
      // True residual of the rank-p fit on a measured pixel.
      double ri = y[i];
      for (std::size_t k = 0; k < p; ++k) ri -= c[k] * system.basis()(i, k);
      r2 += ri * ri;
    } else {
      // Missing pixel: the patch has zero rank-`full` residual by
      // construction; estimate the unseen rank-p residual from the higher-
      // order components p..full-1.
      double est = 0.0;
      for (std::size_t k = p; k < full; ++k) est += c[k] * system.basis()(i, k);
      r2 += est * est;
    }
  }
  return r2;
}

double coverage(const PixelMask& observed) {
  if (observed.empty()) return 1.0;
  const auto n = std::count(observed.begin(), observed.end(), true);
  return double(n) / double(observed.size());
}

}  // namespace astro::pca
