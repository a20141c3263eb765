#pragma once

// Missing-data handling (paper §II-D).
//
// Survey spectra have gaps: masked pixels, and systematically missing
// wavelength ranges that depend on redshift.  Following Connolly & Szalay
// (1999) as extended in the paper, each gappy observation is "patched"
// before entering the stream update: the expansion coefficients are fit on
// the *observed* pixels only (an unbiased masked least-squares against the
// current eigenbasis) and the missing pixels are replaced by the eigenbasis
// reconstruction.
//
// Patching artificially zeroes the residual in the missing bins, which
// would over-weight gappy spectra in the robust scheme.  The paper's fix:
// carry q extra components and estimate the missing-bin residual as the
// difference between the rank-p and rank-(p+q) reconstructions there.

#include <vector>

#include "pca/eigensystem.h"

namespace astro::pca {

/// A pixel mask: observed[i] == true when pixel i was measured.
using PixelMask = std::vector<bool>;

struct GapFillResult {
  linalg::Vector patched;   ///< x with missing entries reconstructed
  linalg::Vector coeffs;    ///< masked-LS expansion coefficients (rank-sized)
  std::size_t missing = 0;  ///< number of patched pixels
};

/// Patches the missing entries of `x` using the eigensystem's basis.
/// Coefficients solve the masked least squares
///     min_c Σ_{observed i} (x_i − µ_i − (E c)_i)²  +  σ_pix² Σ_a c_a²/λ_a
/// — a Wiener/ridge shrinkage toward the component priors c_a ~ N(0, λ_a)
/// with per-pixel noise σ_pix² estimated from the system's residual scale.
/// Without the prior term, coefficients poorly constrained by the observed
/// pixels (a gap covering a component's support) extrapolate wildly and the
/// patched values feed spurious variance back into the eigensystem; the
/// shrinkage keeps the reconstruction unbiased where data exists and
/// conservative where it does not.  Throws when mask size != dim.
[[nodiscard]] GapFillResult fill_gaps(const EigenSystem& system,
                                      const linalg::Vector& x,
                                      const PixelMask& observed);

/// Scratch for the write-into forms below (an engine keeps one in its
/// UpdateWorkspace): grown on first use, then reused allocation-free.  No
/// state carries between calls.
struct GapFillWorkspace {
  linalg::Matrix gram;     ///< masked normal matrix (rank x rank)
  linalg::Matrix chol;     ///< its Cholesky factor
  linalg::Vector rhs;      ///< masked normal right-hand side
  linalg::Vector y;        ///< centered observation
  linalg::Vector coeffs;   ///< expansion coefficients
  linalg::Vector patched;  ///< the patched observation
};

/// fill_gaps() into ws.patched and ws.coeffs, bit for bit; returns the
/// number of patched pixels.
std::size_t fill_gaps_into(const EigenSystem& system, const linalg::Vector& x,
                           const PixelMask& observed, GapFillWorkspace& ws);

/// Corrected squared residual for a patched observation:
///   r² = Σ_observed r_i²  +  Σ_missing (recon_{p+q}[i] − recon_p[i])²
/// where the first p of the system's components define the fit and the
/// remaining ones estimate the unseen residual.  With no extra components
/// (p == rank) the second term is zero and this reduces to the observed
/// residual energy.
[[nodiscard]] double corrected_squared_residual(const EigenSystem& system,
                                                std::size_t p,
                                                const linalg::Vector& patched,
                                                const PixelMask& observed);

/// The same, bit for bit, with ws.y and ws.coeffs as scratch.
[[nodiscard]] double corrected_squared_residual(
    const EigenSystem& system, std::size_t p, const linalg::Vector& patched,
    const PixelMask& observed, GapFillWorkspace& ws);

/// Fraction of pixels observed (diagnostic / workload reporting).
[[nodiscard]] double coverage(const PixelMask& observed);

}  // namespace astro::pca
