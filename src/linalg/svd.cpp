#include "linalg/svd.h"

#include "linalg/simd.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <stdexcept>

namespace astro::linalg {

namespace {

// Convergence threshold on the normalized off-diagonal inner product
// |<a_i, a_j>| / (|a_i| |a_j|).
constexpr double kTol = 1e-12;
// Safety bound on Jacobi sweeps; convergence is typically < 10 sweeps.
constexpr int kMaxSweeps = 60;

// Column-major view over the workspace's persistent working copy: columns
// are contiguous so the Jacobi rotations (which stream over column pairs)
// stay cache-friendly.  The view owns nothing — the buffer lives in the
// caller's SvdWorkspace and survives across calls.
struct ColView {
  std::size_t m = 0, n = 0;
  double* a = nullptr;  // a[c * m + r]

  double* col(std::size_t c) const { return a + c * m; }
};

// Inner product with eight independent accumulator chains, routed through
// the runtime SIMD dispatch (simd.h).  The scalar tier is the PR 3
// hand-unrolled 8-chain reduction; the AVX2/AVX-512 tiers lay the same
// chains across vector lanes with the same pinned reduction order and no
// FMA, so every tier is bit-identical (both SVD entry points share this
// code, preserving their bit-identity).
double dot8(const double* a, const double* b, std::size_t m) {
  return simd::active().dot(a, b, m);
}

// Copies `src` (row-major) into the workspace buffer in column-major order
// and returns a view over it.  Row-outer iteration reads src contiguously;
// the n strided write streams are fine for tall-skinny n = p+1.
ColView load_colmajor(const Matrix& src, std::vector<double>& buf) {
  const std::size_t m = src.rows(), n = src.cols();
  buf.resize(m * n);  // never shrinks capacity; every entry written below
  double* a = buf.data();
  for (std::size_t r = 0; r < m; ++r) {
    const double* srow = src.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) a[c * m + r] = srow[c];
  }
  return ColView{m, n, a};
}

// Applies the (i, j) column rotation if needed; returns whether it rotated.
//
// `norms2` caches the squared column norms, so only the cross product
// gamma = <c_i, c_j> needs a fresh pass over the data (one fused
// multiply-add per element instead of three) — this is where the hot-path
// speedup comes from, since the rotation sweep is FLOP-bound.  After a
// rotation the cached norms are updated in O(1) from the Jacobi identity:
// the chosen t satisfies t^2 + 2*zeta*t - 1 = 0, which makes
//   |c_i'|^2 = alpha - t*gamma,   |c_j'|^2 = beta + t*gamma
// exact in real arithmetic (and trace-preserving: alpha' + beta' =
// alpha + beta).  Rounding drift is clamped at zero here and repaired by a
// full refresh at the start of every sweep.
bool rotate_pair(const ColView& w, std::vector<double>* v, double* norms2,
                 std::size_t i, std::size_t j) {
  const std::size_t m = w.m, n = w.n;
  double* ci = w.col(i);
  double* cj = w.col(j);
  const double alpha = norms2[i];
  const double beta = norms2[j];
  const double gamma = dot8(ci, cj, m);
  if (std::abs(gamma) <= kTol * std::sqrt(alpha * beta)) return false;
  const double zeta = (beta - alpha) / (2.0 * gamma);
  const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                   (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = c * t;
  const simd::Kernels& k = simd::active();
  k.rotate2(ci, cj, c, s, m);
  norms2[i] = std::max(0.0, alpha - t * gamma);
  norms2[j] = std::max(0.0, beta + t * gamma);
  if (v != nullptr) {
    double* vi = v->data() + i * n;
    double* vj = v->data() + j * n;
    k.rotate2(vi, vj, c, s, n);
  }
  return true;
}

// One-sided Jacobi: orthogonalize the columns of `w` in place, accumulating
// the right rotations into `v` (n x n, column-major) when non-null.
// Returns the number of sweeps executed.
int jacobi_orthogonalize(const ColView& w, std::vector<double>* v,
                         SvdWorkspace& ws) {
  const std::size_t m = w.m, n = w.n;
  ws.col_norms2.resize(n);
  double* norms2 = ws.col_norms2.data();
  int sweep = 0;
  for (; sweep < kMaxSweeps; ++sweep) {
    // Refresh the cached squared norms from the columns once per sweep: the
    // incremental updates in rotate_pair are exact in real arithmetic but
    // accumulate rounding across rotations, and the convergence decision
    // (a sweep with no rotations) should be made against fresh norms.
    for (std::size_t c = 0; c < n; ++c) {
      const double* col = w.col(c);
      norms2[c] = dot8(col, col, m);
    }
    bool rotated = false;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        rotated |= rotate_pair(w, v, norms2, i, j);
      }
    }
    if (!rotated) break;
  }
  return sweep;
}

// After orthogonalization: extract singular values (column norms), sort
// descending, normalize columns into U.  Numerically-zero columns are
// replaced by unit vectors orthogonalized against the others so U always has
// orthonormal columns even for rank-deficient input.  Outputs are resized
// with resize_no_shrink and every entry is (re)written, so preallocated
// destinations see no allocator traffic and no stale scratch.
void extract_and_sort(const ColView& w, const std::vector<double>* v,
                      SvdWorkspace& ws, Matrix& u_out, Vector& s_out,
                      Matrix* v_out) {
  const std::size_t m = w.m, n = w.n;
  ws.norms.resize(n);
  double* norms = ws.norms.data();
  for (std::size_t c = 0; c < n; ++c) {
    norms[c] = std::sqrt(dot8(w.col(c), w.col(c), m));
  }

  ws.order.resize(n);
  std::size_t* order = ws.order.data();
  for (std::size_t c = 0; c < n; ++c) order[c] = c;
  // Stable insertion sort, descending by norm.  n = p+1 is tiny, and unlike
  // std::stable_sort this never touches the allocator; it produces the same
  // (unique) stable permutation.
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t key = order[k];
    const double key_norm = norms[key];
    std::size_t pos = k;
    while (pos > 0 && norms[order[pos - 1]] < key_norm) {
      order[pos] = order[pos - 1];
      --pos;
    }
    order[pos] = key;
  }

  const double max_norm = n == 0 ? 0.0 : norms[order[0]];
  const double rank_tol = std::max(max_norm, 1.0) * 1e-14 * double(m);

  u_out.resize_no_shrink(m, n);
  s_out.resize_no_shrink(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t c = order[k];
    if (norms[c] > rank_tol) {
      s_out[k] = norms[c];
      const double inv = 1.0 / norms[c];
      const double* col = w.col(c);
      for (std::size_t r = 0; r < m; ++r) u_out(r, k) = col[r] * inv;
    } else {
      s_out[k] = 0.0;
      for (std::size_t r = 0; r < m; ++r) u_out(r, k) = 0.0;
      // Fill with a basis vector orthogonalized against columns 0..k-1 so U
      // stays orthonormal; try each coordinate axis until one survives.
      ws.cand.resize(m);
      double* cand = ws.cand.data();
      for (std::size_t axis = 0; axis < m; ++axis) {
        std::fill(cand, cand + m, 0.0);
        cand[axis] = 1.0;
        for (std::size_t prev = 0; prev < k; ++prev) {
          double proj = 0.0;
          for (std::size_t r = 0; r < m; ++r) proj += cand[r] * u_out(r, prev);
          for (std::size_t r = 0; r < m; ++r) cand[r] -= proj * u_out(r, prev);
        }
        double cn2 = 0.0;
        for (std::size_t r = 0; r < m; ++r) cn2 += cand[r] * cand[r];
        const double cn = std::sqrt(cn2);
        if (cn > 0.5) {
          for (std::size_t r = 0; r < m; ++r) u_out(r, k) = cand[r] / cn;
          break;
        }
      }
    }
  }

  if (v_out != nullptr && v != nullptr) {
    v_out->resize_no_shrink(n, n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t c = order[k];
      const double* vc = v->data() + c * n;
      for (std::size_t r = 0; r < n; ++r) (*v_out)(r, k) = vc[r];
    }
  }
}

}  // namespace

void SvdWorkspace::reserve(std::size_t m, std::size_t n) {
  colmajor.reserve(m * n);
  col_norms2.reserve(n);
  norms.reserve(n);
  order.reserve(n);
  cand.reserve(m);
  v_accum.reserve(n * n);
}

Matrix SvdResult::reconstruct() const {
  Matrix us = u;  // scale columns of U by singular values
  for (std::size_t c = 0; c < us.cols(); ++c) {
    for (std::size_t r = 0; r < us.rows(); ++r) us(r, c) *= singular_values[c];
  }
  return us * v.transpose();
}

SvdResult svd(const Matrix& a) {
  if (a.empty()) throw std::invalid_argument("svd: empty matrix");
  if (a.rows() < a.cols()) {
    // Decompose the (tall) transpose and swap factors: A^T = U s V^T implies
    // A = V s U^T.
    SvdResult t = svd(a.transpose());
    return SvdResult{std::move(t.v), std::move(t.singular_values),
                     std::move(t.u)};
  }
  SvdWorkspace ws;
  const ColView w = load_colmajor(a, ws.colmajor);
  const std::size_t n = a.cols();
  ws.v_accum.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) ws.v_accum[i * n + i] = 1.0;
  jacobi_orthogonalize(w, &ws.v_accum, ws);
  SvdResult out;
  extract_and_sort(w, &ws.v_accum, ws, out.u, out.singular_values, &out.v);
  return out;
}

ThinUResult svd_left(const Matrix& a) {
  ThinUResult out;
  SvdWorkspace ws;
  svd_left_inplace(a, ws, ThinUView{&out.u, &out.singular_values});
  return out;
}

void svd_left_inplace(const Matrix& a, SvdWorkspace& workspace,
                      ThinUView out) {
  if (out.u == nullptr || out.singular_values == nullptr) {
    throw std::invalid_argument("svd_left_inplace: null output view");
  }
  if (a.empty()) throw std::invalid_argument("svd_left: empty matrix");
  if (a.rows() < a.cols()) {
    // Wide input: fall back to the full (allocating) decomposition.  Never
    // hit on the update path, where m = d >> n = p+b.
    SvdResult full = svd(a);
    *out.u = std::move(full.u);
    *out.singular_values = std::move(full.singular_values);
    return;
  }
  const ColView w = load_colmajor(a, workspace.colmajor);
  jacobi_orthogonalize(w, nullptr, workspace);
  extract_and_sort(w, nullptr, workspace, *out.u, *out.singular_values,
                   nullptr);
}

}  // namespace astro::linalg
