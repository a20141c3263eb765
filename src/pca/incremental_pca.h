#pragma once

// Classic (non-robust) incremental PCA — paper §II, eq. (1)-(3).
//
// Per observation x:
//   y = x − µ
//   C ≈ γ E_p Λ_p E_pᵀ + (1−γ) y yᵀ = A Aᵀ
//   A = [ e_k √(γ λ_k)  |  y √(1−γ) ]          (d x (p+1))
// and the thin SVD A = U W Vᵀ yields the updated eigensystem E = U,
// Λ = W² (truncated back to p columns).  γ comes from the forgetting count
// u = α u_prev + 1:  γ = α u_prev / u, so α = 1 is the classic
// infinite-memory recursion and α = 1 − 1/N a sliding window of N.
//
// A micro-batch of b observations widens A to d x (p+b) (observe_batch);
// a single observation is the b = 1 case of that same path.  Both
// estimators decompose A through the one low_rank_update() kernel below.
//
// This is both the Figure-1 "classical" baseline (sensitive to outliers)
// and the skeleton the robust variant builds on.

#include <cstddef>
#include <utility>
#include <vector>

#include "pca/eigensystem.h"
#include "pca/update_workspace.h"

namespace astro::pca {

struct IncrementalPcaConfig {
  std::size_t dim = 0;     ///< data dimensionality d
  std::size_t rank = 5;    ///< retained components p
  double alpha = 1.0;      ///< forgetting factor (1 = infinite memory)
  /// Observations buffered before the eigensystem is initialized by a small
  /// batch decomposition ("the initial set is kept small", §III-C).
  std::size_t init_count = 10;
};

class IncrementalPca {
 public:
  explicit IncrementalPca(const IncrementalPcaConfig& config);

  /// Consume one observation; cheap O(d p²) once initialized.  A batch of
  /// one: it runs the same code as observe_batch(&x, 1).
  void observe(const linalg::Vector& x);

  /// Consume a micro-batch of `n` observations with ONE thin SVD
  /// (DESIGN.md "Micro-batching").  Per-tuple scalar state — the
  /// forgetting sums, the mean recursion and the σ² diagnostic — advances
  /// sequentially exactly as n single-tuple batches would; only the
  /// eigensystem update is batched, decomposing the d x (p+n) matrix
  ///   A = [ E √(G Λ) | y_1 √w_1 | ... | y_n √w_n ],
  /// G = ∏ γ_j and w_j = (1−γ_j) ∏_{i>j} γ_i, which is the eq. (1)-(3)
  /// recursion unrolled WITHOUT the intermediate rank-p truncations.  When
  /// the data lies in the retained subspace the truncations discard
  /// nothing and the batched result equals the sequential one (pinned to
  /// 1e-10 by tests); on general data the batch keeps strictly more of the
  /// update mass than the sequential path.  Tuples still inside the init
  /// phase are buffered individually.  Every tuple's length is checked
  /// before any state changes, so a malformed batch throws and leaves the
  /// estimator untouched.
  void observe_batch(const linalg::Vector* const* xs, std::size_t n);
  void observe_batch(const std::vector<linalg::Vector>& xs);

  /// The current estimate.  Valid (non-empty basis) once `initialized()`.
  [[nodiscard]] const EigenSystem& eigensystem() const noexcept {
    return system_;
  }
  [[nodiscard]] bool initialized() const noexcept { return init_done_; }
  [[nodiscard]] const IncrementalPcaConfig& config() const noexcept {
    return config_;
  }

  /// Replace the state wholesale (synchronization installs merged systems).
  void set_eigensystem(EigenSystem system);

 private:
  void initialize_from_buffer();

  IncrementalPcaConfig config_;
  EigenSystem system_;
  UpdateWorkspace ws_;
  std::vector<linalg::Vector> init_buffer_;
  bool init_done_ = false;
};

/// The one low-rank eigensystem update (eq. 1-3), shared by both
/// estimators: absorbs `batch` fresh directions in one thin SVD of the
/// d x (k+batch) matrix A = [ E √(history_scale·Λ) | c_1 | ... | c_b ].
/// Caller contract: ws.a is already resized to d x (k+batch) and its
/// columns [k, k+batch) hold the fresh directions, each pre-scaled by the
/// square root of its blended weight (see IncrementalPca::observe_batch for
/// the weight algebra); `history_scale` is the product of the per-tuple
/// history coefficients.  A single tuple is batch = 1 with its own γ as
/// `history_scale`.  A is fully assembled and decomposed before the
/// outputs are written, so `e_out` / `lambda_out` may alias `basis` /
/// `eigenvalues` (the engines' in-place path).  The new top-`p` basis and
/// eigenvalues are written resize-no-shrink with every entry rewritten;
/// when p exceeds the k+batch columns the trailing eigenpairs are zero.
/// Zero heap allocations once ws has reached this shape.
void low_rank_update(const linalg::Matrix& basis,
                     const linalg::Vector& eigenvalues, double history_scale,
                     std::size_t batch, std::size_t p, UpdateWorkspace& ws,
                     linalg::Matrix& e_out, linalg::Vector& lambda_out);

}  // namespace astro::pca
