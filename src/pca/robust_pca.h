#pragma once

// Robust incremental PCA — the paper's core contribution (§II-A, §II-B).
//
// Extends the classic incremental update with an M-scale of the residuals
// and per-observation weights that down-weight or outright reject outliers:
//
//   r  = (I − E_p E_pᵀ)(x − µ)                       residual      (eq. 4)
//   t  = r² / σ²,  w = W(t) = ρ'(t),  w* = ρ(t)/t    weights
//   u  = α u_prev + 1        γ₃ = α u_prev / u                     (eq. 14)
//   v  = α v_prev + w        γ₁ = α v_prev / v                     (eq. 12)
//   q  = α q_prev + w r²     γ₂ = α q_prev / q                     (eq. 13)
//   µ  = γ₁ µ_prev + (1−γ₁) x                                      (eq. 9)
//   σ² = γ₃ σ²_prev + (1−γ₃) w* r² / δ                             (eq. 11)
//   C  = γ₂ C_prev + (1−γ₂) σ² y yᵀ / r²                           (eq. 10)
//
// with the covariance update realized through the low-rank A-matrix SVD of
// eq. (1)-(3).  An observation whose scaled residual exceeds the ρ-function's
// rejection point gets w = 0: it moves nothing (γ₁ = γ₂ = 1) and is flagged
// as an outlier — the black points atop Figure 1.
//
// Missing data (§II-D): when a pixel mask accompanies the observation, the
// vector is patched from the current eigenbasis before the update and the
// residual is corrected using `extra_rank` higher-order components so gappy
// spectra are not over-weighted.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pca/eigensystem.h"
#include "pca/exact_ipca.h"
#include "pca/gap_fill.h"
#include "pca/update_workspace.h"
#include "stats/rho.h"

namespace astro::pca {

struct RobustPcaConfig {
  std::size_t dim = 0;        ///< data dimensionality d
  std::size_t rank = 5;       ///< reported components p
  std::size_t extra_rank = 0; ///< q extra components for gap residuals (§II-D)
  double alpha = 1.0;         ///< forgetting factor; 1 − 1/N for window N
  /// Update recursion (DESIGN.md "Exact reference mode"): kTruncated runs
  /// the paper's rank-p low-rank updates; kExact delegates to ExactIpca —
  /// full d x d second-moment state, eigendecomposed (with continuity
  /// corrections) per emit, O(d^2)/tuple.  Exact mode is the drift-free
  /// oracle and a production option for small d; the robust weighting,
  /// outlier flagging, and scale machinery below do not apply to it.
  PcaMode mode = PcaMode::kTruncated;
  std::string rho = "bisquare";
  /// Breakdown parameter δ of eq. (5); <= 0 selects the Gaussian-consistency
  /// value for the chosen ρ (σ estimates the stddev on clean data).
  double delta = 0.5;
  std::size_t init_count = 20;
  /// Re-orthonormalize the basis every this many updates (0 = never).
  /// Rounding drift over millions of low-rank updates is slow but real.
  std::size_t reorthonormalize_every = 4096;
  /// Safety valve against rejection deadlock: if this many *consecutive*
  /// observations are rejected as outliers (w = 0), σ² is re-estimated from
  /// their residuals.  A collapsed scale (e.g. from an overfit init batch)
  /// would otherwise reject everything forever, since rejected points never
  /// update any state.  At any plausible contamination the probability of
  /// this many consecutive genuine outliers is negligible.  0 disables.
  std::size_t reject_reset_threshold = 64;
  /// Track a robust σ_k² along each eigenvector (robust eigenvalues, §II-B).
  bool track_robust_eigenvalues = false;
};

/// What happened to one observation — exposed so callers (and the stream
/// operators) can flag outliers for further processing, as the paper's
/// filtering use-case requires.
struct ObservationReport {
  double weight = 0.0;             ///< w = ρ'(t)
  double scale_weight = 0.0;       ///< w* = ρ(t)/t
  double squared_residual = 0.0;   ///< r² (gap-corrected when masked)
  double t = 0.0;                  ///< r²/σ² before the update
  bool outlier = false;            ///< t beyond ρ's rejection point
  bool pending_init = false;       ///< buffered; eigensystem not yet formed
  std::size_t patched_pixels = 0;  ///< missing entries filled (§II-D)
};

class RobustIncrementalPca {
 public:
  explicit RobustIncrementalPca(const RobustPcaConfig& config);

  /// Consume one complete observation: a batch of one, through the same
  /// update path as observe_batch().
  ObservationReport observe(const linalg::Vector& x);

  /// Consume an observation with missing pixels (mask[i] == observed).
  ObservationReport observe(const linalg::Vector& x, const PixelMask& observed);

  /// Consume a micro-batch of `n` complete observations with one thin SVD
  /// (DESIGN.md "Micro-batching"), writing one report per tuple into
  /// `reports` (must have room for n).  Robust semantics stay PER TUPLE:
  /// each observation's residual, weight and outlier decision are computed
  /// against the pre-batch basis (that staleness is the documented cost of
  /// b > 1 — the basis a tuple is judged against is at most b−1 updates
  /// old), while the mean, σ² and forgetting-sum recursions advance
  /// sequentially exactly as n observe() calls would.  Outliers (w = 0)
  /// contribute γ₂ = 1 and no column, identical to the sequential path.
  /// Tuples still inside the init phase are buffered individually, and
  /// engines tracking robust eigenvalues take batches of one (the
  /// per-component recursion needs the post-update basis per tuple).
  /// Every tuple's length is checked before any state changes.
  void observe_batch(const linalg::Vector* const* xs, std::size_t n,
                     ObservationReport* reports);
  std::vector<ObservationReport> observe_batch(
      const std::vector<linalg::Vector>& xs);

  /// The full internal eigensystem: rank p+q truncated, rank d exact (the
  /// exact emit is the lossless checkpoint/merge carrier).  Exact-mode
  /// emits are lazy, so this is no longer noexcept.
  [[nodiscard]] const EigenSystem& eigensystem() const {
    return exact_ ? exact_->eigensystem() : system_;
  }

  /// The reported rank-p eigensystem (a copy; equal to eigensystem() when
  /// extra_rank == 0 in truncated mode).
  [[nodiscard]] EigenSystem reported_system() const;

  /// The system the serving layer publishes: eigensystem() itself in
  /// truncated mode (bit-identical to the pre-exact-mode behavior), the
  /// rank-(p+q) continuity view in exact mode — serving the full rank-d
  /// emit would make every residual score trivially ~0.
  [[nodiscard]] EigenSystem serve_system() const;

  [[nodiscard]] bool initialized() const noexcept {
    return exact_ ? exact_->initialized() : init_done_;
  }
  [[nodiscard]] const RobustPcaConfig& config() const noexcept { return config_; }
  [[nodiscard]] double sigma2() const {
    return exact_ ? exact_->eigensystem().sigma2() : system_.sigma2();
  }

  /// The exact-mode delegate (nullptr in truncated mode) — exposed for
  /// the oracle suite's direct state assertions.
  [[nodiscard]] const ExactIpca* exact() const noexcept { return exact_.get(); }
  [[nodiscard]] const stats::RhoFunction& rho() const noexcept { return *rho_; }
  [[nodiscard]] double delta() const noexcept { return delta_; }

  /// Robust per-component scales σ_k² (empty unless tracking is enabled).
  [[nodiscard]] const linalg::Vector& robust_eigenvalues() const noexcept {
    return robust_eigenvalues_;
  }

  /// Total outliers flagged since construction.
  [[nodiscard]] std::uint64_t outliers_flagged() const noexcept {
    return outliers_flagged_;
  }

  /// Times the rejection-deadlock safety valve re-estimated σ².
  [[nodiscard]] std::uint64_t scale_resets() const noexcept {
    return scale_resets_;
  }

  /// Install a (merged) eigensystem — the synchronization entry point.
  void set_eigensystem(EigenSystem system);

  /// Workspace recycling (crash-recovery engine reincarnation): steal this
  /// engine's scratch or install an already-grown one.  See UpdateWorkspace
  /// — a recycled workspace is behaviorally identical to a fresh one, just
  /// pre-grown.
  [[nodiscard]] UpdateWorkspace take_workspace() noexcept {
    return exact_ ? exact_->take_workspace() : std::move(ws_);
  }
  void adopt_workspace(UpdateWorkspace ws) noexcept {
    if (exact_) {
      exact_->adopt_workspace(std::move(ws));
    } else {
      ws_ = std::move(ws);
    }
  }

 private:
  void initialize_from_buffer();
  /// observe() with an optional mask: exact-mode delegation, init
  /// buffering, or absorb() with b = 1.
  ObservationReport observe_one(const linalg::Vector& x,
                                const PixelMask* observed);
  /// The one update path (eq. 4-14): each of the `b` tuples is patched
  /// (when `observed` is given — masked tuples come one at a time),
  /// weighted and folded into the sums, mean and σ², and its accepted
  /// direction is staged in ws_.a; then one low_rank_update() decomposes
  /// them all.  observe() is this with b = 1.
  void absorb(const linalg::Vector* const* xs, std::size_t b,
              const PixelMask* observed, ObservationReport* reports);

  RobustPcaConfig config_;
  std::unique_ptr<ExactIpca> exact_;  ///< non-null iff mode == kExact
  std::unique_ptr<stats::RhoFunction> rho_;
  double delta_ = 0.5;
  EigenSystem system_;
  UpdateWorkspace ws_;
  linalg::Vector robust_eigenvalues_;
  std::vector<linalg::Vector> init_buffer_;
  std::vector<PixelMask> init_masks_;
  bool init_done_ = false;
  std::uint64_t outliers_flagged_ = 0;
  std::uint64_t scale_resets_ = 0;
  std::size_t consecutive_rejects_ = 0;
  std::vector<double> rejected_residuals_;  // |r| of the current reject run
  std::size_t updates_since_qr_ = 0;
};

/// Rank-p truncation of an eigensystem (drops trailing components; running
/// sums, σ² and counts carry over).
[[nodiscard]] EigenSystem truncate(const EigenSystem& system, std::size_t p);

}  // namespace astro::pca
