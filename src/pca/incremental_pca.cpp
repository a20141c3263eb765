#include "pca/incremental_pca.h"

#include <cmath>
#include <stdexcept>

#include "linalg/svd.h"

namespace astro::pca {

void low_rank_update(const linalg::Matrix& basis,
                     const linalg::Vector& eigenvalues, double history_scale,
                     std::size_t batch, std::size_t p, UpdateWorkspace& ws,
                     linalg::Matrix& e_out, linalg::Vector& lambda_out) {
  const std::size_t d = basis.rows();
  const std::size_t k = eigenvalues.size();
  ws.a.resize_no_shrink(d, k + batch);  // no-op when the caller sized it

  // The fresh columns [k, k+batch) are already in place (caller contract);
  // only the history block needs assembling before the decomposition.
  for (std::size_t c = 0; c < k; ++c) {
    const double scale =
        std::sqrt(std::max(0.0, history_scale * eigenvalues[c]));
    for (std::size_t r = 0; r < d; ++r) ws.a(r, c) = basis(r, c) * scale;
  }

  linalg::svd_left_inplace(ws.a, ws.svd, linalg::ThinUView{&ws.u, &ws.s});

  e_out.resize_no_shrink(d, p);
  lambda_out.resize_no_shrink(p);
  const std::size_t keep = std::min(p, ws.s.size());
  for (std::size_t c = 0; c < keep; ++c) {
    lambda_out[c] = ws.s[c] * ws.s[c];
    for (std::size_t r = 0; r < d; ++r) e_out(r, c) = ws.u(r, c);
  }
  // If p > k+batch (larger rank than columns available) the remaining
  // eigenpairs are zeroed — they fill in as more data arrives.  Explicit
  // because resize_no_shrink leaves stale values behind.
  for (std::size_t c = keep; c < p; ++c) {
    lambda_out[c] = 0.0;
    for (std::size_t r = 0; r < d; ++r) e_out(r, c) = 0.0;
  }
}

IncrementalPca::IncrementalPca(const IncrementalPcaConfig& config)
    : config_(config), system_(config.dim, config.rank, config.alpha) {
  if (config.dim == 0) {
    throw std::invalid_argument("IncrementalPca: dim must be > 0");
  }
  if (config.rank == 0 || config.rank > config.dim) {
    throw std::invalid_argument("IncrementalPca: need 0 < rank <= dim");
  }
  if (config.alpha <= 0.0 || config.alpha > 1.0) {
    throw std::invalid_argument("IncrementalPca: alpha must be in (0, 1]");
  }
  config_.init_count = std::max(config_.init_count, config_.rank + 1);
  init_buffer_.reserve(config_.init_count);
}

void IncrementalPca::observe(const linalg::Vector& x) {
  const linalg::Vector* xs[] = {&x};
  observe_batch(xs, 1);
}

void IncrementalPca::observe_batch(const linalg::Vector* const* xs,
                                   std::size_t n) {
  // Check the whole batch before any state moves: a bad tuple must not
  // leave the sums advanced and the mean half-blended behind it.
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i]->size() != config_.dim) {
      throw std::invalid_argument("IncrementalPca: wrong dimensionality");
    }
  }
  std::size_t j = 0;
  // The init buffer wants tuples one at a time (it may complete mid-batch).
  while (j < n && !init_done_) {
    init_buffer_.push_back(*xs[j++]);
    if (init_buffer_.size() >= config_.init_count) initialize_from_buffer();
  }
  if (j == n) return;
  const std::size_t b = n - j;

  const std::size_t p = config_.rank;
  const std::size_t d = config_.dim;
  ws_.ensure(d, p + b);  // shapes ws_.a to d x (k+b)

  // Pass 1 — per-tuple scalar recursions, in stream order: residual
  // against the pre-batch basis and the running mean, forgetting-sum
  // advance, mean blend (eq. 9 with w = 1), σ² diagnostic.  Each tuple's
  // fresh direction is centered against its own updated mean straight into
  // its A column (the batched center kernel); the column's weight is only
  // known once the later tuples' γ exist, so scaling is deferred.  Every
  // temporary lives in ws_, so a steady-state batch — one tuple included —
  // performs no heap allocation (pinned by tests/perf/alloc_count_test).
  linalg::Vector& mean = system_.mutable_mean();
  for (std::size_t i = 0; i < b; ++i) {
    const linalg::Vector& x = *xs[j + i];
    const double r2 = system_.squared_residual(x, ws_.y, ws_.coeffs);
    const auto gammas = system_.mutable_sums().update(1.0, r2);
    const double gamma = gammas.g3;
    mean *= gamma;
    mean.axpy(1.0 - gamma, x);
    ws_.a.set_col_diff_scaled(p + i, x, mean, 1.0);
    ws_.batch_gammas[i] = gamma;
    system_.set_sigma2(gamma * system_.sigma2() + (1.0 - gamma) * r2);
    system_.count_observation();
  }

  // Pass 2 — unroll the covariance recursion without intermediate
  // truncation:  C_b = (∏γ_i) C_0 + Σ_j (1−γ_j)(∏_{i>j}γ_i) y_j y_jᵀ.
  // Sweeping the suffix product right-to-left prices every column.
  double suffix = 1.0;
  for (std::size_t i = b; i-- > 0;) {
    const double w = (1.0 - ws_.batch_gammas[i]) * suffix;
    ws_.a.scale_col(p + i, std::sqrt(std::max(0.0, w)));
    suffix *= ws_.batch_gammas[i];
  }

  low_rank_update(system_.basis(), system_.eigenvalues(), suffix, b, p, ws_,
                  system_.mutable_basis(), system_.mutable_eigenvalues());
}

void IncrementalPca::observe_batch(const std::vector<linalg::Vector>& xs) {
  std::vector<const linalg::Vector*> ptrs(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
  observe_batch(ptrs.data(), ptrs.size());
}

void IncrementalPca::initialize_from_buffer() {
  const std::size_t n = init_buffer_.size();
  const std::size_t d = config_.dim;

  linalg::Vector mean(d);
  for (const auto& x : init_buffer_) mean += x;
  mean *= 1.0 / double(n);

  {
    // Columns of Y are centered observations / sqrt(n); eigensystem of the
    // sample covariance is the left SVD of Y.  Scoped so the d x n batch
    // matrix and its factors are freed before the replay below — the
    // engine's long-lived footprint should be the eigensystem plus one
    // workspace, not the init batch.
    linalg::Matrix y(d, n);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < d; ++r) {
        y(r, c) = (init_buffer_[c][r] - mean[r]) / std::sqrt(double(n));
      }
    }
    const linalg::ThinUResult svd = linalg::svd_left(y);

    linalg::Matrix basis(d, config_.rank);
    linalg::Vector lambda(config_.rank);
    const std::size_t keep =
        std::min(config_.rank, svd.singular_values.size());
    for (std::size_t c = 0; c < keep; ++c) {
      lambda[c] = svd.singular_values[c] * svd.singular_values[c];
      for (std::size_t r = 0; r < d; ++r) basis(r, c) = svd.u(r, c);
    }

    system_ = EigenSystem(std::move(mean), std::move(basis),
                          std::move(lambda), 0.0,
                          stats::RobustRunningSums(config_.alpha), 0);
  }

  // Replay the buffer through the running sums so merge weights reflect the
  // data actually absorbed; sigma2 seeds from the mean squared residual.
  ws_.ensure(d, config_.rank + 1);
  double r2sum = 0.0;
  for (const auto& x : init_buffer_) {
    const double r2 = system_.squared_residual(x, ws_.y, ws_.coeffs);
    system_.mutable_sums().update(1.0, r2);
    system_.count_observation();
    r2sum += r2;
  }
  system_.set_sigma2(r2sum / double(n));
  // Release the init batch outright: clear() keeps vector capacity (n
  // observations of d doubles) alive for the engine's whole life otherwise.
  init_buffer_.clear();
  init_buffer_.shrink_to_fit();
  init_done_ = true;
}

void IncrementalPca::set_eigensystem(EigenSystem system) {
  if (system.dim() != config_.dim || system.rank() != config_.rank) {
    throw std::invalid_argument("set_eigensystem: shape mismatch");
  }
  system_ = std::move(system);
  ws_.ensure(config_.dim, config_.rank + 1);
  init_done_ = true;
}

}  // namespace astro::pca
