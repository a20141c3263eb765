#pragma once

// Eigensystem combination for parallel execution (paper §II-C, eq. 15-16).
//
// Independent engines process disjoint random partitions of the stream and
// periodically exchange eigensystems.  The combined location is the
// weighted average µ = Σ γᵢ µᵢ with γᵢ = vᵢ / Σ vᵢ (the robust running
// weight sums), and the pooled covariance is
//
//   C = Σᵢ γᵢ Cᵢ + Σᵢ γᵢ (µᵢ − µ)(µᵢ − µ)ᵀ                    (eq. 15)
//
// Both terms are low rank when the Cᵢ are truncated eigensystems, so the
// combination decomposes through the same A Aᵀ trick as the streaming
// update:  A = [ Eᵢ √(γᵢ Λᵢ) ... | (µᵢ − µ)√γᵢ ... ].   When the means are
// approximately equal the mean-correction columns vanish — dropping them is
// the paper's eq. (16) fast path, which "speeds up the synchronization step
// and allows for frequent evaluations even for high-dimensional input".

#include <span>

#include "pca/eigensystem.h"

namespace astro::pca {

struct MergeOptions {
  /// Drop the mean-correction columns (paper eq. 16).  Cheaper; exact only
  /// when all means coincide.
  bool assume_equal_means = false;
};

/// Merge any number of eigensystems into one, keeping the largest input
/// rank (callers that want fewer components use pca::truncate).  Weights
/// derive from each system's running sums (γᵢ = vᵢ/Σv); systems that have
/// seen no weight fall back to raw observation counts.  σ² pools
/// u-weighted.  Throws on empty input or mismatched dimensionality.
[[nodiscard]] EigenSystem merge(std::span<const EigenSystem> systems,
                                const MergeOptions& opts = {});

/// Two-system convenience overload.
[[nodiscard]] EigenSystem merge(const EigenSystem& a, const EigenSystem& b,
                                const MergeOptions& opts = {});

}  // namespace astro::pca
