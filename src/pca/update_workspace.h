#pragma once

// Per-engine scratch for the allocation-free per-tuple update path
// (DESIGN.md "Hot path & memory discipline").
//
// Every streaming PCA engine owns exactly one UpdateWorkspace, sized once
// when its eigensystem first exists (initialize_from_buffer /
// set_eigensystem) and re-entered by every subsequent observe() with zero
// allocator traffic.  The buffers follow the resize-no-shrink discipline:
// they grow to the high-water mark of the shapes seen and keep that
// capacity for the engine's lifetime.  A workspace carries no result state
// between tuples — every kernel that uses a buffer overwrites it — so a
// recycled workspace (crash-recovery reincarnation) behaves bit-identically
// to a fresh one.
//
// Not thread-safe: a workspace belongs to the single thread driving its
// engine, matching the one-engine-one-thread execution model of the
// stream operators.

#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "linalg/vector.h"
#include "pca/gap_fill.h"

namespace astro::pca {

struct UpdateWorkspace {
  linalg::Matrix a;             ///< the d x (k+b) A matrix of eq. (1)-(3)
  linalg::Matrix u;             ///< left singular vectors of A (widened thin-U)
  linalg::Vector s;             ///< singular values of A
  linalg::Vector y;             ///< centered observation x - mu
  linalg::Vector coeffs;        ///< basis expansion coefficients E^T y
  linalg::SvdWorkspace svd;     ///< Jacobi scratch (column-major copy etc.)
  /// Micro-batch scalar scratch (DESIGN.md "Micro-batching"): one slot per
  /// batched tuple for the history coefficient γ̂_j and the fresh weight of
  /// the tuple's A column.  Sized by ensure()'s `cols` like everything
  /// else, so the b=1 path pays two 1-element vectors and the batched path
  /// is allocation-free at steady state.
  linalg::Vector batch_gammas;
  linalg::Vector batch_weights;
  /// Masked-observation scratch (gap patching and the corrected residual,
  /// paper §II-D).  Sized lazily by its kernels on the first gappy tuple,
  /// not by ensure(): complete-only streams never pay for it.
  GapFillWorkspace gap;

  /// Pre-grows every buffer for a d-dimensional engine whose A matrix has
  /// `cols` columns — k+b for a batch of b observations (k+1 for a single
  /// observe()).  Idempotent and never shrinks, so calling it again
  /// (checkpoint restore, merge install, batch-size growth) on an
  /// already-sized workspace is free once the high-water shape is reached.
  void ensure(std::size_t d, std::size_t cols) {
    a.resize_no_shrink(d, cols);
    u.resize_no_shrink(d, cols);
    s.resize_no_shrink(cols);
    y.resize_no_shrink(d);
    coeffs.resize_no_shrink(cols);
    svd.reserve(d, cols);
    batch_gammas.resize_no_shrink(cols);
    batch_weights.resize_no_shrink(cols);
  }
};

}  // namespace astro::pca
