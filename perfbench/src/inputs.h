#pragma once

// Workload definitions and their seeded inputs.  Everything the pipeline
// receives is generated here, before any timing starts; the pipeline only
// ever sees the tuples (through its generator callback) and the reader's
// held-out spectra.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "pca/gap_fill.h"

namespace perfbench {

/// Repetitions per run, each on a fresh pipeline with its own inputs.
inline constexpr int kReps = 10;
/// Seconds of each repetition's share of the run left for pipeline set-up
/// and shutdown: one repetition streams rate * (seconds / kReps -
/// kRepSlackS) tuples.  With seconds / kReps a multiple of 0.5 this also
/// puts an open loop's last tuple mid-way between two ticks of the 2 Hz
/// sync throttle, whose period quantizes time_to_result_s (METRICS.md).
inline constexpr double kRepSlackS = 0.25;
/// Share of spectra the generator draws as outliers, and of tuples the
/// benchmark poisons with a NaN (validation must quarantine those).
inline constexpr double kOutlierFraction = 0.02;
inline constexpr double kNonFiniteFraction = 0.01;

struct WorkloadSpec {
  std::string name;
  /// Open loop: tuples are due on a fixed schedule at `rate` per second.
  /// Closed loop: an unthrottled source drains into back-pressure; `rate`
  /// is then only the nominal rate that sizes the stream to the run time.
  bool open_loop = false;
  double rate = 0.0;
  // Spectra (spectra::SpectraConfig) and engine algorithm.
  std::size_t dim = 0;
  std::size_t rank = 0;        ///< p
  std::size_t extra_rank = 0;  ///< q
  std::size_t components = 5;  ///< rank of the generator's true manifold
  double max_redshift = 0.0;   ///< > 0: red-end gaps (masks)
  // Pipeline.
  std::size_t engines = 1;
  double sync_hz = 0.0;
  bool tcp = false;
  // Serving and the benchmark's reader thread.
  double publish_s = 0.05;
  double query_hz = 0.0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// One repetition's inputs.  Stream tuple k is pool entry k % pool size,
/// with one observed pixel set to NaN when poison[k] >= 0.
struct Inputs {
  std::size_t tuples = 0;
  std::vector<astro::linalg::Vector> pool_flux;
  std::vector<astro::pca::PixelMask> pool_mask;
  std::vector<std::int32_t> poison;  ///< pixel to poison, -1 = clean
  std::size_t injected = 0;          ///< poisoned tuples
  std::size_t masked = 0;            ///< stream tuples carrying a mask
  /// Emission index of the n-th tuple validation accepts (every tuple
  /// that is not poisoned), for version-based staleness.
  std::vector<std::size_t> accepted_index;
  /// Reader queries, never streamed.
  std::vector<astro::linalg::Vector> held_out;
  astro::linalg::Matrix true_basis;  ///< generator ground truth
  std::uint64_t hash = 0;            ///< FNV-1a over everything above

  /// Writes stream tuple k into the caller's buffers.
  void fill(std::size_t k, astro::linalg::Vector& values,
            astro::pca::PixelMask& mask) const;
};

/// Seed of repetition `rep` of a run with seed `seed` (splitmix64 mix).
std::uint64_t rep_seed(std::uint64_t seed, int rep);

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed,
                   std::size_t tuples);

}  // namespace perfbench
