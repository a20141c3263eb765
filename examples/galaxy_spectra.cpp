// The paper's headline application: parallel streaming PCA over SDSS-like
// galaxy spectra, with redshift-induced coverage gaps, normalization,
// outlier contamination, ring synchronization, and periodic checkpoints.
//
//   build/examples/galaxy_spectra [n_spectra]
//
// Four PCA engines consume a randomly-partitioned spectrum stream; their
// eigensystems are periodically synchronized; the merged result is compared
// against the generator's ground-truth eigenspectra and checkpointed to
// /tmp (the paper: "intermediate calculation results are periodically saved
// to the disk for future reference").

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "app/pipeline.h"
#include "io/checkpoint.h"
#include "pca/batch_pca.h"
#include "pca/subspace.h"
#include "spectra/generator.h"
#include "spectra/normalize.h"

using namespace astro;

int main(int argc, char** argv) {
  const std::size_t n_spectra =
      argc > 1 ? std::size_t(std::atoll(argv[1])) : 20000;

  spectra::SpectraConfig workload;
  workload.pixels = 300;
  workload.components = 5;
  workload.noise = 0.02;
  workload.max_redshift = 0.15;   // systematic red-end gaps (paper SII-D)
  workload.outlier_fraction = 0.03;
  auto generator =
      std::make_shared<spectra::GalaxySpectrumGenerator>(workload);

  // Reference solution: batch PCA over a clean, normalized sample — what
  // the streaming engines should converge to.  Normalization is a template
  // fit against the mean spectrum (unbiased under the redshift gaps; see
  // spectra/normalize.h).
  const linalg::Vector norm_template = generator->mean_spectrum();
  std::vector<linalg::Vector> reference_sample;
  {
    spectra::GalaxySpectrumGenerator clean(workload);
    for (int i = 0; i < 2000; ++i) {
      linalg::Vector flux = clean.next_clean_flux();
      spectra::normalize_to_template(flux, {}, norm_template);
      reference_sample.push_back(std::move(flux));
    }
  }
  const pca::EigenSystem reference = pca::batch_pca(reference_sample, 5);

  app::PipelineConfig config;
  config.pca.dim = workload.pixels;
  config.pca.rank = 5;
  config.pca.extra_rank = 2;  // higher-order components for gap residuals
  config.pca.alpha = 1.0 - 1.0 / 500.0;  // window 500 -> sync gate at 750
  config.pca.init_count = 50;
  config.engines = 4;
  config.sync_strategy = "ring";
  config.sync_rate_hz = 50.0;
  config.collect_outliers = true;
  config.snapshot_interval_seconds = 0.25;  // in-flight results feed

  std::printf("Streaming %zu synthetic galaxy spectra (%zu pixels) through "
              "%zu synchronized PCA engines...\n",
              n_spectra, workload.pixels, config.engines);

  auto remaining = std::make_shared<std::size_t>(n_spectra);
  app::StreamingPcaPipeline pipeline(
      config,
      [generator, remaining,
       norm_template]() -> std::optional<stream::SourceItem> {
        if ((*remaining)-- == 0) return std::nullopt;
        auto sample = generator->next();
        // Template-fit normalization on the observed pixels so brightness
        // and distance do not masquerade as spectral shape (paper SII-D);
        // the mask rides along so the engines patch the gaps instead of
        // seeing hard zeros.
        spectra::normalize_to_template(sample.flux, sample.mask,
                                       norm_template);
        return stream::SourceItem{std::move(sample.flux),
                                  std::move(sample.mask)};
      });
  pipeline.run();

  // The in-flight feed the paper motivates ("early results are invaluable
  // when processing petabytes"): engine 0's eigenvalue estimates over time.
  std::printf("\nIn-flight snapshots (engine 0):\n");
  for (const auto& snap : pipeline.snapshots()) {
    if (snap.engine != 0) continue;
    std::printf("  after %6llu spectra: lambda1 = %8.5f  sigma = %7.5f  "
                "outliers = %llu\n",
                (unsigned long long)snap.observations, snap.eigenvalues[0],
                std::sqrt(snap.sigma2), (unsigned long long)snap.outliers);
  }

  const pca::EigenSystem result = pipeline.result();
  std::printf("\nProcessed %llu spectra; merged eigensystem:\n",
              (unsigned long long)result.observations());
  for (std::size_t k = 0; k < 5; ++k) {
    const linalg::Vector ek = result.basis().col(k);
    std::printf("  eigenspectrum %zu: lambda = %9.5f  roughness = %7.4f  "
                "|batch-reference alignment| = %.3f\n",
                k + 1, result.eigenvalues()[k], spectra::roughness(ek),
                pca::alignment(ek, reference.basis().col(k)));
  }
  const linalg::Matrix streamed5 = pca::truncate(result, 5).basis();
  std::printf("  subspace affinity vs batch reference: %.4f\n",
              pca::subspace_affinity(streamed5, reference.basis()));

  std::printf("\nPer-engine statistics:\n");
  const auto stats = pipeline.engine_stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    std::printf("  engine %zu: %7llu tuples, %4llu outliers flagged, "
                "%3llu states shared, %3llu merges (%llu gated)\n",
                i, (unsigned long long)stats[i].tuples,
                (unsigned long long)stats[i].outliers,
                (unsigned long long)stats[i].syncs_sent,
                (unsigned long long)stats[i].merges_applied,
                (unsigned long long)stats[i].merges_skipped);
  }
  std::printf("  outlier log retains the newest %zu rejected spectra\n",
              pipeline.outliers().size());

  const char* path = "/tmp/galaxy_eigensystem.ckpt";
  io::save_eigensystem_file(path, result, config.pca.alpha);
  std::printf("\nCheckpointed the merged eigensystem to %s\n", path);
  const pca::EigenSystem reloaded = io::load_eigensystem_file(path);
  std::printf("Reloaded checkpoint: %zu x %zu system, %llu observations.\n",
              reloaded.dim(), reloaded.rank(),
              (unsigned long long)reloaded.observations());
  return 0;
}
