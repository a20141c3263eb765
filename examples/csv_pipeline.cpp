// End-to-end file workflow: CSV in -> parallel robust streaming PCA ->
// eigensystem checkpoint + outlier CSV out.  The paper's "local regular
// text file ... can feed the data" input path as a working utility.
//
//   build/examples/csv_pipeline [input.csv [output_prefix]]
//
// Without arguments it writes itself a demo input (spectra with gaps as
// empty CSV fields and a few junk rows) into /tmp first, so the example is
// always runnable.  Outputs:
//   <prefix>.eigensystem   — binary checkpoint (io/checkpoint.h)
//   <prefix>.outliers.csv  — the observations the robust weighting rejected
//   <prefix>.basis.csv     — eigenvectors as columns, for plotting

#include <cstdio>
#include <string>
#include <vector>

#include "app/pipeline.h"
#include "io/checkpoint.h"
#include "io/csv.h"
#include "spectra/generator.h"

using namespace astro;

namespace {

// Writes a demo dataset: 4000 synthetic spectra, redshift gaps as missing
// fields, 2 % junk rows.
void write_demo_input(const std::string& path) {
  spectra::SpectraConfig cfg;
  cfg.pixels = 80;
  cfg.components = 3;
  cfg.max_redshift = 0.1;
  cfg.outlier_fraction = 0.02;
  spectra::GalaxySpectrumGenerator gen(cfg);
  std::vector<linalg::Vector> rows;
  std::vector<pca::PixelMask> masks;
  for (int i = 0; i < 4000; ++i) {
    auto s = gen.next();
    rows.push_back(std::move(s.flux));
    masks.push_back(std::move(s.mask));
  }
  io::write_csv_file(path, rows, masks);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string input =
      argc > 1 ? argv[1] : "/tmp/astrostream_demo_input.csv";
  const std::string prefix =
      argc > 2 ? argv[2] : "/tmp/astrostream_demo";

  if (argc <= 1) {
    std::printf("no input given; writing a demo dataset to %s\n",
                input.c_str());
    write_demo_input(input);
  }

  std::printf("reading %s ...\n", input.c_str());
  io::CsvDataset dataset = io::read_csv_file(input);
  if (dataset.rows.empty()) {
    std::fprintf(stderr, "error: %s holds no rows\n", input.c_str());
    return 1;
  }
  const std::size_t dim = dataset.rows[0].size();
  std::printf("  %zu observations x %zu features\n", dataset.rows.size(), dim);

  app::PipelineConfig config;
  config.pca.dim = dim;
  config.pca.rank = std::min<std::size_t>(5, dim / 2);
  config.pca.extra_rank = dim >= 16 ? 2 : 0;
  config.pca.alpha = 1.0 - 1.0 / 1000.0;
  config.engines = 4;
  config.collect_outliers = true;
  const std::size_t n_rows = dataset.rows.size();
  // A finite file: keep every outlier for the dump, not just the newest.
  config.dead_letter_retained = n_rows;

  app::StreamingPcaPipeline pipeline(config, std::move(dataset.rows),
                                     std::move(dataset.masks));
  pipeline.run();

  const pca::EigenSystem result = pipeline.result();
  std::printf("processed %zu rows through %zu engines; eigenvalues:",
              n_rows, config.engines);
  for (std::size_t k = 0; k < config.pca.rank; ++k) {
    std::printf(" %.4g", result.eigenvalues()[k]);
  }
  std::printf("\n");

  // Checkpoint the merged eigensystem.
  const std::string ckpt = prefix + ".eigensystem";
  io::save_eigensystem_file(ckpt, result, config.pca.alpha);

  // Dump the basis as CSV (rows = features, columns = components).
  std::vector<linalg::Vector> basis_rows;
  for (std::size_t r = 0; r < result.dim(); ++r) {
    linalg::Vector row(result.rank());
    for (std::size_t c = 0; c < result.rank(); ++c) {
      row[c] = result.basis()(r, c);
    }
    basis_rows.push_back(std::move(row));
  }
  io::write_csv_file(prefix + ".basis.csv", basis_rows);

  // Dump rejected observations.
  const auto outliers = pipeline.outliers();
  std::vector<linalg::Vector> outlier_rows;
  std::vector<pca::PixelMask> outlier_masks;
  for (const auto& t : outliers) {
    outlier_rows.push_back(t.values);
    outlier_masks.push_back(t.mask);
  }
  io::write_csv_file(prefix + ".outliers.csv", outlier_rows, outlier_masks);

  std::printf("wrote %s, %s.basis.csv, %s.outliers.csv (%zu outliers)\n",
              ckpt.c_str(), prefix.c_str(), prefix.c_str(), outliers.size());
  return 0;
}
