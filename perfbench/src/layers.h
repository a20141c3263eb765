#pragma once

// Standalone per-layer timings for the traced run: each layer's public
// functions called directly on the workload's seeded inputs, timed from
// the benchmark's side of the call.  Nothing here runs in an end-to-end
// run.

#include <string>
#include <vector>

#include "inputs.h"
#include "pca/robust_pca.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// spectra.validate_ns, linalg.svd_us, pca.observe_us_p50/_p99,
/// pca.replay_tps, sync.merge_us, io.encode_ns, io.decode_ns,
/// serve.project_ns_p50, serve.residual_ns_p50, serve.topk_ns_p50 and
/// serve.publish_us.
std::vector<Metric> time_layers(const WorkloadSpec& w, const Inputs& in,
                                const astro::pca::RobustPcaConfig& pca_config);

}  // namespace perfbench
