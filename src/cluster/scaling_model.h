#pragma once

// Simulation of the paper's Figure-2 graph on a modeled cluster.
//
// Reproduces the §III-D experiments: a source + threaded splitter on the
// head node feed N streaming-PCA engines placed either all on the head node
// ("single", where fused operators exchange tuples in memory) or spread
// round-robin across the cluster ("distributed", where every tuple crosses
// the interconnect).  A closed-loop window per engine models the engine's
// bounded input queue / backpressure, and periodic synchronization rounds
// cost a merge plus a state transfer.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/event_sim.h"

namespace astro::cluster {

/// Hardware model.  Defaults = the paper's testbed: 10 identical nodes,
/// quad-core Xeon E31230 @ 3.2 GHz, 1 GbE.
struct ClusterConfig {
  std::size_t nodes = 10;
  std::size_t cores_per_node = 4;
};

enum class Placement {
  kSingleNode,   ///< all engines fused on the head node (in-memory channels)
  kDistributed,  ///< engines round-robin over all nodes (network channels)
};

[[nodiscard]] std::string to_string(Placement p);

struct SimPipelineConfig {
  std::size_t engines = 10;
  std::size_t dim = 250;     ///< tuple dimensionality (the Figure-6 setting)
  std::size_t rank = 10;     ///< retained PCA components
  Placement placement = Placement::kDistributed;
  /// When non-empty, overrides `placement`: explicit engine -> node map
  /// (size must equal `engines`, entries < cluster.nodes).  This is what
  /// the placement optimizer (placement.h) searches over.
  std::vector<std::size_t> explicit_placement;
  double sim_seconds = 2.0;  ///< simulated duration
  /// Engine input-queue depth (tuples in flight per engine, the closed-loop
  /// window).  Matches the real engine's bounded channel.
  std::size_t window = 32;
  /// Synchronization rounds per second (0 disables).  Paper: 2 (its
  /// Throttle at 0.5 s; the real pipeline's controller paces the same).
  double sync_rate_hz = 2.0;
};

struct SimResult {
  double sim_seconds = 0.0;
  std::uint64_t tuples = 0;        ///< tuples fully processed by engines
  double throughput = 0.0;         ///< tuples / simulated second
  double head_cpu_utilization = 0.0;
  double head_nic_utilization = 0.0;
  double engine_cpu_utilization = 0.0;  ///< mean over engine nodes
  std::vector<std::uint64_t> per_engine;
  std::uint64_t sync_rounds = 0;
};

/// Runs the discrete-event simulation and reports steady-state throughput.
[[nodiscard]] SimResult simulate_streaming_pca(const ClusterConfig& cluster,
                                               const SimPipelineConfig& pipeline,
                                               const CostModel& costs);

}  // namespace astro::cluster
