#pragma once

// In-flight result publication — the paper's motivating capability: "early
// results are invaluable when processing petabytes" and "allowing the
// flexible feeding of interesting objects ... with immediate retrieving the
// result of analysis".
//
// SnapshotPublisher is an operator that samples every PCA engine at a fixed
// interval and emits a compact summary tuple per engine — a live feed of
// the converging solution that downstream consumers (dashboards, steering
// logic, the examples) read like any other stream.
//
// With a serve::SnapshotServer attached, the same sampling loop is also the
// serving layer's WRITER (DESIGN.md "Serving layer"): each round it merges
// the healthy engines' eigensystems and publishes the result as the next
// immutable version readers query lock-free.  Publication honors the PR 4
// poison gates — an unhealthy (watchdog-quarantined) engine, an
// uninitialized one, or a non-finite snapshot is excluded from the merge,
// and a round with no eligible engine publishes nothing (readers keep the
// last good version; the skip is counted).
//
// Shutdown latency: the interval wait is the operator's stop-aware wait
// (stream::Operator::wait_until_stopped), so pipeline teardown never pays
// up to interval_seconds (nor a polling loop's wakeup tax) for a publisher
// parked mid-interval.

#include <memory>
#include <vector>

#include "pca/eigensystem.h"
#include "serve/snapshot_server.h"
#include "stream/operator.h"
#include "sync/pca_engine_op.h"

namespace astro::sync {

/// One engine's state at one instant.
struct SnapshotTuple {
  std::int64_t timestamp_us = 0;
  int engine = -1;
  std::uint64_t observations = 0;
  linalg::Vector eigenvalues;  ///< current spectrum (reported rank)
  double sigma2 = 0.0;
  double retained_variance = 0.0;
  std::uint64_t outliers = 0;
};

class SnapshotPublisher final : public stream::Operator {
 public:
  /// Samples `engines` every `interval_seconds` and pushes one
  /// SnapshotTuple per engine per round.  Stops when its output closes or
  /// stop is requested (the pipeline requests stop at shutdown).  With
  /// `server` non-null, each round additionally publishes the merged
  /// healthy-engine eigensystem as a new served version.
  SnapshotPublisher(std::string name,
                    std::vector<PcaEngineOperator*> engines,
                    stream::ChannelPtr<SnapshotTuple> out,
                    double interval_seconds,
                    serve::SnapshotServer* server = nullptr);

 protected:
  void run() override;

 private:
  /// Merge the healthy engines' snapshots into the served version for this
  /// round; a round with no eligible engine is counted as suppressed.
  void publish_to_server();

  std::vector<PcaEngineOperator*> engines_;
  stream::ChannelPtr<SnapshotTuple> out_;
  double interval_seconds_;
  serve::SnapshotServer* server_;
};

}  // namespace astro::sync
