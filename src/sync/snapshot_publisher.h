#pragma once

// In-flight result publication — the paper's motivating capability: "early
// results are invaluable when processing petabytes" and "allowing the
// flexible feeding of interesting objects ... with immediate retrieving the
// result of analysis".
//
// SnapshotPublisher is an operator that samples every PCA engine at a fixed
// interval.  With a snapshot recorder attached it records a compact
// summary tuple per engine — a live feed of the converging solution that
// downstream consumers (dashboards, steering logic, the examples) read
// from the recorder's retained window.  Without one it builds no summary
// at all, so a serve-only publisher takes no extra engine state locks.
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
#include "stream/recorder.h"
#include "sync/pca_engine_op.h"

namespace astro::sync {

class SnapshotPublisher final : public stream::Operator {
 public:
  /// Samples `engines` every `interval_seconds` until stop is requested
  /// (the pipeline requests stop at shutdown).  With `feed` non-null
  /// (non-owning) each round records one SnapshotTuple per initialized
  /// engine; with `server` non-null it publishes the merged healthy-engine
  /// eigensystem as a new served version.
  SnapshotPublisher(std::string name,
                    std::vector<PcaEngineOperator*> engines,
                    stream::Recorder<SnapshotTuple>* feed,
                    double interval_seconds,
                    serve::SnapshotServer* server = nullptr);

 protected:
  void run() override;

 private:
  /// Reads each engine once: records one SnapshotTuple per initialized
  /// engine, and gathers the healthy engines' serve views for publish().
  void sample_round();
  /// Merges `eligible` into the served version for this round; a round
  /// with no eligible engine is counted as suppressed.
  void publish(std::vector<pca::EigenSystem>& eligible, int single_engine);

  std::vector<PcaEngineOperator*> engines_;
  stream::Recorder<SnapshotTuple>* feed_;
  double interval_seconds_;
  serve::SnapshotServer* server_;
};

}  // namespace astro::sync
