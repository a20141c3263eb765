#pragma once

// The fused split (paper §III-A.2): partitions the input stream across N
// downstream PCA engines.
//
// "Each new data tuple is being sent to a random running PCA engine which
// is free to process it.  This equally balances the nodes load, although
// making the order of data points on selected PCA engine unpredictable."
//
// Fused like InfoSphere's processing elements (§III-A): the split has no
// thread and no input queue.  It runs on whichever thread produces the
// tuple (the source, or a transport downlink), so the engines' input
// queues are the only data-plane buffers.  Its in-edge is a fused edge: no
// queue, but the same FaultEdge a queue edge consults.
//
// Strategies:
//   kRandom     — the paper's default: uniform random target, but when the
//                 chosen queue is full the tuple is *rerouted* to the least
//                 loaded target ("faster nodes will get more data than
//                 slower ones in a period of time").
//   kRoundRobin — deterministic cycling (useful in tests).
//   kLeastLoaded— always shortest queue.
//
// With an IngestGate attached (set_gate) each tuple is validated before it
// is routed; a reject is recorded as a dead letter on the same thread.

#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "stream/ingest_gate.h"
#include "stream/operator.h"

namespace astro::stream {

enum class SplitStrategy { kRandom, kRoundRobin, kLeastLoaded };

class SplitRouter {
 public:
  SplitRouter(std::vector<ChannelPtr<DataTuple>> outs,
              SplitStrategy strategy = SplitStrategy::kRandom,
              std::uint64_t seed = 42);

  /// Validates every tuple through `gate` (non-owning, may be null) before
  /// routing; quarantined tuples are never routed.  Call before open().
  void set_gate(IngestGate* gate) noexcept { gate_ = gate; }
  /// The fused in-edge's fault hook.  Call before open().
  void set_fault_hook(FaultEdge::Hook hook) {
    in_fault_.set_hook(std::move(hook));
  }

  /// Starts the split's (and the gate's) active window.
  void open() noexcept;
  /// Routes one tuple on the calling thread (one producer only): the fused
  /// edge's fault hook, the gate, then the strategy.  The caller blocks
  /// only when the target and the least-loaded port are both full.  A
  /// closed port's refusal (stop, abandoned engine) counts as dropped.
  void route(DataTuple t);
  /// After the producer's last route(): closes the engine ports and ends
  /// the split's (and the gate's) active window.
  void close();

  /// Tuples routed to each output (sampled live).
  [[nodiscard]] std::vector<std::uint64_t> per_target_counts() const;
  /// tuples_in = admitted, tuples_out = routed, proc = gate + choice.
  [[nodiscard]] const OperatorMetrics& metrics() const noexcept {
    return metrics_;
  }
  /// The fused in-edge's gauges: pushed == popped, depth 0.
  [[nodiscard]] const QueueGauges& edge_gauges() const noexcept {
    return in_gauges_;
  }

 private:
  std::size_t choose_target();
  /// Least-loaded output (ties rotate); `best`/`best_size` is the incumbent.
  std::size_t least_loaded(std::size_t best, std::size_t best_size);

  std::vector<ChannelPtr<DataTuple>> outs_;
  SplitStrategy strategy_;
  stats::Rng rng_;
  std::size_t rr_state_ = 0;      ///< kRoundRobin's cursor
  std::uint64_t rr_counter_ = 0;  ///< least_loaded's rotating scan start
  IngestGate* gate_ = nullptr;
  OperatorMetrics metrics_;
  QueueGauges in_gauges_;
  FaultEdge in_fault_{in_gauges_};
};

/// A producer's data output: a queue to a consumer thread, or the fused
/// split run on the producer's own thread.  push() is false once a queue
/// closes; the split takes every tuple (it counts its own drops).
class DataEdge {
 public:
  DataEdge(ChannelPtr<DataTuple> queue) : queue_(std::move(queue)) {}
  DataEdge(std::shared_ptr<SplitRouter> split) : split_(std::move(split)) {}

  void open() { if (split_) split_->open(); }
  bool push(DataTuple&& t) {
    if (!split_) return queue_->push(std::move(t));
    split_->route(std::move(t));
    return true;
  }
  void close() { split_ ? split_->close() : queue_->close(); }

 private:
  ChannelPtr<DataTuple> queue_;
  std::shared_ptr<SplitRouter> split_;
};

}  // namespace astro::stream
