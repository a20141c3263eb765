#pragma once

// The threaded split operator (paper §III-A.2): partitions the input
// stream across N downstream PCA engines.
//
// "Each new data tuple is being sent to a random running PCA engine which
// is free to process it.  This equally balances the nodes load, although
// making the order of data points on selected PCA engine unpredictable."
//
// Strategies:
//   kRandom     — the paper's default: uniform random target, but when the
//                 chosen queue is full the tuple is *rerouted* to the least
//                 loaded target ("faster nodes will get more data than
//                 slower ones in a period of time").
//   kRoundRobin — deterministic cycling (useful in tests).
//   kLeastLoaded— always shortest queue.
//
// With an IngestGate attached (set_gate) the split validates each tuple on
// its own thread before routing it, and closes the gate's DLQ on exit.

#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "stream/ingest_gate.h"
#include "stream/operator.h"

namespace astro::stream {

enum class SplitStrategy { kRandom, kRoundRobin, kLeastLoaded };

class SplitOperator final : public Operator {
 public:
  SplitOperator(std::string name, ChannelPtr<DataTuple> in,
                std::vector<ChannelPtr<DataTuple>> outs,
                SplitStrategy strategy = SplitStrategy::kRandom,
                std::uint64_t seed = 42);

  /// Validates every tuple through `gate` (non-owning, may be null) before
  /// routing; quarantined tuples are never routed.  Call before start().
  void set_gate(IngestGate* gate) noexcept { gate_ = gate; }

  /// Tuples routed to each output (sampled live).
  [[nodiscard]] std::vector<std::uint64_t> per_target_counts() const;

 protected:
  void run() override;

 private:
  std::size_t choose_target(stats::Rng& rng, std::size_t& rr_state);
  /// Least-loaded output (ties rotate); `best`/`best_size` is the incumbent.
  std::size_t least_loaded(std::size_t best, std::size_t best_size);

  ChannelPtr<DataTuple> in_;
  std::vector<ChannelPtr<DataTuple>> outs_;
  SplitStrategy strategy_;
  std::uint64_t seed_;
  IngestGate* gate_ = nullptr;
  std::uint64_t rr_counter_ = 0;  ///< least_loaded's rotating scan start
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

}  // namespace astro::stream
