#pragma once

// Synchronization strategies (paper §III-B): who shares state with whom in
// each round.  The controller asks the strategy for the next round's
// (sender, receiver) commands and paces them itself, one per sync period.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/tuple.h"

namespace astro::sync {

class SyncStrategy {
 public:
  virtual ~SyncStrategy() = default;

  /// The control tuples of round `epoch` for `n` engines.
  [[nodiscard]] virtual std::vector<stream::ControlTuple> round(
      std::uint64_t epoch, std::size_t n) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's basic circular pattern (Figure 3): round r sends engine
/// (r mod n)'s state to engine (r+1 mod n); "when the largest sender number
/// is reached ... loops the cycle to receiver = 0".  One message per round —
/// minimal network traffic.
class RingStrategy final : public SyncStrategy {
 public:
  [[nodiscard]] std::vector<stream::ControlTuple> round(std::uint64_t epoch,
                                                        std::size_t n) override;
  [[nodiscard]] std::string name() const override { return "ring"; }
};

/// Rotating broadcast: round r shares engine (r mod n)'s state with every
/// other engine.  n−1 messages per round — fastest consistency, most
/// traffic.
class BroadcastStrategy final : public SyncStrategy {
 public:
  [[nodiscard]] std::vector<stream::ControlTuple> round(std::uint64_t epoch,
                                                        std::size_t n) override;
  [[nodiscard]] std::string name() const override { return "broadcast"; }
};

/// Peer-to-peer: each round pairs engines randomly (derangement-ish); n/2
/// exchanges per round, gossip-style convergence.
class RandomPairStrategy final : public SyncStrategy {
 public:
  explicit RandomPairStrategy(std::uint64_t seed = 7) : seed_(seed) {}
  [[nodiscard]] std::vector<stream::ControlTuple> round(std::uint64_t epoch,
                                                        std::size_t n) override;
  [[nodiscard]] std::string name() const override { return "random-pair"; }

 private:
  std::uint64_t seed_;
};

/// Group-based: engines are partitioned into groups of `group_size`; each
/// round runs the circular pattern inside every group in parallel, plus a
/// slow inter-group ring every `bridge_every` rounds so information still
/// percolates globally.
class GroupedStrategy final : public SyncStrategy {
 public:
  explicit GroupedStrategy(std::size_t group_size, std::size_t bridge_every = 4);
  [[nodiscard]] std::vector<stream::ControlTuple> round(std::uint64_t epoch,
                                                        std::size_t n) override;
  [[nodiscard]] std::string name() const override { return "grouped"; }

 private:
  std::size_t group_size_;
  std::size_t bridge_every_;
};

/// Factory: "ring" | "broadcast" | "random-pair" | "grouped:<size>".
[[nodiscard]] std::unique_ptr<SyncStrategy> make_strategy(const std::string& name);

}  // namespace astro::sync
