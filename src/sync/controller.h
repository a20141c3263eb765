#pragma once

// The synchronization controller (paper §III-B): "generates the sequence of
// output tuples with sender and receiver number" and hands each one to the
// sender engine's control port.
//
//   SyncController --> engines (control ports)
//
// The paper wires a Throttle operator between the controller and the
// engines; here the controller paces itself with the same rules — one
// command per period (1/rate_hz), re-anchored to the last tick so an idle
// stretch banks no burst — "adjusting the Throttle operator timing helps
// finding the balance between the overall cluster performance and
// eigensystems consistency."  Every decision (which command, the health
// and liveness filters, the rejoin check) is taken on the tick that emits
// it, so it acts on the engines' state now, not on the state when a queued
// round was generated.

#include <functional>
#include <memory>
#include <vector>

#include "stream/operator.h"
#include "sync/strategy.h"

namespace astro::sync {

class SyncController final : public stream::Operator {
 public:
  /// Liveness probe: true when the engine can take part in a merge round.
  using LivenessProbe = std::function<bool(std::size_t engine)>;
  /// Restart-generation probe: advances each time the engine is restarted.
  using GenerationProbe = std::function<std::uint64_t(std::size_t engine)>;
  /// Health probe: true when the engine's eigensystem passed its last
  /// numerical self-check (PcaEngineOperator::healthy()).  A diverged
  /// engine is excluded from merge pairs — in either role — until it
  /// recovers, so its poisoned state can never reach a healthy peer.
  using HealthProbe = std::function<bool(std::size_t engine)>;

  /// `ports[i]` is engine i's control port; the controller closes every
  /// port when it exits.  `rate_hz` (> 0) is the command rate.
  SyncController(std::string name, std::unique_ptr<SyncStrategy> strategy,
                 std::vector<stream::ChannelPtr<stream::ControlTuple>> ports,
                 double rate_hz);

  /// Enables degraded-mode operation (call before start()).  With probes
  /// installed, commands naming a dead sender or receiver are skipped — the
  /// survivors keep syncing among themselves — and when an engine's
  /// generation advances (it was restarted and is alive again) the
  /// controller injects a bidirectional re-merge with its lowest-index live
  /// peer, folding the recovered eigensystem back into the cluster.
  void set_liveness(LivenessProbe alive, GenerationProbe generation);

  /// Enables the health dimension of the merge gate (call before start()).
  /// Orthogonal to liveness: a quarantined engine is typically both
  /// unhealthy and (briefly) dead, and the health filter runs first so the
  /// exclusion is attributed to the more specific reason.
  void set_health(HealthProbe healthy);

  [[nodiscard]] const SyncStrategy& strategy() const noexcept {
    return *strategy_;
  }

  /// Strategy rounds run so far: rounds with at least one command handed
  /// to a port (readable live from a sampler thread).
  [[nodiscard]] std::uint64_t rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }
  /// Commands skipped because an endpoint was dead.
  [[nodiscard]] std::uint64_t skipped_dead() const noexcept {
    return skipped_dead_.load(std::memory_order_relaxed);
  }
  /// Re-merge commands handed to a port for rejoining engines.
  [[nodiscard]] std::uint64_t rejoin_syncs() const noexcept {
    return rejoin_syncs_.load(std::memory_order_relaxed);
  }
  /// Commands skipped because an endpoint was quarantined (unhealthy).
  [[nodiscard]] std::uint64_t skipped_unhealthy() const noexcept {
    return skipped_unhealthy_.load(std::memory_order_relaxed);
  }

 protected:
  void run() override;

 private:
  /// Health then liveness filter; counts the skip it makes.
  bool admitted(const stream::ControlTuple& cmd);
  /// Non-blocking hand-off to the sender's port, as engines forward to
  /// peers: a full port delays consistency but never stalls the controller.
  bool deliver(stream::ControlTuple cmd);

  std::unique_ptr<SyncStrategy> strategy_;
  std::vector<stream::ChannelPtr<stream::ControlTuple>> ports_;
  double rate_hz_;
  LivenessProbe alive_;            // empty = every engine always live
  GenerationProbe generation_;
  HealthProbe health_;             // empty = every engine always healthy
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> skipped_dead_{0};
  std::atomic<std::uint64_t> rejoin_syncs_{0};
  std::atomic<std::uint64_t> skipped_unhealthy_{0};
};

}  // namespace astro::sync
