#include "sync/controller.h"

#include <chrono>
#include <deque>
#include <optional>
#include <stdexcept>

namespace astro::sync {

using stream::ControlTuple;

SyncController::SyncController(
    std::string name, std::unique_ptr<SyncStrategy> strategy,
    std::vector<stream::ChannelPtr<ControlTuple>> ports, double rate_hz)
    : Operator(std::move(name)),
      strategy_(std::move(strategy)),
      ports_(std::move(ports)),
      rate_hz_(rate_hz) {
  if (!strategy_) throw std::invalid_argument("SyncController: null strategy");
  if (ports_.empty()) {
    throw std::invalid_argument("SyncController: needs >= 1 engine port");
  }
  if (!(rate_hz_ > 0.0)) {
    throw std::invalid_argument("SyncController: rate_hz must be > 0");
  }
}

void SyncController::set_liveness(LivenessProbe alive,
                                  GenerationProbe generation) {
  alive_ = std::move(alive);
  generation_ = std::move(generation);
}

void SyncController::set_health(HealthProbe healthy) {
  health_ = std::move(healthy);
}

bool SyncController::admitted(const ControlTuple& cmd) {
  const auto excludes = [&](const auto& probe) {
    return !probe(std::size_t(cmd.sender)) ||
           (cmd.receiver >= 0 && !probe(std::size_t(cmd.receiver)));
  };
  // Health first: a quarantined engine is usually also dead for a few
  // polls, and "excluded because diverged" is the more specific reason.
  // This keeps a poisoned eigensystem out of every merge pair, in either
  // role, until recovery flips the probe back.
  if (health_ && excludes(health_)) {
    skipped_unhealthy_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (alive_ && excludes(alive_)) {
    skipped_dead_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool SyncController::deliver(ControlTuple cmd) {
  if (!ports_[std::size_t(cmd.sender)]->try_push(cmd)) {
    metrics_.record_dropped();
    return false;
  }
  metrics_.record_out();
  return true;
}

void SyncController::run() {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = ports_.size();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_hz_));
  std::vector<ControlTuple> round;  // the strategy round in progress
  std::size_t next = 0;             // its first command not yet decided
  bool round_ran = false;           // one of its commands reached a port
  std::uint64_t epoch = 0;          // the next round to draw
  std::deque<ControlTuple> rejoins;  // decided re-merge pairs, sent first
  std::vector<std::uint64_t> seen_generation(n, 0);
  // One token, available at once; waiting until next_due is the refill.
  auto next_due = Clock::now();
  while (!wait_until_stopped(next_due)) {
    // Rejoin: a restarted engine resumes from its checkpoint, which
    // predates any merges it missed.  Pull a live peer's state into it and
    // push its recovered state back out on the next two ticks, instead of
    // waiting for the strategy's pattern to cycle around.
    if (alive_ && generation_) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t gen = generation_(i);
        if (gen == seen_generation[i]) continue;
        if (!alive_(i)) continue;              // still down; next tick
        if (health_ && !health_(i)) continue;  // not clean yet
        seen_generation[i] = gen;
        for (std::size_t peer = 0; peer < n; ++peer) {
          if (peer == i || !alive_(peer)) continue;
          if (health_ && !health_(peer)) continue;
          ControlTuple pull;
          pull.epoch = epoch;
          pull.sender = int(peer);
          pull.receiver = int(i);
          ControlTuple push_back = pull;
          push_back.sender = int(i);
          push_back.receiver = int(peer);
          rejoins.push_back(pull);
          rejoins.push_back(push_back);
          break;  // lowest-index live peer is enough
        }
      }
    }

    // One command per tick: a pending rejoin first, else the strategy's
    // next admitted command.  Skipped commands cost no tick, but at most n
    // fresh rounds are drawn per tick, so a cluster whose every pair is
    // filtered idles at the period instead of spinning.
    std::optional<ControlTuple> cmd;
    while (!cmd && !rejoins.empty()) {
      if (admitted(rejoins.front())) cmd = rejoins.front();
      rejoins.pop_front();
    }
    if (cmd) {
      if (deliver(*cmd)) rejoin_syncs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (std::size_t drawn = 0; !cmd;) {
        if (next == round.size()) {
          if (drawn == n) break;
          round = strategy_->round(epoch++, n);
          next = 0;
          round_ran = false;
          ++drawn;
          if (round.empty()) break;  // n < 2: nothing to synchronize
        }
        if (admitted(round[next])) cmd = round[next];
        ++next;
      }
      if (round.empty()) break;
      if (cmd && deliver(*cmd) && !round_ran) {
        round_ran = true;
        rounds_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Re-anchor to this tick, whether it emitted or idled: consecutive
    // commands are never closer than one period, and a stretch of filtered
    // rounds banks no credit for a catch-up burst.
    next_due = Clock::now() + period;
  }
  for (auto& port : ports_) port->close();
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

}  // namespace astro::sync
