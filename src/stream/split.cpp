#include "stream/split.h"

#include <stdexcept>

namespace astro::stream {

SplitRouter::SplitRouter(std::vector<ChannelPtr<DataTuple>> outs,
                         SplitStrategy strategy, std::uint64_t seed)
    : outs_(std::move(outs)),
      strategy_(strategy),
      rng_(seed + 0x9E37ull) {
  if (outs_.empty()) {
    throw std::invalid_argument("SplitRouter: needs at least one output");
  }
}

std::size_t SplitRouter::least_loaded(std::size_t best,
                                      std::size_t best_size) {
  // Rotate the scan's starting point per decision: a fixed scan from index
  // 0 with a strict `<` hands every tie to the lowest index, and at startup
  // (all queues empty), under light load (all equal) or with every queue
  // full, that funnels the whole stream at engine 0.  Starting each scan
  // one slot further spreads tie wins uniformly across the minima.
  const std::size_t n = outs_.size();
  const std::size_t start = rr_counter_++ % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    const std::size_t s = outs_[i]->size();
    if (s < best_size) {
      best = i;
      best_size = s;
    }
  }
  return best;
}

std::size_t SplitRouter::choose_target() {
  switch (strategy_) {
    case SplitStrategy::kRandom:
      return rng_.index(outs_.size());
    case SplitStrategy::kRoundRobin:
      return rr_state_++ % outs_.size();
    case SplitStrategy::kLeastLoaded:
      return least_loaded(0, std::size_t(-1));
  }
  return 0;
}

void SplitRouter::open() noexcept {
  metrics_.mark_start();
  if (gate_ != nullptr) gate_->open();
}

void SplitRouter::route(DataTuple t) {
  // The fused edge: its fault hook is consulted where a queue edge's push
  // would consult it, so a schedule naming this edge replays unchanged.
  if (!in_fault_.pass(t, /*may_delay=*/true)) return;
  in_gauges_.pushed.fetch_add(1, std::memory_order_relaxed);
  in_gauges_.popped.fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t t_in = OperatorMetrics::now_ns();
  // The ingest gate: a quarantined tuple is never routed, and the split's
  // own counters see only what it routes.
  if (gate_ != nullptr && !gate_->admit(t)) return;
  const std::size_t bytes = t.wire_bytes();
  metrics_.record_in(bytes);
  std::size_t target = choose_target();
  const std::uint64_t t_routed = OperatorMetrics::now_ns();
  metrics_.record_proc_ns(t_routed - t_in);

  // Non-blocking first: a full target means a slow engine; reroute to the
  // least loaded queue rather than stall the whole stream.
  if (!outs_[target]->try_push(t)) {
    target = least_loaded(target, outs_[target]->size());
    // Blocking push as last resort: backpressure all the way upstream.
    if (!outs_[target]->push(std::move(t))) {
      metrics_.record_dropped();
      return;
    }
  }
  metrics_.record_push_wait_ns(OperatorMetrics::now_ns() - t_routed);
  metrics_.record_out(bytes);
}

void SplitRouter::close() {
  for (auto& out : outs_) out->close();
  if (gate_ != nullptr) gate_->close();
  metrics_.mark_stop();
}

std::vector<std::uint64_t> SplitRouter::per_target_counts() const {
  std::vector<std::uint64_t> out(outs_.size());
  for (std::size_t i = 0; i < outs_.size(); ++i) {
    // The split is each port's only producer: what landed, plus what an
    // injected fault swallowed after the split sent it.
    const QueueGauges& g = outs_[i]->gauges();
    out[i] = g.pushed.load(std::memory_order_relaxed) +
             g.faulted.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace astro::stream
