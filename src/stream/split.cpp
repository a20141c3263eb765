#include "stream/split.h"

#include <stdexcept>

namespace astro::stream {

SplitOperator::SplitOperator(std::string name, ChannelPtr<DataTuple> in,
                             std::vector<ChannelPtr<DataTuple>> outs,
                             SplitStrategy strategy, std::uint64_t seed)
    : Operator(std::move(name)),
      in_(std::move(in)),
      outs_(std::move(outs)),
      strategy_(strategy),
      seed_(seed),
      counts_(std::make_unique<std::atomic<std::uint64_t>[]>(outs_.size())) {
  if (outs_.empty()) {
    throw std::invalid_argument("SplitOperator: needs at least one output");
  }
  for (std::size_t i = 0; i < outs_.size(); ++i) counts_[i] = 0;
}

std::size_t SplitOperator::least_loaded(std::size_t best,
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

std::size_t SplitOperator::choose_target(stats::Rng& rng,
                                         std::size_t& rr_state) {
  switch (strategy_) {
    case SplitStrategy::kRandom:
      return rng.index(outs_.size());
    case SplitStrategy::kRoundRobin:
      return rr_state++ % outs_.size();
    case SplitStrategy::kLeastLoaded:
      return least_loaded(0, std::size_t(-1));
  }
  return 0;
}

void SplitOperator::run() {
  stats::Rng rng(seed_ + 0x9E37ull);
  std::size_t rr_state = 0;
  if (gate_ != nullptr) gate_->open();

  DataTuple t;
  std::uint64_t t_prev = OperatorMetrics::now_ns();
  while (!stop_requested() && in_->pop(t)) {
    const std::uint64_t t_popped = OperatorMetrics::now_ns();
    metrics_.record_pop_wait_ns(t_popped - t_prev);
    // The fused ingest gate: a quarantined tuple is never routed, and the
    // split's own counters see only what it routes.
    if (gate_ != nullptr && !gate_->admit(t)) {
      t_prev = OperatorMetrics::now_ns();
      continue;
    }
    metrics_.record_in(t.wire_bytes());
    std::size_t target = choose_target(rng, rr_state);
    const std::uint64_t t_routed = OperatorMetrics::now_ns();
    metrics_.record_proc_ns(t_routed - t_popped);

    // Non-blocking first: a full target means a slow engine; reroute to the
    // least loaded queue rather than stall the whole stream.
    const std::size_t bytes = t.wire_bytes();
    if (!outs_[target]->try_push(t)) {
      target = least_loaded(target, outs_[target]->size());
      // Blocking push as last resort: backpressure all the way upstream.
      if (!outs_[target]->push(std::move(t))) {
        metrics_.record_dropped();
        t_prev = OperatorMetrics::now_ns();
        continue;
      }
    }
    t_prev = OperatorMetrics::now_ns();
    metrics_.record_push_wait_ns(t_prev - t_routed);
    counts_[target].fetch_add(1, std::memory_order_relaxed);
    metrics_.record_out(bytes);
  }
  for (auto& out : outs_) out->close();
  // After the outputs: the split is the dead-letter channel's last producer.
  if (gate_ != nullptr) gate_->close();
  set_stop_reason(stop_requested() ? StopReason::kRequested
                                   : StopReason::kUpstreamClosed);
}

std::vector<std::uint64_t> SplitOperator::per_target_counts() const {
  std::vector<std::uint64_t> out(outs_.size());
  for (std::size_t i = 0; i < outs_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace astro::stream
