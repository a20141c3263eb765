#include "sync/snapshot_publisher.h"

#include <chrono>

#include "pca/continuity.h"
#include "pca/health.h"
#include "pca/merge.h"

namespace astro::sync {

SnapshotPublisher::SnapshotPublisher(std::string name,
                                     std::vector<PcaEngineOperator*> engines,
                                     stream::ChannelPtr<SnapshotTuple> out,
                                     double interval_seconds,
                                     serve::SnapshotServer* server)
    : Operator(std::move(name)),
      engines_(std::move(engines)),
      out_(std::move(out)),
      interval_seconds_(interval_seconds),
      server_(server) {}

void SnapshotPublisher::publish_to_server() {
  // The serving layer's poison discipline (PR 4): a watchdog-quarantined
  // engine must not contribute to what millions of readers see, and a
  // non-finite snapshot must never be published at all.  Gathering is
  // per-engine — one gated engine suppresses its own contribution, not the
  // round; only a round with NO eligible engine is suppressed entirely
  // (readers then keep serving the previous version).
  std::vector<pca::EigenSystem> eligible;
  int single_engine = -1;
  for (PcaEngineOperator* engine : engines_) {
    if (!engine->healthy()) continue;
    // The serve view, not the raw state: identical for truncated engines,
    // the rank-(p+q) continuity view for exact-mode ones.
    pca::EigenSystem state = engine->serve_snapshot();
    if (!state.initialized()) continue;
    if (!pca::all_finite(state)) continue;
    single_engine = engine->engine_id();
    eligible.push_back(std::move(state));
  }
  if (eligible.empty()) {
    server_->note_publish_suppressed();
    return;
  }
  const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  if (eligible.size() == 1) {
    // Publish boundary: pin component signs to the deterministic
    // convention so served top-k answers are stable across engine
    // restarts and publisher rounds (pca/continuity.h).  Idempotent —
    // exact-mode views already obey it.
    pca::apply_sign_convention(eligible.front());
    server_->publish(std::move(eligible.front()), single_engine, now_us);
    return;
  }
  // Pooled estimate across engines — the same combination the final
  // result() uses, tagged engine -1; observation counters sum in merge()
  // (whose output already carries the deterministic sign convention).
  server_->publish(pca::merge(eligible), -1, now_us);
}

void SnapshotPublisher::run() {
  using Clock = std::chrono::steady_clock;
  const auto started = Clock::now();
  std::uint64_t round = 0;

  while (!stop_requested()) {
    const auto due =
        started + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(double(round + 1) *
                                                    interval_seconds_));
    // Woken immediately by request_stop(): teardown never waits out the
    // interval and the parked publisher costs no polling wakeups.
    if (wait_until_stopped(due)) break;
    ++round;

    const auto now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now().time_since_epoch())
            .count();
    for (PcaEngineOperator* engine : engines_) {
      const std::uint64_t t_build = stream::OperatorMetrics::now_ns();
      const pca::EigenSystem state = engine->snapshot();
      if (!state.initialized()) continue;
      SnapshotTuple t;
      t.timestamp_us = now_us;
      t.engine = engine->engine_id();
      t.observations = state.observations();
      t.eigenvalues = state.eigenvalues();
      t.sigma2 = state.sigma2();
      t.retained_variance = state.retained_variance();
      t.outliers = engine->stats().outliers;
      const std::uint64_t t_push = stream::OperatorMetrics::now_ns();
      metrics_.record_proc_ns(t_push - t_build);
      if (!out_->push(std::move(t))) {
        out_->close();
        set_stop_reason(stream::StopReason::kUpstreamClosed);
        return;
      }
      metrics_.record_push_wait_ns(stream::OperatorMetrics::now_ns() - t_push);
      metrics_.record_out();
    }
    if (server_ != nullptr) publish_to_server();
  }
  out_->close();
  set_stop_reason(stream::StopReason::kRequested);
}

}  // namespace astro::sync
