#include "sync/snapshot_publisher.h"

#include <chrono>

#include "pca/continuity.h"
#include "pca/health.h"
#include "pca/merge.h"

namespace astro::sync {

SnapshotPublisher::SnapshotPublisher(std::string name,
                                     std::vector<PcaEngineOperator*> engines,
                                     stream::Recorder<SnapshotTuple>* feed,
                                     double interval_seconds,
                                     serve::SnapshotServer* server)
    : Operator(std::move(name)),
      engines_(std::move(engines)),
      feed_(feed),
      interval_seconds_(interval_seconds),
      server_(server) {}

void SnapshotPublisher::sample_round() {
  // One state-lock trip per engine feeds both consumers.  The serving
  // layer's poison discipline: a watchdog-quarantined engine must
  // not contribute to what millions of readers see, and a non-finite
  // snapshot must never be published at all.  Gathering is per-engine —
  // one gated engine suppresses its own contribution, not the round; only
  // a round with NO eligible engine is suppressed entirely (readers then
  // keep serving the previous version).
  const auto feed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
  std::vector<pca::EigenSystem> eligible;
  int single_engine = -1;
  for (PcaEngineOperator* engine : engines_) {
    const bool serve = server_ != nullptr && engine->healthy();
    if (feed_ == nullptr && !serve) continue;
    const std::uint64_t t_build = stream::OperatorMetrics::now_ns();
    EngineSample sample = engine->sample(feed_ != nullptr, serve);
    if (sample.feed) {
      sample.feed->timestamp_us = feed_us;
      feed_->record(*sample.feed);
      metrics_.record_proc_ns(stream::OperatorMetrics::now_ns() - t_build);
      metrics_.record_out();
    }
    if (serve && sample.served.initialized() &&
        pca::all_finite(sample.served)) {
      single_engine = engine->engine_id();
      eligible.push_back(std::move(sample.served));
    }
  }
  if (server_ != nullptr) publish(eligible, single_engine);
}

void SnapshotPublisher::publish(std::vector<pca::EigenSystem>& eligible,
                                int single_engine) {
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
    sample_round();
  }
  set_stop_reason(stream::StopReason::kRequested);
}

}  // namespace astro::sync
