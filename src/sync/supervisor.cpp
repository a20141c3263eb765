#include "sync/supervisor.h"

#include <chrono>
#include <stdexcept>

namespace astro::sync {

Supervisor::Supervisor(
    std::string name, std::vector<PcaEngineOperator*> engines,
    std::vector<stream::ChannelPtr<stream::DataTuple>> data_ports,
    std::vector<stream::ChannelPtr<stream::ControlTuple>> control_ports,
    SupervisorConfig config)
    : Operator(std::move(name)),
      engines_(std::move(engines)),
      data_ports_(std::move(data_ports)),
      control_ports_(std::move(control_ports)),
      config_(config),
      watch_(engines_.size()),
      restart_counts_(new std::atomic<std::uint64_t>[engines_.size()]),
      abandoned_flags_(new std::atomic<bool>[engines_.size()]) {
  if (engines_.empty()) {
    throw std::invalid_argument("Supervisor: no engines to watch");
  }
  if (data_ports_.size() != engines_.size() ||
      control_ports_.size() != engines_.size()) {
    throw std::invalid_argument("Supervisor: port/engine count mismatch");
  }
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    restart_counts_[i].store(0, std::memory_order_relaxed);
    abandoned_flags_[i].store(false, std::memory_order_relaxed);
  }
}

Supervisor::~Supervisor() {
  // The base-class join alone is not enough: a supervisor mid-backoff would
  // hold the destructor hostage, so ask it to stop first.
  request_stop();
  join();
}

bool Supervisor::alive(std::size_t engine) const {
  if (engine >= engines_.size()) return false;
  if (abandoned_flags_[engine].load(std::memory_order_relaxed)) return false;
  return engines_[engine]->lifecycle() != EngineLifecycle::kCrashed;
}

std::uint64_t Supervisor::restarts(std::size_t engine) const {
  if (engine >= engines_.size()) return 0;
  return restart_counts_[engine].load(std::memory_order_relaxed);
}

double Supervisor::backoff_seconds(std::uint64_t restarts_so_far) const {
  double delay = config_.backoff_base_seconds;
  for (std::uint64_t i = 0; i < restarts_so_far; ++i) {
    delay *= config_.backoff_factor;
    if (delay >= config_.backoff_max_seconds) break;
  }
  return delay < config_.backoff_max_seconds ? delay
                                             : config_.backoff_max_seconds;
}

void Supervisor::abandon_engine(std::size_t i) {
  watch_[i].abandoned = true;
  abandoned_flags_[i].store(true, std::memory_order_relaxed);
  abandoned_count_.fetch_add(1, std::memory_order_relaxed);
  // Unblock producers: close the dead engine's ports and throw away what
  // was queued.  The discarded count keeps conservation checkable — these
  // tuples left the splitter but were consumed by the abandonment, not
  // lost silently.
  data_ports_[i]->close();
  control_ports_[i]->close();
  while (data_ports_[i]->try_pop()) {
    discarded_tuples_.fetch_add(1, std::memory_order_relaxed);
  }
  while (control_ports_[i]->try_pop()) {
  }
}

void Supervisor::recover_engine(std::size_t i) {
  const std::uint64_t t_detect = stream::OperatorMetrics::now_ns();
  const std::uint64_t prior = restart_counts_[i].load(std::memory_order_relaxed);
  if (prior >= config_.max_restarts) {
    abandon_engine(i);
    return;
  }
  if (wait_for_stop(std::chrono::duration<double>(backoff_seconds(prior)))) {
    return;  // shutdown wins; cleanup happens on exit
  }
  engines_[i]->recover();
  engines_[i]->restart();
  restart_counts_[i].fetch_add(1, std::memory_order_relaxed);
  total_restarts_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t t_done = stream::OperatorMetrics::now_ns();
  last_recovery_ns_.store(t_done - t_detect, std::memory_order_relaxed);
  // Recovery latency (detection -> restarted, backoff included) lands in
  // this operator's proc histogram; restarts in its tuple counter.
  metrics_.record_proc_ns(t_done - t_detect);
  metrics_.record_out();
  watch_[i].stalls = 0;
  watch_[i].last_heartbeat = engines_[i]->heartbeat();
}

void Supervisor::run() {
  while (!stop_requested()) {
    bool all_done = true;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      Watch& w = watch_[i];
      if (w.abandoned) continue;
      const EngineLifecycle life = engines_[i]->lifecycle();
      if (life == EngineLifecycle::kCompleted) continue;
      all_done = false;
      const std::uint64_t hb = engines_[i]->heartbeat();
      if (hb != w.last_heartbeat) {
        w.last_heartbeat = hb;
        w.stalls = 0;
        continue;
      }
      ++w.stalls;
      // Death needs both signals: a stalled heartbeat alone may just be a
      // slow engine; the crash flag alone may not yet have had a chance to
      // be observed as a stall.  Requiring the pair models missed
      // heartbeats on a control port without misreading backpressure as
      // death.
      if (w.stalls >= config_.missed_heartbeats &&
          life == EngineLifecycle::kCrashed) {
        recover_engine(i);
        if (stop_requested()) break;
      }
    }
    if (all_done) break;
    wait_for_stop(std::chrono::duration<double>(config_.poll_interval_seconds));
  }
  // On a requested shutdown, nothing else will ever drain the engine
  // ports: a dead engine never returns, a live one exits on its stop flag
  // without draining, and an engine can be *mid-crash* — the injector has
  // fired but the kCrashed store only lands after the unwind — so an
  // instantaneous lifecycle read must not gate the cleanup.  Close and
  // empty every non-abandoned engine's ports so the splitter's blocking
  // push can't deadlock the pipeline teardown.
  if (stop_requested()) {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (watch_[i].abandoned) continue;
      data_ports_[i]->close();
      control_ports_[i]->close();
      while (data_ports_[i]->try_pop()) {
        discarded_tuples_.fetch_add(1, std::memory_order_relaxed);
      }
      while (control_ports_[i]->try_pop()) {
      }
    }
  }
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

}  // namespace astro::sync
