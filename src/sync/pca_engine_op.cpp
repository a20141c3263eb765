#include "sync/pca_engine_op.h"

#include <thread>
#include <chrono>
#include <cmath>

namespace astro::sync {

using stream::ControlTuple;
using stream::DataTuple;

namespace {
/// Records how long the state lock was *held* (not waited for): construct
/// after acquisition, records on scope exit — including exception unwinds,
/// so injected crashes mid-apply still leave a sample.
class ScopedHoldTimer {
 public:
  explicit ScopedHoldTimer(stream::LatencyHistogram& hist) noexcept
      : hist_(hist), t0_(stream::OperatorMetrics::now_ns()) {}
  ~ScopedHoldTimer() { hist_.record(stream::OperatorMetrics::now_ns() - t0_); }
  ScopedHoldTimer(const ScopedHoldTimer&) = delete;
  ScopedHoldTimer& operator=(const ScopedHoldTimer&) = delete;

 private:
  stream::LatencyHistogram& hist_;
  std::uint64_t t0_;
};
}  // namespace

PcaEngineOperator::PcaEngineOperator(
    std::string name, int engine_id, const pca::RobustPcaConfig& pca_config,
    stream::ChannelPtr<DataTuple> data_in,
    stream::ChannelPtr<ControlTuple> control_in,
    std::shared_ptr<StateExchange> exchange,
    std::vector<stream::ChannelPtr<ControlTuple>> peer_control,
    IndependencePolicy policy, stream::Recorder<DataTuple>* outliers,
    EngineFaultOptions fault_options, std::size_t batch_max)
    : Operator(std::move(name)),
      id_(engine_id),
      pca_config_(pca_config),
      pca_(pca_config),
      data_in_(std::move(data_in)),
      control_in_(std::move(control_in)),
      exchange_(std::move(exchange)),
      peer_control_(std::move(peer_control)),
      policy_(policy),
      outliers_(outliers),
      fault_(std::move(fault_options)),
      batch_max_(batch_max == 0 ? 1 : batch_max) {
  // Reserved once: the drain loop and report emission then run
  // allocation-free at any batch size a drain returns.
  batch_.reserve(batch_max_);
  batch_xs_.reserve(batch_max_);
  batch_reports_.reserve(batch_max_);
  // Pre-warm the update workspace for the largest batch a drain can
  // return: ensure() is idempotent and never shrinks, so the first full-size
  // batched SVD finds its scratch already sized instead of growing it on
  // the data path.
  if (pca_config_.dim > 0) {
    pca::UpdateWorkspace ws = pca_.take_workspace();
    ws.ensure(pca_config_.dim,
              pca_config_.rank + pca_config_.extra_rank + batch_max_);
    pca_.adopt_workspace(std::move(ws));
  }
}

pca::EigenSystem PcaEngineOperator::snapshot() const {
  std::lock_guard lock(state_mutex_);
  return pca_.eigensystem();
}

EngineSample PcaEngineOperator::sample(bool feed, bool serve) const {
  EngineSample s;
  std::lock_guard lock(state_mutex_);
  const pca::EigenSystem* state = feed ? &pca_.eigensystem() : nullptr;
  if (state != nullptr && state->initialized()) {
    s.feed = SnapshotTuple{.engine = id_,
                           .observations = state->observations(),
                           .eigenvalues = state->eigenvalues(),
                           .sigma2 = state->sigma2(),
                           .retained_variance = state->retained_variance(),
                           .outliers = stats_.outliers};
  }
  if (serve) s.served = pca_.serve_system();
  return s;
}

EngineStats PcaEngineOperator::stats() const {
  std::lock_guard lock(state_mutex_);
  return stats_;
}

void PcaEngineOperator::apply_batch_locked() {
  const std::size_t nb = batch_.size();
  ++stats_.batches;
  // WAL discipline: the caller logged the WHOLE drained batch (outside the
  // state lock — the log is engine-thread-only) before acquiring the lock,
  // so a kill anywhere inside the batch loses nothing — every popped tuple
  // is either inside the last checkpoint or in the log, and recovery
  // replays the log strictly per tuple.  Checkpointing is deferred to the
  // end of the batch: maybe_checkpoint_locked() truncates the log, and a
  // mid-batch truncation would drop logged-but-unapplied tuples.
  std::size_t applied = 0;
  while (applied < nb) {
    if (fault_.injector && fault_.injector->should_kill(id_, stats_.tuples)) {
      throw stream::InjectedCrash{};  // lock_guard unwinds the state mutex
    }
    // Sub-batch splitting keeps per-tuple counter semantics exact: a chunk
    // never crosses the next health-check boundary or the next scheduled
    // kill trigger, so the watchdog and the fault schedule fire at
    // precisely the applied-tuple counts the unbatched engine would see.
    std::size_t chunk = nb - applied;
    if (fault_.health_check_every > 0) {
      const std::uint64_t to_boundary =
          fault_.health_check_every -
          (stats_.tuples % fault_.health_check_every);
      chunk = std::min<std::size_t>(chunk, std::size_t(to_boundary));
    }
    if (fault_.injector) {
      if (const auto at = fault_.injector->next_kill_at(id_);
          at.has_value() && *at > stats_.tuples) {
        chunk = std::min<std::size_t>(chunk, std::size_t(*at - stats_.tuples));
      }
    }
    // Masked tuples take the sequential gap-patching path; maximal
    // unmasked runs are absorbed by one batched update each.
    const std::size_t chunk_end = applied + chunk;
    std::size_t i = applied;
    while (i < chunk_end) {
      if (!batch_[i].mask.empty()) {
        batch_reports_[i] = pca_.observe(batch_[i].values, batch_[i].mask);
        ++i;
      } else {
        std::size_t run_end = i + 1;
        while (run_end < chunk_end && batch_[run_end].mask.empty()) ++run_end;
        batch_xs_.clear();
        for (std::size_t r = i; r < run_end; ++r) {
          batch_xs_.push_back(&batch_[r].values);
        }
        pca_.observe_batch(batch_xs_.data(), batch_xs_.size(),
                           batch_reports_.data() + i);
        i = run_end;
      }
    }
    for (std::size_t r = applied; r < chunk_end; ++r) {
      if (batch_reports_[r].outlier) ++stats_.outliers;
    }
    stats_.tuples += chunk;
    since_last_sync_ += chunk;
    applied = chunk_end;
    // Watchdog cadence: self-check *before* the checkpoint decision so a
    // just-poisoned state can never be persisted by the same batch that
    // detects it.
    if (fault_.health_check_every > 0 &&
        stats_.tuples % fault_.health_check_every == 0) {
      const pca::HealthReport health = pca::check_health(
          pca_.eigensystem(), fault_.health_thresholds, health_ws_);
      if (!health.ok()) {
        throw pca::NumericalFault{health.fault};  // lock_guard unwinds
      }
    }
  }
  maybe_checkpoint_locked();
}

void PcaEngineOperator::wal_append(const DataTuple& t) {
  // Slot reuse: copy-assign into a retired entry when one exists — its
  // payload buffers (value vector, mask) keep their capacity across
  // truncations, so the steady-state WAL write is a memcpy-sized copy with
  // zero allocation.  push_back only while the log grows toward its
  // high-water mark.
  if (replay_log_size_ < replay_log_.size()) {
    replay_log_[replay_log_size_] = t;
  } else {
    replay_log_.push_back(t);
  }
  ++replay_log_size_;
}

void PcaEngineOperator::maybe_checkpoint_locked() {
  if (!fault_.checkpoints || fault_.checkpoint_every == 0) return;
  if (replay_log_size_ < fault_.checkpoint_every) return;
  // The init buffer is not snapshotable state; keep logging until the
  // eigensystem exists (the log stays bounded: init_count ≪ the interval).
  if (!pca_.initialized()) return;
  // Health gate: a non-finite state must never become the "last good
  // checkpoint" — keep logging and let the watchdog (or the next healthy
  // interval) decide.  The log keeps growing meanwhile, which is exactly
  // the information recovery needs.
  if (!pca::all_finite(pca_.eigensystem())) return;
  EngineCheckpoint ck;
  ck.engine_id = id_;
  ck.applied_tuples = stats_.tuples;
  ck.outliers = stats_.outliers;
  ck.since_last_sync = since_last_sync_;
  ck.blob = CheckpointStore::encode(pca_.eigensystem(), pca_config_.alpha);
  fault_.checkpoints->put(std::move(ck));
  // Everything up to here is durable; the WAL restarts from empty.  The
  // rewind keeps the retired entries (and their payload capacity) in place
  // for wal_append to reuse next interval.
  replay_log_size_ = 0;
}

void PcaEngineOperator::recover() {
  std::lock_guard lock(state_mutex_);
  ++stats_.restarts;
  std::uint64_t base_tuples = 0;
  std::uint64_t base_outliers = 0;
  std::uint64_t base_sync = 0;
  if (fault_.checkpoints) {
    if (const auto ck = fault_.checkpoints->latest(id_)) {
      double alpha = 0.0;
      // set_eigensystem sizes the engine's update workspace once (ensure is
      // idempotent); the replay loop below then runs allocation-free rather
      // than re-growing scratch per replayed tuple.
      pca_.set_eigensystem(CheckpointStore::decode(ck->blob, &alpha));
      base_tuples = ck->applied_tuples;
      base_outliers = ck->outliers;
      base_sync = ck->since_last_sync;
    }
  }
  // Counters rewind to the checkpoint, then the replay brings them (and the
  // eigensystem) back to exactly the pre-crash applied-tuple count: every
  // popped tuple is either inside the checkpoint or in the log, so nothing
  // is lost and nothing is double-counted.
  stats_.tuples = base_tuples;
  stats_.outliers = base_outliers;
  since_last_sync_ = base_sync;
  for (std::size_t li = 0; li < replay_log_size_; ++li) {
    const DataTuple& t = replay_log_[li];
    // Replay quarantine: the log may contain the very tuple that poisoned
    // this incarnation (the watchdog fires *after* the damage is applied).
    // Re-applying it would re-poison the restored state, so invalid tuples
    // — wrong length, or non-finite observed flux — are skipped and
    // counted.  They still count as `replayed` pops for conservation.
    ++stats_.replayed;
    bool clean = true;
    const std::size_t expect_d =
        pca_.initialized() ? pca_.eigensystem().mean().size() : 0;
    if (expect_d != 0 && t.values.size() != expect_d) clean = false;
    if (!t.mask.empty() && t.mask.size() != t.values.size()) clean = false;
    if (clean) {
      for (std::size_t i = 0; i < t.values.size(); ++i) {
        const bool observed = t.mask.empty() || t.mask[i];
        if (observed && !std::isfinite(t.values[i])) {
          clean = false;
          break;
        }
      }
    }
    if (!clean) {
      ++stats_.replay_quarantined;
      continue;
    }
    const pca::ObservationReport rep =
        t.mask.empty() ? pca_.observe(t.values)
                       : pca_.observe(t.values, t.mask);
    ++stats_.tuples;
    ++since_last_sync_;
    if (rep.outlier) ++stats_.outliers;
    // Replay is silent: outliers were already recorded by the incarnation
    // that first applied these tuples (data-plane metrics count pops, and
    // replayed tuples were popped exactly once).
  }
  // The incarnation that comes back is healthy by construction: checkpoint
  // writes are finite-gated and replay quarantined anything invalid.
  healthy_.store(true, std::memory_order_relaxed);
}

void PcaEngineOperator::handle_control(const ControlTuple& cmd) {
  std::lock_guard lock(state_mutex_);
  ScopedHoldTimer hold(state_lock_hold_ns_);
  ++stats_.control_in;
  if (cmd.sender == id_) {
    // Publish our state, then forward the command to the receiver — the
    // "network hop" that carries the eigensystem between instances.
    if (pca_.initialized()) {
      // Publish gate: never share a non-finite state — a single poisoned
      // publish would propagate the damage to every merge partner before
      // the watchdog cadence catches it locally.
      if (!pca::all_finite(pca_.eigensystem())) {
        ++stats_.publishes_suppressed;
        return;
      }
      exchange_->publish(std::size_t(id_), pca_.eigensystem(), cmd.epoch);
      ++stats_.syncs_sent;
      if (cmd.receiver >= 0 &&
          std::size_t(cmd.receiver) < peer_control_.size() &&
          cmd.receiver != id_) {
        // A partitioned link eats the hop: the sender published, but the
        // receiver never hears about it until the partition heals.
        if (fault_.injector &&
            fault_.injector->link_blocked(id_, cmd.receiver, cmd.epoch)) {
          ++stats_.partition_drops;
          return;
        }
        // Best-effort, non-blocking forward: a full peer control queue must
        // never stall (or deadlock) data processing — a dropped sync round
        // only delays consistency, the next round retries.
        ControlTuple forward = cmd;
        if (!peer_control_[std::size_t(cmd.receiver)]->try_push(forward)) {
          metrics_.record_dropped();
        }
      }
    }
    return;
  }
  if (cmd.receiver == id_) {
    // Merge the sender's snapshot if both sides are ready and the
    // independence gate allows it (paper: observations since last sync must
    // exceed 1.5 N, "checked by each PCA engine").
    if (!pca_.initialized()) return;
    if (!policy_.allows(since_last_sync_)) {
      ++stats_.merges_skipped;
      return;
    }
    const auto remote = exchange_->fetch(std::size_t(cmd.sender));
    if (!remote.has_value()) return;
    // Merge gate: defense in depth against a peer that published before
    // its own watchdog (or publish gate) caught the poisoning.
    if (!pca::all_finite(*remote->system)) {
      ++stats_.merges_rejected;
      return;
    }
    if (fault_.injector &&
        fault_.injector->should_kill_on_merge(id_, stats_.merges_applied)) {
      throw stream::InjectedCrash{};  // lock_guard unwinds the state mutex
    }
    const std::uint64_t local_count = pca_.eigensystem().observations();
    const stats::RobustRunningSums local_sums = pca_.eigensystem().sums();
    // The live sync path uses the paper's eq. (16) equal-means fast path.
    // The exact eq. (15) mean-correction term would inject the transient
    // inter-engine mean gap as a spurious eigenvalue that the slow
    // forgetting then amplifies; dropping it keeps synchronization a
    // smoothing operation (the merged mean still averages toward truth).
    // Exact pooling with mean corrections remains the right choice when
    // combining *final* partition results (see merge.h).
    pca::MergeOptions merge_opts;
    merge_opts.assume_equal_means = true;
    pca::EigenSystem merged =
        pca::merge(pca_.eigensystem(), *remote->system, merge_opts);
    // The merge sums observation counts and the (u, v, q) weight sums —
    // correct when pooling final partitions, but a live engine keeps its
    // *local* count and sums: the remote history it just absorbed is
    // shared state the forgetting factor will phase out, not tuples this
    // engine consumed.  Pooled sums would also compound: each merge adds
    // the peer's sums, which already hold ours, so at alpha = 1 (nothing
    // decays them) they grow geometrically and overflow to inf.
    merged.set_observations(local_count);
    merged.mutable_sums() = local_sums;
    pca_.set_eigensystem(std::move(merged));
    since_last_sync_ = 0;
    ++stats_.merges_applied;
  }
}

void PcaEngineOperator::wipe_state_for_recovery() {
  std::lock_guard lock(state_mutex_);
  // The workspace is pure scratch (no eigensystem state lives in it),
  // standing in for the preallocated buffers a real deployment would
  // keep across process restarts: salvage it so the reincarnated
  // engine's recovery replay and steady state stay allocation-free.
  pca::UpdateWorkspace ws = pca_.take_workspace();
  pca_ = pca::RobustIncrementalPca(pca_config_);
  pca_.adopt_workspace(std::move(ws));
}

void PcaEngineOperator::run() {
  lifecycle_.store(int(EngineLifecycle::kRunning), std::memory_order_release);
  try {
    run_loop();
    lifecycle_.store(int(EngineLifecycle::kCompleted),
                     std::memory_order_release);
  } catch (const stream::InjectedCrash&) {
    // Simulated hard crash: this incarnation's in-memory eigensystem is
    // gone — only the checkpoint plus the replay log can bring it back
    // (recover()).  The operator object, its channels and the log survive,
    // standing in for the durable parts of a real deployment.  Leased
    // payloads in the staging buffer go back to the pool: the WAL holds
    // copies, so recovery does not need them.
    if (arena_) arena_->release_all(batch_);
    wipe_state_for_recovery();
    set_stop_reason(stream::StopReason::kNone);
    lifecycle_.store(int(EngineLifecycle::kCrashed),
                     std::memory_order_release);
  } catch (const pca::NumericalFault& fault) {
    // Watchdog quarantine: the eigensystem failed its self-check.  The
    // poisoned state is discarded exactly like a crash — it is *worse*
    // than no state — and the engine reports unhealthy until recover()
    // rebuilds it from the last good checkpoint.  Reusing the crash
    // lifecycle means the Supervisor needs no new machinery: a stalled
    // heartbeat plus kCrashed already triggers recover() + restart().
    healthy_.store(false, std::memory_order_relaxed);
    last_health_fault_.store(int(fault.fault), std::memory_order_relaxed);
    {
      std::lock_guard lock(state_mutex_);
      ++stats_.health_faults;
    }
    if (arena_) arena_->release_all(batch_);
    wipe_state_for_recovery();
    set_stop_reason(stream::StopReason::kNone);
    lifecycle_.store(int(EngineLifecycle::kCrashed),
                     std::memory_order_release);
  }
}

void PcaEngineOperator::run_loop() {
  using namespace std::chrono_literals;
  bool data_open = true;

  while (!stop_requested()) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    // Drain any pending control commands first: sync latency should not
    // depend on data arrival.  Control traffic is tallied in EngineStats
    // (control_in / syncs / merges); metrics_ counts the data plane only so
    // registry-level conservation (engine tuples_in vs. split tuples_out)
    // holds exactly.
    ControlTuple cmd;
    while (auto c = control_in_->try_pop()) {
      handle_control(*c);
    }

    if (!data_open) {
      // Data exhausted; stay alive briefly to serve late control traffic
      // (peers may still forward state to us), then exit when control
      // closes or stays quiet.
      if (control_in_->closed() && control_in_->size() == 0) break;
      if (!control_in_->pop_for(cmd, 5ms)) {
        if (control_in_->closed()) break;
        continue;
      }
      handle_control(cmd);
      continue;
    }

    // The batch is min(depth, batch_max), drained in one lock round-trip:
    // a deep input queue means latency is already queue-bound, so
    // amortizing the SVD (and the state lock) over more tuples is free; an
    // empty queue hands over each tuple as it arrives, keeping the
    // per-tuple update's tail latency (DESIGN.md "Micro-batching").
    batch_.clear();
    const std::uint64_t t_pop = stream::OperatorMetrics::now_ns();
    const std::size_t got = data_in_->pop_batch(batch_, batch_max_, 1ms);
    if (got == 0) {
      if (data_in_->closed() && data_in_->size() == 0) data_open = false;
      continue;
    }
    const std::uint64_t t_popped = stream::OperatorMetrics::now_ns();
    metrics_.record_pop_wait_ns(t_popped - t_pop);

    // Structural guard (O(1) per tuple), compacting in place: a
    // wrong-length or mask-mismatched tuple would make observe() throw out
    // of the run loop, so it is dropped here — its payload going back to
    // the arena — rather than kill the engine over a malformed input.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < got; ++i) {
      metrics_.record_in(batch_[i].wire_bytes());
      if (batch_[i].values.size() != pca_config_.dim ||
          (!batch_[i].mask.empty() &&
           batch_[i].mask.size() != batch_[i].values.size())) {
        metrics_.record_dropped();
        if (arena_) arena_->release(batch_[i]);
        continue;
      }
      if (kept != i) batch_[kept] = std::move(batch_[i]);
      ++kept;
    }
    batch_.resize(kept);
    if (batch_.empty()) continue;

    // WAL append happens OUTSIDE the state lock (the log is engine-thread-
    // only): snapshot readers and control traffic no longer wait behind
    // per-tuple log copies.  Ordering is unchanged — the whole batch is
    // durable in the log before any of it mutates the eigensystem.
    if (fault_.checkpoints) {
      for (const DataTuple& t : batch_) wal_append(t);
    }

    const std::size_t nb = batch_.size();
    batch_hist_.record(nb);
    batch_reports_.assign(nb, pca::ObservationReport{});
    {
      // The state lock now covers exactly the eigensystem mutation (plus
      // the checkpoint encode, which reads the fresh state).
      std::lock_guard lock(state_mutex_);
      ScopedHoldTimer hold(state_lock_hold_ns_);
      apply_batch_locked();
    }
    // Same clock as the source's timestamp_us (steady_clock, in us).
    const std::int64_t applied_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    for (const DataTuple& t : batch_) {
      const std::int64_t lag_us = applied_us - t.timestamp_us;
      ingest_to_apply_us_.record(lag_us > 0 ? std::uint64_t(lag_us) : 0);
    }
    // Amortized per-tuple update cost — the paper's O(d p²) incremental
    // step, divided by the batch the one SVD absorbed.  One sample per
    // tuple (not per batch) keeps the proc-time histogram's weighting
    // per-tuple, directly comparable across batch sizes.
    const std::uint64_t batch_ns =
        stream::OperatorMetrics::now_ns() - t_popped;
    for (std::size_t i = 0; i < nb; ++i) {
      metrics_.record_proc_ns(batch_ns / nb);
    }
    if (outliers_ != nullptr) {
      for (std::size_t i = 0; i < nb; ++i) {
        if (!batch_reports_[i].outlier) continue;
        const std::size_t bytes = batch_[i].wire_bytes();
        outliers_->record(batch_[i], bytes);
        metrics_.record_out(bytes);
      }
    }
    // Every payload goes back to the pool: a recorded outlier is a copy.
    if (arena_) arena_->release_all(batch_);
    // Hand the processor over periodically.  Batched draining made the
    // engine CPU-hungry in long stretches; on a box with fewer cores than
    // engines that lets each engine burn a full scheduler slice (~4-20 ms)
    // while the source and splitter sit runnable-but-starved, which shows
    // up as multi-millisecond stalls at the head of the stream.  Pre-batch
    // engines yielded implicitly via their per-tuple blocking pops; this
    // keeps that cooperative behavior (a no-op when cores outnumber
    // runnable threads).  The yield fires on a fixed *tuple* stride, not
    // per batch: yielding every batch would hand small-batch engines 8x
    // the scheduler courtesy of batch_max=8 ones, inverting the batching
    // win whenever upstream competes for the same cores.
    tuples_since_yield_ += nb;
    if (tuples_since_yield_ >= kYieldStride) {
      tuples_since_yield_ = 0;
      std::this_thread::yield();
    }
  }
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

}  // namespace astro::sync
