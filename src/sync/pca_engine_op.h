#pragma once

// The stateful Streaming PCA operator (paper §III-A.2, §III-B): wraps a
// RobustIncrementalPca behind a data port and a control port.
//
// Data port:    DataTuples; each updates the engine (O(d p²)).
// Control port: ControlTuples from the sync controller.
//   - as *sender*:   publish the current eigensystem to the StateExchange,
//                    then forward the command to the receiver's control port
//                    (the "network hop" carrying the state).
//   - as *receiver*: fetch the sender's snapshot, check the independence
//                    policy, and install merge(local, remote).
//
// Optional outlier recorder: tuples the robust weighting rejected, copied
// out for further processing (the paper's filtering use case).
//
// Fault tolerance (beyond the paper — see DESIGN.md "Fault tolerance"):
// when EngineFaultOptions carries a checkpoint store, every popped tuple is
// appended to a write-ahead replay log *before* it is applied, and the
// engine snapshots its eigensystem into the store every
// `checkpoint_every` applied tuples (which truncates the log, bounding it).
// An injected kill (FaultInjector) makes the run loop throw InjectedCrash:
// the thread exits and the in-memory PCA state is wiped, exactly as a
// process death would lose it.  recover() — called by the Supervisor with
// the thread dead — restores the latest checkpoint and replays the log, so
// a restarted incarnation resumes with zero lost tuples.
//
// Numerical-health watchdog (DESIGN.md "Data-plane robustness"): with
// `health_check_every` > 0 the engine self-checks its eigensystem every N
// applied tuples (pca::check_health — finite scan, eigenvalue sanity,
// basis orthonormality, energy bounds).  A failed check throws
// pca::NumericalFault, which quarantines the engine exactly like a crash:
// healthy() flips false (the SyncController's health gate then excludes
// the engine from merge pairs), the poisoned in-memory state is wiped, and
// the Supervisor reinitializes it from the last good checkpoint.  Two
// gates keep the poison from spreading or persisting meanwhile: checkpoint
// writes and sync publishes are suppressed while the state is non-finite,
// and a fetched remote snapshot is finite-checked before it is merged.
// Recovery replay quarantines tuples that are themselves invalid
// (non-finite or wrong length) so the reinitialized engine cannot be
// re-poisoned by the WAL.

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "pca/health.h"
#include "pca/merge.h"
#include "pca/robust_pca.h"
#include "stream/fault.h"
#include "stream/histogram.h"
#include "stream/operator.h"
#include "stream/recorder.h"
#include "stream/tuple_arena.h"
#include "sync/checkpoint_store.h"
#include "sync/exchange.h"
#include "sync/independence.h"

namespace astro::sync {

/// One engine's state at one instant: the snapshot feed's tuple
/// (sync/snapshot_publisher.h).
struct SnapshotTuple {
  std::int64_t timestamp_us = 0;
  int engine = -1;
  std::uint64_t observations = 0;
  linalg::Vector eigenvalues;  ///< current spectrum (reported rank)
  double sigma2 = 0.0;
  double retained_variance = 0.0;
  std::uint64_t outliers = 0;
};

/// What a snapshot publisher reads of one engine per round.
struct EngineSample {
  /// The feed summary of the current eigensystem (timestamp unset), when
  /// asked for and initialized.
  std::optional<SnapshotTuple> feed;
  /// The system the serving layer publishes: the eigensystem itself in
  /// truncated mode, the rank-(p+q) continuity view in exact mode (the
  /// rank-d exact emit is a state carrier, not a servable basis — see
  /// RobustIncrementalPca::serve_system()).  Empty unless asked for.
  pca::EigenSystem served;
};

struct EngineStats {
  std::uint64_t tuples = 0;            ///< data tuples applied to the state
  std::uint64_t outliers = 0;          ///< observations flagged as outliers
  std::uint64_t control_in = 0;        ///< control tuples handled
  std::uint64_t syncs_sent = 0;        ///< states published on command
  std::uint64_t merges_applied = 0;    ///< remote states merged in
  std::uint64_t merges_skipped = 0;    ///< blocked by the independence gate
  std::uint64_t partition_drops = 0;   ///< forwards a partitioned link ate
  std::uint64_t restarts = 0;          ///< supervised recoveries
  std::uint64_t replayed = 0;          ///< tuples re-applied during recovery
  std::uint64_t health_faults = 0;     ///< watchdog trips (NumericalFault)
  std::uint64_t replay_quarantined = 0;  ///< invalid WAL tuples skipped
  std::uint64_t publishes_suppressed = 0;  ///< syncs blocked: state non-finite
  std::uint64_t merges_rejected = 0;   ///< remote snapshots failing the gate
  std::uint64_t batches = 0;           ///< state-lock acquisitions that
                                       ///< applied >= 1 data tuple (== tuples
                                       ///< when batch_max is 1)
};

/// Where the engine is in its (possibly multi-incarnation) life — the
/// Supervisor's view.  kCrashed means the thread exited via InjectedCrash
/// and the in-memory state was wiped; only recover() + restart() continue.
enum class EngineLifecycle : int { kIdle = 0, kRunning, kCompleted, kCrashed };

/// Fault-injection and recovery wiring, all optional (defaults = the
/// fault-free engine of the seed).
struct EngineFaultOptions {
  std::shared_ptr<stream::FaultInjector> injector;   ///< kill/partition source
  std::shared_ptr<CheckpointStore> checkpoints;      ///< enables WAL + restore
  std::uint64_t checkpoint_every = 0;  ///< applied tuples between snapshots
  /// Watchdog cadence: self-check the eigensystem every N applied tuples
  /// (0 disables the watchdog entirely).
  std::uint64_t health_check_every = 0;
  pca::HealthThresholds health_thresholds;
};

class PcaEngineOperator final : public stream::Operator {
 public:
  PcaEngineOperator(std::string name, int engine_id,
                    const pca::RobustPcaConfig& pca_config,
                    stream::ChannelPtr<stream::DataTuple> data_in,
                    stream::ChannelPtr<stream::ControlTuple> control_in,
                    std::shared_ptr<StateExchange> exchange,
                    std::vector<stream::ChannelPtr<stream::ControlTuple>>
                        peer_control,
                    IndependencePolicy policy,
                    stream::Recorder<stream::DataTuple>* outliers = nullptr,
                    EngineFaultOptions fault_options = {},
                    std::size_t batch_max = 1);

  /// Thread-safe snapshot of the current eigensystem.
  [[nodiscard]] pca::EigenSystem snapshot() const;

  /// One state-lock trip for a snapshot publisher round: the feed summary
  /// of the current eigensystem when `feed`, and the serve view when
  /// `serve`.
  [[nodiscard]] EngineSample sample(bool feed, bool serve) const;

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] int engine_id() const noexcept { return id_; }

  /// Liveness counter: advances every run-loop iteration (each of which
  /// polls the control port), stops when the thread dies.  The Supervisor's
  /// heartbeat protocol watches this.
  [[nodiscard]] std::uint64_t heartbeat() const noexcept {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] EngineLifecycle lifecycle() const noexcept {
    return EngineLifecycle(lifecycle_.load(std::memory_order_acquire));
  }

  /// Batch-size distribution: one sample per state-lock acquisition that
  /// applied data (the value is how many tuples it absorbed).  Wait-free to
  /// read from any thread; feeds the metrics registry's engine extras.
  [[nodiscard]] const stream::LatencyHistogram& batch_size_histogram()
      const noexcept {
    return batch_hist_;
  }

  /// State-lock hold-time distribution: one sample per acquisition the
  /// engine thread makes (batch apply and control handling).  Together with
  /// the channels' blocked-time histograms this localizes contention — a
  /// fat lock-hold tail with thin queue waits means the eigensystem work
  /// itself is the bottleneck, not the plumbing.  Wait-free to read.
  [[nodiscard]] const stream::LatencyHistogram& state_lock_hold_histogram()
      const noexcept {
    return state_lock_hold_ns_;
  }

  /// Ingest -> apply latency in microseconds: one sample per tuple the
  /// run loop applies (recovery replay excluded), `now - timestamp_us`
  /// read on std::chrono::steady_clock, the clock the sources stamp with.
  /// Wait-free to read.
  [[nodiscard]] const stream::LatencyHistogram& ingest_to_apply_histogram()
      const noexcept {
    return ingest_to_apply_us_;
  }

  /// Wires the payload arena (may be null = heap payloads).  The engine
  /// releases batch payloads back after applying them — including on the
  /// structural-drop and crash-unwinding paths — so leased slabs recycle
  /// instead of leaking.  Call before start().
  void set_arena(stream::TupleArena* arena) noexcept { arena_ = arena; }

  /// False from the moment the watchdog trips until recover() completes.
  /// The SyncController's health gate reads this to exclude a quarantined
  /// engine from merge pairs.
  [[nodiscard]] bool healthy() const noexcept {
    return healthy_.load(std::memory_order_relaxed);
  }
  /// The most recent watchdog fault (kHealthy if it never tripped).
  [[nodiscard]] pca::HealthFault last_health_fault() const noexcept {
    return pca::HealthFault(last_health_fault_.load(std::memory_order_relaxed));
  }

  /// Rebuilds the engine state after a crash: restore the latest checkpoint
  /// (if any) and re-apply the replay log.  Must be called with the
  /// operator thread dead (lifecycle kCrashed), before restart().
  void recover();

  /// Supervised relaunch.  Flips the lifecycle out of kCrashed *before*
  /// the thread spawns: a loaded scheduler can delay the new incarnation
  /// past several supervisor polls, and the stale kCrashed reading (plus
  /// the necessarily stalled heartbeat) would misfire a second recovery.
  void restart() {
    lifecycle_.store(int(EngineLifecycle::kRunning), std::memory_order_release);
    stream::Operator::restart();
  }

 protected:
  void run() override;

 private:
  void run_loop();
  void handle_control(const stream::ControlTuple& cmd);
  void apply_batch_locked();
  void maybe_checkpoint_locked();
  void wipe_state_for_recovery();
  void wal_append(const stream::DataTuple& t);

  int id_;
  pca::RobustPcaConfig pca_config_;
  pca::RobustIncrementalPca pca_;
  stream::ChannelPtr<stream::DataTuple> data_in_;
  stream::ChannelPtr<stream::ControlTuple> control_in_;
  std::shared_ptr<StateExchange> exchange_;
  std::vector<stream::ChannelPtr<stream::ControlTuple>> peer_control_;
  IndependencePolicy policy_;
  stream::Recorder<stream::DataTuple>* outliers_;  // non-owning, may be null
  EngineFaultOptions fault_;

  /// Micro-batching (DESIGN.md "Micro-batching"): cap on tuples absorbed
  /// per state-lock acquisition.  1 reproduces the per-tuple engine
  /// exactly; > 1 amortizes one thin SVD (and one lock round-trip) over
  /// whatever is queued, up to batch_max tuples.
  std::size_t batch_max_;
  /// Payload arena (non-owning, may be null).  Every drained batch payload
  /// is released back after apply; a recorded outlier is a copy.
  stream::TupleArena* arena_ = nullptr;
  std::vector<stream::DataTuple> batch_;              // drained, pre-guard
  std::vector<const linalg::Vector*> batch_xs_;       // contiguous run view
  std::vector<pca::ObservationReport> batch_reports_; // one per batch tuple
  stream::LatencyHistogram batch_hist_;
  stream::LatencyHistogram state_lock_hold_ns_;  // per-acquisition hold time
  stream::LatencyHistogram ingest_to_apply_us_;

  mutable std::mutex state_mutex_;  // guards pca_ for snapshot()
  std::uint64_t since_last_sync_ = 0;
  EngineStats stats_;
  /// Write-ahead log of tuples popped since the last checkpoint (empty
  /// unless checkpoints are enabled).  A slot-reusing vector: the live log
  /// is the first `replay_log_size_` entries, truncation just rewinds the
  /// count, and wal_append copy-assigns into retired slots — their payload
  /// capacity survives, so steady-state logging allocates nothing.
  /// Engine-thread-only (appends happen *outside* the state lock, on the
  /// drain path; maybe_checkpoint_locked truncates from the same thread;
  /// recover() runs with the thread dead), so no lock guards it.
  std::vector<stream::DataTuple> replay_log_;
  std::size_t replay_log_size_ = 0;
  /// Cooperative-scheduling stride (see the drain loop): the engine yields
  /// the processor after roughly this many applied tuples, independent of
  /// the micro-batch size the drain returned.
  static constexpr std::size_t kYieldStride = 8;
  std::size_t tuples_since_yield_ = 0;  // engine-thread-only
  pca::HealthWorkspace health_ws_;  // guarded by state_mutex_
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<int> lifecycle_{int(EngineLifecycle::kIdle)};
  std::atomic<bool> healthy_{true};
  std::atomic<int> last_health_fault_{int(pca::HealthFault::kHealthy)};
};

}  // namespace astro::sync
