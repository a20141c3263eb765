#pragma once

// StreamingPcaPipeline — the paper's Figure 2 analysis graph, assembled:
//
//   source ═ split ─┬─> PCA engine 0 ─┐
//           (+gate) ├─> PCA engine 1 ─┼─ StateExchange (sync merges)
//                   └─> PCA engine n ─┘
//   sync controller ─> engines (control ports; paced at sync_rate_hz)
//
// The split and its ingest gate run fused on the source's thread (the
// downlink's behind a transport).  The side logs — dead letters, the
// observations the robust weighting rejected, the in-flight snapshot feed
// — are bounded recorders their producers call on their own threads, not
// operators.  One call builds the graph; run() blocks until the source is
// exhausted, every engine drained its partition, and the final merged
// eigensystem is available from result().

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pca/health.h"
#include "pca/robust_pca.h"
#include "serve/snapshot_server.h"
#include "spectra/validate.h"
#include "stream/dead_letter.h"
#include "stream/fault.h"
#include "stream/graph.h"
#include "stream/net.h"
#include "stream/recorder.h"
#include "stream/registry.h"
#include "stream/shm_net.h"
#include "stream/sampler.h"
#include "stream/source.h"
#include "stream/split.h"
#include "stream/tuple_arena.h"
#include "sync/checkpoint_store.h"
#include "sync/controller.h"
#include "sync/pca_engine_op.h"
#include "sync/snapshot_publisher.h"
#include "sync/supervisor.h"

namespace astro::app {

struct PipelineConfig {
  /// Per-engine algorithm configuration.  `pca.mode` is the pipeline's
  /// mode knob: kTruncated (default) runs the paper's rank-p low-rank
  /// updates, kExact the full-second-moment reference recursion (DESIGN.md
  /// "Exact reference mode") — batching, checkpoints, sync merges, and
  /// serving all ride the same engines either way.
  pca::RobustPcaConfig pca;
  std::size_t engines = 4;     ///< parallel PCA instances
  stream::SplitStrategy split = stream::SplitStrategy::kRandom;
  std::string sync_strategy = "ring";
  /// Sync commands per second, paced by the controller (the paper's
  /// Throttle: one round per 0.5 s).  <= 0 disables synchronization
  /// entirely.
  double sync_rate_hz = 2.0;
  double independence_factor = 1.5;           ///< the paper's 1.5·N gate
  std::uint64_t independence_fallback = 10000; ///< used when alpha == 1
  /// Depth of each data channel (the engines' input ports, and the
  /// source -> uplink queue behind a transport).  Sized for latency: a
  /// tuple waits about engines x depth / rate in the engine ports, and a
  /// full port does not stall the stream while another has room (the split
  /// reroutes to the least loaded engine), so 32 slots keep the engines'
  /// applied rate while a 1024-slot port added ~80 ms of ingest->apply
  /// wait at the Fig. 6 point (EXPERIMENTS.md "Engine queue depth").
  std::size_t channel_capacity = 32;
  /// Upper bound on the engines' micro-batch size (DESIGN.md
  /// "Micro-batching"): each drain takes min(queue depth, batch_max) tuples
  /// in one state-lock acquisition and absorbs them with one thin SVD, so
  /// an idle queue still updates per tuple.  1 (the default) reproduces the
  /// per-tuple engine exactly; > 1 trades bounded robust-weight staleness
  /// (at most batch_max - 1 updates) for SVD and lock amortization.
  /// Malformed inputs still count per tuple — see `validate_ingest` for
  /// keeping them out of the batch entirely.
  std::size_t batch_max = 1;
  /// Payload-arena capacity in slabs (ISSUE 8, DESIGN.md "Tuple lifecycle
  /// & SIMD dispatch").  The pipeline owns a stream::TupleArena of fixed-d
  /// payload slabs; the source leases one per tuple, operators pass it by
  /// move, and the engines release it after apply — so at steady state the
  /// data plane allocates nothing per tuple.  0 (the default) prefills
  /// arena_shares(config).total() for every carrier; any other value is
  /// used verbatim.
  /// Undersizing degrades gracefully: an exhausted pool falls back to
  /// counted heap growth, never blocking.
  std::size_t arena_capacity = 0;
  double source_rate = 0.0;  ///< tuples/s cap at the source; 0 = unthrottled
  /// Records the observations the robust weighting rejected; outliers()
  /// returns the newest `dead_letter_retained` of them.
  bool collect_outliers = false;
  /// > 0 runs a SnapshotPublisher sampling every engine at this interval —
  /// the in-flight results feed; snapshots() returns the newest
  /// kSnapshotsRetained entries.
  double snapshot_interval_seconds = 0.0;
  /// > 0 runs a background MetricsSampler snapshotting the pipeline's
  /// metrics registry at this interval (the §III-D profiler loop); read the
  /// history with metrics_history().
  double metrics_sample_interval_seconds = 0.0;
  /// Fault schedule to run the pipeline against (tests / chaos drills).
  /// Channel drop/delay hooks attach only to the channels the schedule
  /// names; kill and partition events reach the engines directly.
  std::shared_ptr<stream::FaultInjector> fault_injector;
  /// > 0 checkpoints each engine every N applied tuples (enables the
  /// write-ahead replay log).  0 with supervise=true defaults to 256 — a
  /// supervisor without checkpoints could only restart engines from scratch.
  std::uint64_t checkpoint_every_tuples = 0;
  /// Runs a Supervisor watching engine heartbeats: a crashed engine is
  /// restored from its last checkpoint (+ log replay) and restarted, and
  /// the sync controller degrades to the surviving engines meanwhile.
  bool supervise = false;
  sync::SupervisorConfig supervisor;
  /// Runs an IngestGate inside the fused split: every tuple is checked
  /// (and possibly repaired) against `validation` on the producing thread
  /// before it is routed to an engine; rejects are recorded as dead letters
  /// with a typed reason.  No extra thread or queue.
  /// Conservation: accepted + quarantined == ingested.
  bool validate_ingest = false;
  /// Validation policy; expected_dim defaults to pca.dim when left 0.
  spectra::ValidationPolicy validation;
  /// Newest entries each reject log keeps (dead letters, and outliers with
  /// collect_outliers); counts are never bounded.
  std::size_t dead_letter_retained = 64;
  /// > 0 arms each engine's numerical-health watchdog: self-check every N
  /// applied tuples, quarantine + checkpoint-reinit on failure (see
  /// pca/health.h).  Requires supervise (recovery is the Supervisor's job).
  std::uint64_t health_check_every_tuples = 0;
  pca::HealthThresholds health_thresholds;
  /// Serving layer (DESIGN.md "Serving layer").  When enabled the pipeline
  /// owns a serve::SnapshotServer and the SnapshotPublisher's sampling loop
  /// doubles as its writer: every publish interval the healthy engines'
  /// eigensystems are merged and swapped in as the next immutable version,
  /// which concurrent readers query lock-free via serve_server().
  struct ServeOptions {
    bool enabled = false;
    /// Writer cadence.  Used when snapshot_interval_seconds == 0; otherwise
    /// the snapshot feed's interval drives both (one sampling loop).
    double publish_interval_seconds = 0.05;
    /// Admission budget: queries in flight beyond this are rejected with
    /// QueryStatus::kOverloaded (never queued, never blocked).
    std::size_t max_in_flight = 64;
    /// residual_score() flags score > threshold as anomalous (0 disables).
    double anomaly_threshold = 0.0;
  };
  ServeOptions serve;
  /// Multi-process data plane (DESIGN.md "Transport").  When enabled, the
  /// stage boundary between the source and the split stage is
  /// placed behind the resilient session transport — either leg carries
  /// the same CRC-framed session protocol, and the server runs the fused
  /// split on its receive thread:
  ///
  ///   kind = kTcp:  source -> TcpTupleSink ==TCP==> TcpTupleServer = split
  ///   kind = kShm:  source -> ShmTupleSink ==ring==> ShmTupleServer = split
  ///
  /// In one process the TCP leg is a loopback socket pair and the shm leg
  /// a process-private ring segment, both exercising the real wire path
  /// (CRC framing, resume/replay, peer-death detection); the two-process
  /// drills run the same operators with the server side in a child.  The
  /// local (non-transport) data plane is untouched — and stays zero-alloc.
  /// Both legs keep the payload arena engaged: the sink encodes straight
  /// into its ring (the TCP frame ring or the shm slots) and releases the
  /// slab, the server decodes into arena-leased tuples, so the steady path
  /// allocates nothing.
  struct TransportOptions {
    enum class Kind { kTcp, kShm };
    bool enabled = false;
    /// Which leg carries the data plane.
    Kind kind = Kind::kTcp;
    /// Server bind port; 0 picks an ephemeral port automatically (kTcp).
    std::uint16_t port = 0;
    /// Sink-side knobs: retransmit window, retry/backoff budget, deadlines,
    /// degraded-mode cadence, fault injector (kTcp).
    stream::TcpTransportOptions tcp;
    /// Receiver's cap on frames per cumulative ack inside one long read
    /// burst; every burst ends with an ack (kTcp).
    std::size_t ack_every = 32;
    /// Shared-memory segment name (kShm); "" derives a process-unique one.
    std::string shm_segment;
    /// Ring geometry, timeouts, fault injector (kShm).  max_frame_bytes is
    /// raised automatically to fit pca.dim-sized tuples.
    stream::ShmTransportOptions shm;
  };
  TransportOptions transport;
};

/// The payload slabs a pipeline built from `config` can hold in flight.
struct ArenaShares {
  /// Every data channel full: the engine ports, and with a transport the
  /// source -> uplink queue (the fused split's in-edge buffers nothing).
  std::size_t channels = 0;
  /// Each engine's staging batch plus slack for tuples held by operator
  /// threads; recorders keep copies, never slabs.
  std::size_t staging = 0;
  [[nodiscard]] std::size_t total() const noexcept { return channels + staging; }
};

[[nodiscard]] ArenaShares arena_shares(const PipelineConfig& config);

class StreamingPcaPipeline {
 public:
  /// Snapshot-feed entries snapshots() keeps (the newest).
  static constexpr std::size_t kSnapshotsRetained = 4096;

  /// Stream from a generator (nullopt ends the stream).
  StreamingPcaPipeline(const PipelineConfig& config,
                       stream::GeneratorSource::Generator generator);

  /// Stream from a gap-aware generator (items carry pixel masks, §II-D).
  StreamingPcaPipeline(const PipelineConfig& config,
                       stream::GeneratorSource::MaskedGenerator generator);

  /// Replay a finite dataset (optionally with per-observation pixel masks).
  StreamingPcaPipeline(const PipelineConfig& config,
                       std::vector<linalg::Vector> data,
                       std::vector<pca::PixelMask> masks = {});

  /// Launches every operator.
  void start();

  /// Blocks until the source finishes and all engines drain, then shuts the
  /// synchronization subsystem down cleanly.
  void wait();

  /// start() + wait().
  void run();

  /// Requests an early cooperative stop (e.g. for endless generators).
  void stop();

  /// Final global estimate: the merge of every engine's eigensystem —
  /// "the resulting eigensystem can be obtained from any node", and the
  /// merged one pools all partitions.
  [[nodiscard]] pca::EigenSystem result() const;

  /// Live snapshot of one engine (thread-safe; usable mid-run for in-flight
  /// results).
  [[nodiscard]] pca::EigenSystem engine_snapshot(std::size_t i) const;

  [[nodiscard]] std::vector<sync::EngineStats> engine_stats() const;
  [[nodiscard]] std::vector<std::uint64_t> split_counts() const;
  /// The newest recorded outliers, oldest first (empty unless
  /// collect_outliers).  Safe to call mid-run.
  [[nodiscard]] std::vector<stream::DataTuple> outliers() const;

  /// The newest in-flight snapshots, oldest first (empty unless
  /// snapshot_interval_seconds > 0).  Safe to call mid-run.
  [[nodiscard]] std::vector<sync::SnapshotTuple> snapshots() const;
  [[nodiscard]] std::size_t engines() const noexcept { return engines_.size(); }

  /// Source-side tuples per second over the run (the Figure 6 metric: the
  /// rate measured "at the operator splitting the stream").
  [[nodiscard]] double throughput() const;

  /// The pipeline's metrics registry: every operator and channel is
  /// registered by name at build time.  Snapshot/export at any point.
  [[nodiscard]] const stream::MetricsRegistry& metrics_registry() const {
    return registry_;
  }
  /// Per-operator/per-channel breakdown as JSON (registry.to_json()).
  [[nodiscard]] std::string metrics_json() const { return registry_.to_json(); }
  /// Periodic registry snapshots (empty unless
  /// metrics_sample_interval_seconds > 0).  Safe to call mid-run.
  [[nodiscard]] std::vector<stream::RegistrySnapshot> metrics_history() const;

  /// The supervisor (nullptr unless config.supervise).
  [[nodiscard]] const sync::Supervisor* supervisor() const noexcept {
    return supervisor_.get();
  }
  /// The checkpoint store (nullptr unless checkpointing is enabled).
  [[nodiscard]] std::shared_ptr<sync::CheckpointStore> checkpoint_store()
      const noexcept {
    return checkpoint_store_;
  }

  /// The ingest validator (nullptr unless config.validate_ingest).
  [[nodiscard]] const stream::IngestGate* validator() const noexcept {
    return gate_.get();
  }
  /// The dead-letter recorder (nullptr unless config.validate_ingest):
  /// counts by reason, and retained() is the newest window.
  [[nodiscard]] const stream::Recorder<stream::DeadLetter>* dead_letters()
      const noexcept {
    return dead_letters_.get();
  }
  /// The serving layer (nullptr unless config.serve.enabled).  Thread-safe:
  /// query it from any number of threads while the pipeline runs.
  [[nodiscard]] serve::SnapshotServer* serve_server() const noexcept {
    return serve_server_.get();
  }
  /// TCP transport endpoints (nullptr unless config.transport.enabled
  /// with kind == kTcp).  Their counters expose the session protocol's
  /// full state: reconnects, retransmits, CRC rejects, acks, backoff,
  /// degraded flag.
  [[nodiscard]] const stream::TcpTupleSink* transport_uplink() const noexcept {
    return dynamic_cast<const stream::TcpTupleSink*>(uplink_);
  }
  [[nodiscard]] const stream::TcpTupleServer* transport_downlink()
      const noexcept {
    return dynamic_cast<const stream::TcpTupleServer*>(downlink_);
  }
  /// Shm transport endpoints (nullptr unless transport.enabled with
  /// kind == kShm).  Counters expose ring depth, blocked waits, wraps,
  /// quarantines, resume/bye accounting.
  [[nodiscard]] const stream::ShmTupleSink* transport_shm_uplink()
      const noexcept {
    return dynamic_cast<const stream::ShmTupleSink*>(uplink_);
  }
  [[nodiscard]] const stream::ShmTupleServer* transport_shm_downlink()
      const noexcept {
    return dynamic_cast<const stream::ShmTupleServer*>(downlink_);
  }
  /// The sync controller (nullptr when synchronization is disabled).
  [[nodiscard]] const sync::SyncController* sync_controller() const noexcept {
    return controller_;
  }
  /// Live health flags, one per engine (all true without the watchdog).
  [[nodiscard]] std::vector<bool> engine_health() const;

 private:
  void build(const PipelineConfig& config);
  /// Records the transport endpoints, wires both into the payload arena
  /// and registers their counters.
  template <typename Sink, typename Server>
  void add_transport(Sink* sink, Server* server);
  /// The fault schedule's hook for the edge `name` (empty when the
  /// schedule does not name it).
  stream::FaultEdge::Hook fault_hook(const std::string& name) const {
    if (!config_.fault_injector ||
        !config_.fault_injector->watches_channel(name)) {
      return {};
    }
    return [inj = config_.fault_injector, name](std::uint64_t attempt) {
      return inj->on_push(name, attempt);
    };
  }
  template <typename T>
  stream::ChannelPtr<T> make_named_channel(const std::string& name,
                                           std::size_t capacity) {
    auto ch = stream::make_channel<T>(capacity);
    ch->set_fault_hook(fault_hook(name));
    registry_.add_queue(name, *ch, this);
    channels_.push_back(ch);  // keep gauges alive as long as the registry
    return ch;
  }

  PipelineConfig config_;
  stream::MetricsRegistry registry_;
  std::vector<std::shared_ptr<void>> channels_;
  // Declared before graph_: operators hold non-owning arena pointers, so
  // the pool must be destroyed after the graph joins and destroys them.
  // Slabs still leased by in-flight tuples are owned by those tuples (the
  // payload is a plain vector); destroying the arena frees only the pool.
  std::unique_ptr<stream::TupleArena> arena_;
  // Declared before graph_: the SnapshotPublisher operator (owned by the
  // graph) holds a raw pointer to the server, so the server must be
  // destroyed after the graph joins and destroys the publisher.
  std::unique_ptr<serve::SnapshotServer> serve_server_;
  // Declared before graph_ and gate_ for the same reason: producers record
  // into them through non-owning pointers.
  std::unique_ptr<stream::Recorder<stream::DeadLetter>> dead_letters_;
  std::unique_ptr<stream::Recorder<stream::DataTuple>> outliers_;
  std::unique_ptr<stream::Recorder<sync::SnapshotTuple>> snapshots_;
  // Declared before graph_ for the same reason: the split runs the ingest
  // gate on its producer's thread through a non-owning pointer.
  std::unique_ptr<stream::IngestGate> gate_;
  // The fused split; its producer (source or downlink) shares ownership.
  std::shared_ptr<stream::SplitRouter> split_;
  stream::FlowGraph graph_;
  stream::Source* source_ = nullptr;
  // Transport endpoints of either carrier and the source's queue to the
  // uplink (all null without transport).
  stream::SessionSink* uplink_ = nullptr;
  stream::SessionServer* downlink_ = nullptr;
  stream::ChannelPtr<stream::DataTuple> uplink_in_;
  sync::SyncController* controller_ = nullptr;
  std::vector<sync::PcaEngineOperator*> engines_;
  std::vector<stream::ChannelPtr<stream::DataTuple>> engine_data_;
  sync::SnapshotPublisher* snapshot_publisher_ = nullptr;
  std::shared_ptr<sync::StateExchange> exchange_;
  std::shared_ptr<sync::CheckpointStore> checkpoint_store_;
  // Not in the FlowGraph: the supervisor's thread dereferences engine
  // pointers, so it must be stopped and joined *before* the graph destroys
  // the operators — declared after graph_, its destructor runs first.
  std::unique_ptr<sync::Supervisor> supervisor_;
  // Deferred-construction inputs.
  stream::GeneratorSource::MaskedGenerator generator_;
  std::vector<linalg::Vector> replay_data_;
  std::vector<pca::PixelMask> replay_masks_;
  // Declared last: destroyed (and therefore stopped/joined) before the
  // registry and operators it samples.
  std::unique_ptr<stream::MetricsSampler> metrics_sampler_;
};

}  // namespace astro::app
