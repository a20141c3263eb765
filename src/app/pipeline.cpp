#include "app/pipeline.h"

#include <unistd.h>

#include <atomic>
#include <stdexcept>

#include "io/frame.h"
#include "pca/merge.h"

namespace astro::app {

using stream::ControlTuple;
using stream::DataTuple;

namespace {

/// Process-unique shm segment name for pipelines that did not pick one:
/// the pid keeps concurrent processes apart, the counter keeps concurrent
/// pipelines in one process apart.
std::string auto_shm_segment() {
  static std::atomic<std::uint64_t> counter{0};
  return "astro-ring-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

using Rows = std::vector<std::pair<std::string, double>>;

// Registry extras of a transport endpoint: the counters every carrier
// shares ...
Rows session_rows(const stream::SessionSinkCounters& c) {
  return {{"accepted", double(c.accepted)},
          {"acked", double(c.acked)},
          {"lossy_dropped", double(c.lossy_dropped)},
          {"degraded", c.degraded ? 1.0 : 0.0}};
}

Rows session_rows(const stream::SessionServerCounters& c) {
  return {{"delivered", double(c.delivered)},
          {"duplicates", double(c.duplicates)},
          {"crc_rejects", double(c.crc_rejects)},
          {"payload_rejects", double(c.payload_rejects)},
          {"protocol_errors", double(c.protocol_errors)},
          {"sessions", double(c.sessions)},
          {"resumes", double(c.resumes)},
          {"byes", double(c.byes)},
          {"dead_letters", double(c.dead_letters)}};
}

// ... then the carrier's own.
Rows counter_rows(const stream::TcpSinkCounters& c) {
  Rows rows = session_rows(c);
  rows.insert(rows.end(), {{"frames_sent", double(c.frames_sent)},
                           {"retransmits", double(c.retransmits)},
                           {"sessions", double(c.sessions)},
                           {"reconnects", double(c.reconnects)},
                           {"connect_failures", double(c.connect_failures)},
                           {"acks_received", double(c.acks_received)},
                           {"outages", double(c.outages)},
                           {"backoff_ms_last", double(c.backoff_ms_last)},
                           {"window_depth", double(c.window_depth)}});
  return rows;
}

Rows counter_rows(const stream::TcpServerCounters& c) {
  Rows rows = session_rows(c);
  rows.insert(rows.end(), {{"out_of_order", double(c.out_of_order)},
                           {"acks_sent", double(c.acks_sent)}});
  return rows;
}

Rows counter_rows(const stream::ShmSinkCounters& c) {
  Rows rows = session_rows(c);
  rows.insert(rows.end(),
              {{"frames_committed", double(c.frames_committed)},
               {"oversize_dropped", double(c.oversize_dropped)},
               {"ring_depth", double(c.ring_depth)},
               {"blocked_waits", double(c.blocked_waits)},
               {"wraps", double(c.wraps)},
               {"consumer_generations", double(c.consumer_generations)}});
  return rows;
}

Rows counter_rows(const stream::ShmServerCounters& c) {
  Rows rows = session_rows(c);
  rows.insert(rows.end(), {{"quarantined", double(c.quarantined)},
                           {"producer_deaths", double(c.producer_deaths)}});
  return rows;
}

}  // namespace

template <typename Sink, typename Server>
void StreamingPcaPipeline::add_transport(Sink* sink, Server* server) {
  uplink_ = sink;
  downlink_ = server;
  sink->set_arena(arena_.get());
  server->set_arena(arena_.get());
  registry_.add_operator(
      "uplink", &sink->metrics(),
      [sink] { return counter_rows(sink->counters()); }, this);
  registry_.add_operator(
      "downlink", &server->metrics(),
      [server] { return counter_rows(server->counters()); }, this);
}

StreamingPcaPipeline::StreamingPcaPipeline(
    const PipelineConfig& config, stream::GeneratorSource::Generator generator)
    : StreamingPcaPipeline(
          config, stream::GeneratorSource::wrap(std::move(generator))) {}

StreamingPcaPipeline::StreamingPcaPipeline(
    const PipelineConfig& config,
    stream::GeneratorSource::MaskedGenerator generator)
    : config_(config), generator_(std::move(generator)) {
  build(config);
}

StreamingPcaPipeline::StreamingPcaPipeline(const PipelineConfig& config,
                                           std::vector<linalg::Vector> data,
                                           std::vector<pca::PixelMask> masks)
    : config_(config),
      replay_data_(std::move(data)),
      replay_masks_(std::move(masks)) {
  build(config);
}

ArenaShares arena_shares(const PipelineConfig& config) {
  const std::size_t n = config.engines;
  ArenaShares shares;
  shares.channels =
      ((config.transport.enabled ? 1 : 0) + n) * config.channel_capacity;
  shares.staging = n * (std::max<std::size_t>(config.batch_max, 1) + 4) + 64;
  return shares;
}

void StreamingPcaPipeline::build(const PipelineConfig& config) {
  if (config.engines == 0) {
    throw std::invalid_argument("StreamingPcaPipeline: engines must be >= 1");
  }
  const std::size_t n = config.engines;
  exchange_ = std::make_shared<sync::StateExchange>(n);

  // Payload arena: sized so the whole pipeline can be full of in-flight
  // tuples (arena_shares) without the pool ever growing.  Overriding via
  // arena_capacity trades memory for growth-count noise, never
  // correctness.  Every carrier keeps the arena engaged: a
  // transport's sink releases each payload once its frame is encoded (into
  // a ring slot or the TCP frame ring), and its server decodes into
  // arena-leased tuples, so the recycle loop closes across the boundary.
  if (config.pca.dim > 0) {
    const std::size_t slabs = config.arena_capacity != 0
                                  ? config.arena_capacity
                                  : arena_shares(config).total();
    arena_ = std::make_unique<stream::TupleArena>(config.pca.dim, slabs);
  }

  // Data plane.  Channels register their gauges with the registry under
  // "chan.<from>-><to>" names.  With ingest validation enabled the split
  // runs the gatekeeper ("validate"), and rejects are recorded as dead
  // letters instead of reaching the engines.
  if (config.validate_ingest) {
    dead_letters_ = std::make_unique<stream::Recorder<stream::DeadLetter>>(
        config.dead_letter_retained);
    registry_.add_operator(
        "dead-letter", &dead_letters_->metrics(),
        [r = dead_letters_.get()] {
          return std::vector<std::pair<std::string, double>>{
              {"dead_letters", double(r->count())}};
        },
        this);
    spectra::ValidationPolicy policy = config.validation;
    if (policy.expected_dim == 0) policy.expected_dim = config.pca.dim;
    gate_ = std::make_unique<stream::IngestGate>(dead_letters_.get(), policy,
                                                 arena_.get());
    registry_.add_operator(
        "validate", &gate_->metrics(),
        [v = gate_.get()] {
          std::vector<std::pair<std::string, double>> extras{
              {"accepted", double(v->accepted())},
              {"quarantined", double(v->quarantined())},
              {"repaired", double(v->repaired())},
              {"repaired_pixels", double(v->repaired_pixels())}};
          for (int r = 1; r < int(spectra::RejectReason::kCount); ++r) {
            const auto reason = spectra::RejectReason(r);
            extras.emplace_back("reason." + spectra::to_string(reason),
                                double(v->quarantined_for(reason)));
          }
          return extras;
        },
        this);
  }

  for (std::size_t i = 0; i < n; ++i) {
    engine_data_.push_back(make_named_channel<DataTuple>(
        "chan.split->pca-" + std::to_string(i), config.channel_capacity));
  }
  // The fused split's in-edge keeps the registry row and fault hook of the
  // queue it replaced.
  split_ = std::make_shared<stream::SplitRouter>(engine_data_, config.split);
  split_->set_gate(gate_.get());
  const std::string split_edge =
      std::string(config.transport.enabled ? "chan.downlink->"
                                           : "chan.source->") +
      (config.validate_ingest ? "validate" : "split");
  split_->set_fault_hook(fault_hook(split_edge));
  registry_.add_queue_gauges(split_edge, &split_->edge_gauges(), this);
  registry_.add_operator("split", &split_->metrics(), {}, this);

  // Without a transport the source drives the split itself; with one it
  // feeds the uplink, and the downlink drives the split.
  stream::DataEdge source_out = split_;
  if (config.transport.enabled) {
    uplink_in_ = make_named_channel<DataTuple>("chan.source->uplink",
                                               config.channel_capacity);
    source_out = uplink_in_;
  }
  if (generator_) {
    source_ = graph_.add<stream::GeneratorSource>(
        "source", std::move(generator_), source_out, config.source_rate);
  } else {
    source_ = graph_.add<stream::ReplaySource>(
        "source", std::move(replay_data_), std::move(replay_masks_),
        source_out, config.source_rate);
  }
  source_->set_arena(arena_.get());
  // The source also reports the arena's occupancy gauges: a steady `grown`
  // rate here means the pool is undersized (or slabs leak out of the
  // recycle loop).
  registry_.add_operator(
      "source", &source_->metrics(),
      arena_ ? stream::MetricsRegistry::Extras([a = arena_.get()] {
        const stream::ArenaGauges& g = a->gauges();
        return std::vector<std::pair<std::string, double>>{
            {"arena_free_slabs", double(g.free_slabs.load())},
            {"arena_preallocated", double(g.preallocated)},
            {"arena_leased", double(g.leased.load())},
            {"arena_grown", double(g.grown.load())},
            {"arena_renewed", double(g.renewed.load())},
            {"arena_released", double(g.released.load())}};
      })
             : stream::MetricsRegistry::Extras{},
      this);

  // Optional transport stage (DESIGN.md "Transport"): the source's output
  // crosses a real socket before it reaches the split.  The server is
  // constructed first (it binds in its constructor, so the sink's connect
  // retries always have a listener to find) and serves sessions until the
  // sink's kBye ends the stream.
  if (config.transport.enabled &&
      config.transport.kind == PipelineConfig::TransportOptions::Kind::kShm) {
    // Same-host shared-memory leg: the sink creates the ring segment in
    // its constructor, the server's run loop polls until it appears.  The
    // slot geometry is raised to fit a dim-sized tuple frame so the
    // default options never silently truncate.
    stream::ShmTransportOptions shm_opts = config.transport.shm;
    if (config.pca.dim > 0) {
      const std::size_t d = config.pca.dim;
      const std::size_t frame_need = io::kFrameHeaderBytes +
                                     io::kTuplePayloadFixed + d * 8 +
                                     (d + 7) / 8;
      if (shm_opts.max_frame_bytes < frame_need) {
        shm_opts.max_frame_bytes = frame_need;
      }
    }
    std::string segment = config.transport.shm_segment;
    if (segment.empty()) segment = auto_shm_segment();
    auto* server = graph_.add<stream::ShmTupleServer>("downlink", segment,
                                                      split_, shm_opts);
    auto* sink = graph_.add<stream::ShmTupleSink>("uplink", segment,
                                                  uplink_in_, shm_opts);
    add_transport(sink, server);
  } else if (config.transport.enabled) {
    stream::TcpServerOptions server_opts;
    server_opts.ack_every = config.transport.ack_every;
    server_opts.exit_on_bye = true;
    auto* server = graph_.add<stream::TcpTupleServer>(
        "downlink", config.transport.port, split_,
        /*max_connections=*/0, server_opts);
    auto* sink = graph_.add<stream::TcpTupleSink>(
        "uplink", server->port(), uplink_in_, config.transport.tcp);
    add_transport(sink, server);
  }

  // Transport CRC rejects share the ingest quarantine: a frame damaged on
  // the wire lands in the same dead-letter log as a tuple damaged at the
  // telescope.
  if (downlink_ != nullptr) downlink_->set_dead_letters(dead_letters_.get());

  // Control plane.  Even with sync disabled the engines need control ports
  // (they exit when both planes close), so the channels always exist.
  std::vector<stream::ChannelPtr<ControlTuple>> engine_control;
  for (std::size_t i = 0; i < n; ++i) {
    engine_control.push_back(make_named_channel<ControlTuple>(
        "chan.sync->pca-" + std::to_string(i), 256));
  }

  if (config.collect_outliers) {
    outliers_ = std::make_unique<stream::Recorder<DataTuple>>(
        config.dead_letter_retained);
    registry_.add_operator("outliers", &outliers_->metrics(), {}, this);
  }

  // Recovery wiring.  A supervisor without checkpoints could only restart
  // engines from scratch, so supervision forces a default interval.
  std::uint64_t checkpoint_every = config.checkpoint_every_tuples;
  if (config.supervise && checkpoint_every == 0) checkpoint_every = 256;
  if (checkpoint_every > 0) {
    checkpoint_store_ = std::make_shared<sync::CheckpointStore>();
  }

  const sync::IndependencePolicy policy(config.pca.alpha,
                                        config.independence_factor,
                                        config.independence_fallback);
  for (std::size_t i = 0; i < n; ++i) {
    sync::EngineFaultOptions fault_opts;
    fault_opts.injector = config.fault_injector;
    fault_opts.checkpoints = checkpoint_store_;
    fault_opts.checkpoint_every = checkpoint_every;
    fault_opts.health_check_every = config.health_check_every_tuples;
    fault_opts.health_thresholds = config.health_thresholds;
    // Each engine needs a decorrelated init: seed nothing (deterministic
    // PCA), the random split already decorrelates partitions.
    auto* engine = graph_.add<sync::PcaEngineOperator>(
        "pca-" + std::to_string(i), int(i), config.pca, engine_data_[i],
        engine_control[i], exchange_, engine_control, policy,
        outliers_.get(), std::move(fault_opts), config.batch_max);
    engine->set_arena(arena_.get());
    engines_.push_back(engine);
    registry_.add_operator(
        "pca-" + std::to_string(i), &engine->metrics(),
        [engine] {
          const sync::EngineStats s = engine->stats();
          const stream::HistogramSnapshot batch =
              engine->batch_size_histogram().snapshot();
          const stream::HistogramSnapshot hold =
              engine->state_lock_hold_histogram().snapshot();
          const stream::HistogramSnapshot lag =
              engine->ingest_to_apply_histogram().snapshot();
          // A sink's throughput (tuples_out) reads 0; this is its rate.
          const double active_s = engine->metrics().active_seconds();
          return std::vector<std::pair<std::string, double>>{
              {"data_tuples", double(s.tuples)},
              {"applied_tps", active_s > 0.0 ? double(s.tuples) / active_s
                                             : 0.0},
              {"outliers", double(s.outliers)},
              {"control_in", double(s.control_in)},
              {"syncs_sent", double(s.syncs_sent)},
              {"merges_applied", double(s.merges_applied)},
              {"merges_skipped", double(s.merges_skipped)},
              {"partition_drops", double(s.partition_drops)},
              {"restarts", double(s.restarts)},
              {"replayed", double(s.replayed)},
              {"health_faults", double(s.health_faults)},
              {"replay_quarantined", double(s.replay_quarantined)},
              {"publishes_suppressed", double(s.publishes_suppressed)},
              {"merges_rejected", double(s.merges_rejected)},
              {"healthy", engine->healthy() ? 1.0 : 0.0},
              // Micro-batching (DESIGN.md): lock acquisitions that applied
              // data and the batch-size distribution they absorbed.
              {"batches", double(s.batches)},
              {"batch_size_mean", batch.mean()},
              {"batch_size_p50", batch.p50()},
              {"batch_size_p95", batch.p95()},
              {"batch_size_max", double(batch.max)},
              // Contention observability (ISSUE 8): how long the engine
              // holds its state lock per acquisition.  Read together with
              // the channels' blocked-time histograms to localize stalls.
              {"lock_holds", double(hold.total)},
              {"lock_hold_ns_p50", hold.p50()},
              {"lock_hold_ns_p95", hold.p95()},
              {"lock_hold_ns_max", double(hold.max)},
              {"ingest_to_apply_us_count", double(lag.total)},
              {"ingest_to_apply_us_min", double(lag.min)},
              {"ingest_to_apply_us_p50", lag.p50()},
              {"ingest_to_apply_us_p99", lag.percentile(0.99)},
              {"ingest_to_apply_us_max", double(lag.max)}};
        },
        this);
  }

  if (config.supervise) {
    supervisor_ = std::make_unique<sync::Supervisor>(
        "supervisor", engines_, engine_data_, engine_control,
        config.supervisor);
    registry_.add_operator(
        "supervisor", &supervisor_->metrics(),
        [sup = supervisor_.get(), store = checkpoint_store_,
         engines = engines_] {
          std::uint64_t replayed = 0;
          for (const auto* e : engines) replayed += e->stats().replayed;
          return std::vector<std::pair<std::string, double>>{
              {"restarts", double(sup->total_restarts())},
              {"abandoned", double(sup->abandoned())},
              {"discarded_tuples", double(sup->discarded_tuples())},
              {"replayed_tuples", double(replayed)},
              {"checkpoints", double(store ? store->checkpoints_taken() : 0)},
              {"checkpoint_bytes", double(store ? store->total_bytes() : 0)},
              {"last_recovery_ms", double(sup->last_recovery_ns()) / 1e6}};
        },
        this);
  }

  if (config.sync_rate_hz > 0.0 && n > 1) {
    controller_ = graph_.add<sync::SyncController>(
        "sync-controller", sync::make_strategy(config.sync_strategy),
        engine_control, config.sync_rate_hz);
    if (supervisor_) {
      // Degraded mode: merge rounds route around dead engines and fold a
      // restarted engine's recovered state back in on rejoin.
      controller_->set_liveness(
          [sup = supervisor_.get()](std::size_t i) { return sup->alive(i); },
          [sup = supervisor_.get()](std::size_t i) { return sup->restarts(i); });
    }
    // Health dimension of the merge gate: a quarantined engine (watchdog
    // tripped, recovery pending) is excluded from sync pairs until its
    // healthy flag flips back.  Cheap and always correct, so always wired.
    controller_->set_health([engines = engines_](std::size_t i) {
      return engines[i]->healthy();
    });
    registry_.add_operator(
        "sync-controller", &controller_->metrics(),
        [c = controller_] {
          return std::vector<std::pair<std::string, double>>{
              {"rounds", double(c->rounds())},
              {"skipped_dead", double(c->skipped_dead())},
              {"rejoin_syncs", double(c->rejoin_syncs())},
              {"skipped_unhealthy", double(c->skipped_unhealthy())}};
        },
        this);
  } else {
    // No controller: close the control ports so engines can exit once the
    // data plane drains.
    for (auto& c : engine_control) c->close();
  }

  // Serving layer + in-flight snapshot feed share one sampling loop: the
  // SnapshotPublisher records the SnapshotTuple feed (when it was asked
  // for) and publishes the merged healthy-engine eigensystem as the next
  // lock-free version readers query through serve_server() (when serving
  // is enabled).
  if (config.serve.enabled) {
    serve::ServeConfig serve_cfg;
    serve_cfg.max_in_flight = config.serve.max_in_flight;
    serve_cfg.anomaly_threshold = config.serve.anomaly_threshold;
    serve_server_ = std::make_unique<serve::SnapshotServer>(serve_cfg);
    registry_.add_operator(
        "serve", &serve_server_->metrics(),
        [srv = serve_server_.get()] {
          return std::vector<std::pair<std::string, double>>{
              {"version", double(srv->version())},
              {"queries", double(srv->queries())},
              {"rejected", double(srv->rejected())},
              {"cache_hits", double(srv->cache_hits())},
              {"cache_misses", double(srv->cache_misses())},
              {"publishes_suppressed", double(srv->publishes_suppressed())},
              {"retired_depth", double(srv->retired_depth())},
              {"in_flight", double(srv->admission().in_flight())},
              {"budget", double(srv->admission().budget())}};
        },
        this);
  }
  if (config.snapshot_interval_seconds > 0.0 || config.serve.enabled) {
    const double interval = config.snapshot_interval_seconds > 0.0
                                ? config.snapshot_interval_seconds
                                : config.serve.publish_interval_seconds;
    if (config.snapshot_interval_seconds > 0.0) {
      snapshots_ = std::make_unique<stream::Recorder<sync::SnapshotTuple>>(
          kSnapshotsRetained);
      registry_.add_operator("snapshot-log", &snapshots_->metrics(), {}, this);
    }
    snapshot_publisher_ = graph_.add<sync::SnapshotPublisher>(
        "snapshots", engines_, snapshots_.get(), interval,
        serve_server_.get());
    registry_.add_operator("snapshots", &snapshot_publisher_->metrics(), {},
                           this);
  }

  if (config.metrics_sample_interval_seconds > 0.0) {
    metrics_sampler_ = std::make_unique<stream::MetricsSampler>(
        registry_, config.metrics_sample_interval_seconds);
  }
}

void StreamingPcaPipeline::start() {
  graph_.start();
  if (supervisor_) supervisor_->start();
  if (metrics_sampler_) metrics_sampler_->start();
}

void StreamingPcaPipeline::wait() {
  // Natural completion order: the split's producer — the source, or the
  // downlink behind a transport — routes its last tuple and closes the
  // engine data ports.  Engines keep serving control traffic until the
  // sync subsystem is shut down, so stop it once the data plane has
  // finished.
  source_->join();
  if (uplink_ != nullptr) {
    // The sink flushes (waits for the receiver to confirm, or counts what
    // it never confirmed) before exiting, so after this join every
    // surviving tuple has been pushed past the server.  The server
    // normally exits on the sink's end-of-stream marker; a sink that gave
    // up or crashed never sends one, so nudge it.
    uplink_->join();
    downlink_->request_stop();
    downlink_->join();
  }
  // The controller wakes from its pacing wait and closes the control ports.
  if (controller_ != nullptr) controller_->request_stop();
  // The supervisor exits once every engine reaches kCompleted; joining it
  // *before* the engines guarantees no restart is in flight while the
  // engine joins below reap the final incarnations.
  if (supervisor_) supervisor_->join();
  for (auto* e : engines_) e->join();
  if (snapshot_publisher_ != nullptr) snapshot_publisher_->request_stop();
  graph_.wait();
  // Final profiler sample covers the fully drained state.
  if (metrics_sampler_) metrics_sampler_->stop();
}

void StreamingPcaPipeline::run() {
  start();
  wait();
}

void StreamingPcaPipeline::stop() {
  graph_.stop();
  // FlowGraph::stop only raises flags; a producer parked inside a blocking
  // push never rechecks them.  Close the channels such a producer could be
  // stuck on: the source -> uplink queue (the uplink exits without
  // draining it).
  if (uplink_in_) uplink_in_->close();
  // The engine data ports too: engines exit on their stop flags *without*
  // draining, so the split's producer (source or downlink) parked in the
  // blocking-push fallback on a full port would otherwise never wake.  The
  // split counts the closed-port push as a drop, and the producer sees its
  // stop flag before the next tuple.
  for (auto& port : engine_data_) port->close();
  // The supervisor is not in the graph; its stop path also closes and
  // drains the ports of any still-crashed engine so the producer cannot
  // stay blocked on a consumer that will never return.
  if (supervisor_) supervisor_->request_stop();
}

std::vector<stream::RegistrySnapshot> StreamingPcaPipeline::metrics_history()
    const {
  if (!metrics_sampler_) return {};
  return metrics_sampler_->history();
}

pca::EigenSystem StreamingPcaPipeline::result() const {
  std::vector<pca::EigenSystem> systems;
  systems.reserve(engines_.size());
  for (const auto* e : engines_) {
    pca::EigenSystem s = e->snapshot();
    if (s.initialized()) systems.push_back(std::move(s));
  }
  if (systems.empty()) {
    throw std::runtime_error("StreamingPcaPipeline: no engine initialized");
  }
  if (systems.size() == 1) return systems.front();
  return pca::merge(systems);
}

pca::EigenSystem StreamingPcaPipeline::engine_snapshot(std::size_t i) const {
  return engines_.at(i)->snapshot();
}

std::vector<bool> StreamingPcaPipeline::engine_health() const {
  std::vector<bool> out;
  out.reserve(engines_.size());
  for (const auto* e : engines_) out.push_back(e->healthy());
  return out;
}

std::vector<sync::EngineStats> StreamingPcaPipeline::engine_stats() const {
  std::vector<sync::EngineStats> out;
  out.reserve(engines_.size());
  for (const auto* e : engines_) out.push_back(e->stats());
  return out;
}

std::vector<std::uint64_t> StreamingPcaPipeline::split_counts() const {
  return split_->per_target_counts();
}

std::vector<stream::DataTuple> StreamingPcaPipeline::outliers() const {
  if (!outliers_) return {};
  return outliers_->retained();
}

std::vector<sync::SnapshotTuple> StreamingPcaPipeline::snapshots() const {
  if (!snapshots_) return {};
  return snapshots_->retained();
}

double StreamingPcaPipeline::throughput() const {
  return split_->metrics().throughput();
}

}  // namespace astro::app
