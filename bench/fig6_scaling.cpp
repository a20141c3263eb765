// Figure 6 reproduction: throughput of the distributed streaming-PCA
// system, d = 250 dimensions, 1-30 engines, single-node vs distributed
// placement on the modeled 10-node quad-core 1 GbE cluster.
//
// Paper setup (§III-D): synchronization throttle 0.5 s (2 rounds/s),
// N = 5000, rate measured at the splitting operator.  The measured rows
// carry that split rate next to the end-to-end one: tuples the engines
// applied per second from the first emit to the last apply.  Expected shape:
// distributed placement wins as engines grow, peaks at ~2 engines/node
// (20 engines on 10 nodes), degrades at 30 (interconnect saturation);
// single-node placement plateaus near its core count without degrading
// badly; a lone distributed engine underperforms a fused one.
//
// Pass --calibrate to refit the per-tuple CPU cost constants to this
// machine before simulating (default uses the paper-era constants; see
// cluster/cost_model.h).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/pipeline.h"
#include "bench/bench_util.h"
#include "bench/pipeline_run.h"
#include "cluster/scaling_model.h"
#include "src/perf/alloc_probe.h"
#include "stats/rng.h"

using namespace astro::cluster;

namespace {

// Measured counterpart to the simulation: run the real in-process pipeline
// at the paper's d = 250, p = 10 operating point for a few engine counts
// and export every operator's counters/latency histograms through the
// metrics registry.  Written as BENCH_fig6_operators.json (override with
// --json <path>) so plots and regressions can consume the per-operator
// breakdown the profiler tables in §III-D are built from.
/// Steady-state pipeline summary: one row per engine count, carrying the
/// hot-path numbers (end-to-end applied tuples/sec, split-side tuples/sec,
/// time to result and whole-process heap allocations per tuple) that
/// BENCH_fig6.json tracks across PRs.
///
/// Methodology:
///  - `applied_tps` (what check_regression.py gates) is engine-applied
///    tuples / (first emit -> last apply) and `time_to_result_s` is first
///    emit -> wait() returned, each the best of kTrials separate timed
///    runs (bench/pipeline_run.h): one run's number is mostly a scheduler
///    roll; the max is the stable upper envelope.
///  - `split_enqueue_tps` is the split operator's enqueue rate, the best
///    of kTrials untimed runs, reported but not gated.  It measures how
///    fast the split fills the engine ports, so it tracks the applied rate
///    only once the ports are full: with 1024-slot ports, e >= 2 enqueued
///    all N tuples in about 2 ms (1.03M t/s against 16k applied).  The
///    timed runs' 200 us poller competes for the cores, so the split rate
///    is taken from runs without it.
///  - Each split-rate and timed run starts after kSettle of idle time.
///    Until pipelines stopped promptly, every run ended with a mostly idle
///    0.5 s sync-throttle tail, and the committed split rates were measured
///    that way; run back to back, the same code read about half the split
///    rate at e >= 2, b = 8 on a 4-vCPU VM.
///  - `allocs_per_tuple` is the *marginal steady-state* allocation rate,
///    measured differentially: two runs identical except for stream length,
///    (allocs_long - allocs_base) / extra_tuples.  Fixed startup costs
///    (thread spawns, engine init-phase buffering, the one-time fill of the
///    sync control channels) cancel; what remains is what the data plane
///    allocates per tuple once warm — the number the arena is supposed to
///    hold at zero.  The alloc runs disable the wall-clock metrics sampler
///    so sample-count differences between the two runs don't pollute the
///    difference.
struct MeasuredRow {
  std::size_t engines = 0;
  std::size_t batch_max = 1;  ///< engine micro-batch cap (DESIGN.md)
  double split_enqueue_tps = 0.0;
  double applied_tps = 0.0;
  double time_to_result_s = 0.0;
  double allocs_per_tuple = 0.0;
  double sync_rounds = 0.0;
};

/// One pipeline execution plus everything the reporting needs from it.
struct RunResult {
  double tps = 0.0;
  double applied_tps = 0.0;
  double time_to_result_s = 0.0;
  double rounds = 0.0;
  std::uint64_t allocs = 0;
  std::string metrics;  ///< registry JSON (split-rate runs only)
  astro::stream::RegistrySnapshot snap;
};

enum class RunKind {
  kSplitRate,  ///< split rate + registry JSON
  kTimed,      ///< applied rate and time to result (polls engine_stats())
  kAllocs,     ///< allocation count only
};

/// One pipeline execution.  Only timed runs poll engine_stats()
/// (run_timed): each poll allocates and takes the engines' state locks.
RunResult run_once(const astro::app::PipelineConfig& cfg,
                   const std::vector<astro::linalg::Vector>& data,
                   RunKind kind) {
  astro::app::StreamingPcaPipeline p(cfg, data);
  astro::perf::AllocWindow window;
  RunResult r;
  if (kind == RunKind::kTimed) {
    const astro::bench::AppliedTiming timing = astro::bench::run_timed(p);
    r.applied_tps = timing.applied_tps;
    r.time_to_result_s = timing.time_to_result_s;
  } else {
    p.run();
  }
  r.allocs = window.allocations();
  r.tps = p.throughput();
  r.snap = p.metrics_registry().snapshot();
  astro::bench::require_conservation(p, "fig6");
  if (const auto* ctl = r.snap.find_operator("sync-controller")) {
    for (const auto& [k, v] : ctl->extras) {
      if (k == "rounds") r.rounds = v;
    }
  }
  if (kind == RunKind::kSplitRate) r.metrics = p.metrics_json();
  return r;
}

double extra_of(const astro::stream::OperatorSnapshot& op, const char* key) {
  for (const auto& [k, v] : op.extras) {
    if (k == key) return v;
  }
  return 0.0;
}

/// Satellite observability: the blocked-time histograms the ring queues
/// record around their condition waits, and the engines' state-lock
/// hold-time histograms, both read back through the metrics registry.
void print_contention(std::size_t engines, std::size_t batch_max,
                      const astro::stream::RegistrySnapshot& snap) {
  std::printf("  e=%zu b=%zu:\n", engines, batch_max);
  for (const auto& q : snap.queues) {
    std::printf("    %-22s push_blk n=%-6llu p95=%8.1fus max=%8.1fus | "
                "pop_blk n=%-6llu p95=%8.1fus max=%8.1fus\n",
                q.name.c_str(),
                static_cast<unsigned long long>(q.push_blocked_ns.total),
                q.push_blocked_ns.p95() / 1e3,
                double(q.push_blocked_ns.max) / 1e3,
                static_cast<unsigned long long>(q.pop_blocked_ns.total),
                q.pop_blocked_ns.p95() / 1e3,
                double(q.pop_blocked_ns.max) / 1e3);
  }
  for (const auto& op : snap.operators) {
    const double holds = extra_of(op, "lock_holds");
    if (holds <= 0.0) continue;
    std::printf("    %-22s state-lock holds=%-6.0f p50=%8.1fus "
                "p95=%8.1fus max=%8.1fus\n",
                op.name.c_str(), holds,
                extra_of(op, "lock_hold_ns_p50") / 1e3,
                extra_of(op, "lock_hold_ns_p95") / 1e3,
                extra_of(op, "lock_hold_ns_max") / 1e3);
  }
}

std::string run_measured_pipelines(const std::string& json_path,
                                   std::vector<MeasuredRow>* rows_out) {
  constexpr std::size_t kDim = 250;
  constexpr std::size_t kTuples = 2000;       // matches the committed baselines
  constexpr std::size_t kExtraTuples = 6000;  // differential alloc window
  constexpr int kTrials = 5;                  // best-of-N vs scheduler noise
  constexpr auto kSettle = std::chrono::milliseconds(500);
  astro::stats::Rng rng(6201);
  std::vector<astro::linalg::Vector> data;
  data.reserve(kTuples + kExtraTuples);
  for (std::size_t i = 0; i < kTuples + kExtraTuples; ++i) {
    data.push_back(rng.gaussian_vector(kDim));
  }
  const std::vector<astro::linalg::Vector> base(data.begin(),
                                                data.begin() + kTuples);

  std::printf("\n=== Measured pipeline (real operators, d = 250, p = 10, "
              "N = %zu, best of %d) ===\n\n", kTuples, kTrials);
  std::printf("%8s %6s %14s %14s %10s %14s %12s\n", "engines", "batch",
              "split (t/s)", "applied (t/s)", "result (s)", "allocs/tuple",
              "sync rounds");

  auto make_cfg = [](std::size_t engines, std::size_t batch_max,
                     double sample_interval_s) {
    astro::app::PipelineConfig cfg;
    cfg.pca.dim = kDim;
    cfg.pca.rank = 10;
    cfg.engines = engines;
    cfg.sync_rate_hz = 2.0;  // the paper's 0.5 s throttle
    cfg.metrics_sample_interval_seconds = sample_interval_s;
    cfg.batch_max = batch_max;
    return cfg;
  };

  struct ConfigSummary {
    std::size_t engines, batch_max;
    astro::stream::RegistrySnapshot snap;
  };
  std::vector<ConfigSummary> summaries;

  std::string json = "{\"dim\":250,\"rank\":10,\"tuples\":2000,\"runs\":[";
  bool first = true;
  for (std::size_t batch_max : {std::size_t(1), std::size_t(8)}) {
    for (std::size_t engines :
         {std::size_t(1), std::size_t(2), std::size_t(4)}) {
      RunResult best;
      double applied_tps = 0.0;
      double time_to_result_s = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        std::this_thread::sleep_for(kSettle);
        RunResult r = run_once(make_cfg(engines, batch_max, 0.05), base,
                               RunKind::kSplitRate);
        if (r.tps > best.tps) best = std::move(r);
        std::this_thread::sleep_for(kSettle);
        const RunResult timed = run_once(make_cfg(engines, batch_max, 0.05),
                                         base, RunKind::kTimed);
        applied_tps = std::max(applied_tps, timed.applied_tps);
        time_to_result_s = t == 0 ? timed.time_to_result_s
                                  : std::min(time_to_result_s,
                                             timed.time_to_result_s);
      }

      // Marginal steady-state allocations (see MeasuredRow doc above).
      const RunResult short_run =
          run_once(make_cfg(engines, batch_max, 0.0), base, RunKind::kAllocs);
      const RunResult long_run =
          run_once(make_cfg(engines, batch_max, 0.0), data, RunKind::kAllocs);
      const double allocs_per_tuple =
          long_run.allocs <= short_run.allocs
              ? 0.0
              : double(long_run.allocs - short_run.allocs) /
                    double(kExtraTuples);

      std::printf("%8zu %6zu %14.0f %14.0f %10.3f %14.1f %12.0f\n", engines,
                  batch_max, best.tps, applied_tps, time_to_result_s,
                  allocs_per_tuple, best.rounds);
      if (rows_out != nullptr) {
        rows_out->push_back({engines, batch_max, best.tps, applied_tps,
                             time_to_result_s, allocs_per_tuple, best.rounds});
      }

      if (!first) json += ',';
      first = false;
      json += "{\"engines\":" + std::to_string(engines) +
              ",\"batch_max\":" + std::to_string(batch_max) + ",\"metrics\":";
      json += best.metrics;  // already a JSON object: embed verbatim
      json += '}';
      summaries.push_back({engines, batch_max, std::move(best.snap)});
    }
  }
  json += "]}";
  astro::bench::write_json_file(json_path, json);

  std::printf("\n--- Contention (best runs): queue blocked-time & engine "
              "state-lock holds ---\n");
  for (const auto& s : summaries) {
    print_contention(s.engines, s.batch_max, s.snap);
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  astro::bench::CsvSeries csv(astro::bench::csv_dir_from_args(argc, argv),
                              "fig6",
                              {"engines", "single_tps", "distributed_tps",
                               "head_nic_util", "head_cpu_util"});
  CostModel costs;
  if (argc > 1 && std::strcmp(argv[1], "--calibrate") == 0) {
    std::printf("calibrating per-tuple costs on this machine...\n");
    costs = calibrate(2.0);
    std::printf("  update_base = %.3g s, update_per_flop = %.3g s\n\n",
                costs.update_base, costs.update_per_flop);
  }

  const ClusterConfig cluster;  // 10 nodes x 4 cores, the paper's testbed
  std::printf("=== Figure 6: throughput vs parallel engines (d = 250, "
              "p = 10, 10-node cluster model) ===\n\n");
  std::printf("%8s %14s %14s %10s %10s\n", "engines", "single (t/s)",
              "distrib (t/s)", "head NIC", "head CPU");

  const std::vector<std::size_t> engine_counts{1,  2,  4,  5,  8,  10,
                                               12, 15, 20, 25, 30};
  std::vector<double> single, distributed;
  for (std::size_t n : engine_counts) {
    SimPipelineConfig pc;
    pc.engines = n;
    pc.dim = 250;
    pc.rank = 10;
    pc.sync_rate_hz = 2.0;  // the paper's 0.5 s throttle
    pc.sim_seconds = 2.0;

    pc.placement = Placement::kSingleNode;
    const SimResult s = simulate_streaming_pca(cluster, pc, costs);
    pc.placement = Placement::kDistributed;
    const SimResult d = simulate_streaming_pca(cluster, pc, costs);
    single.push_back(s.throughput);
    distributed.push_back(d.throughput);
    csv.row({double(n), s.throughput, d.throughput, d.head_nic_utilization,
             d.head_cpu_utilization});
    std::printf("%8zu %14.0f %14.0f %9.0f%% %9.0f%%\n", n, s.throughput,
                d.throughput, 100.0 * d.head_nic_utilization,
                100.0 * d.head_cpu_utilization);
  }

  // Shape checks against the paper's observations.
  auto at = [&](std::size_t n) {
    for (std::size_t i = 0; i < engine_counts.size(); ++i) {
      if (engine_counts[i] == n) return i;
    }
    return std::size_t(0);
  };
  const bool lone_remote_slower = distributed[at(1)] < single[at(1)];
  const bool distributed_wins = distributed[at(10)] > 2.0 * single[at(10)];
  const bool peak_at_20 = distributed[at(20)] > distributed[at(10)] &&
                          distributed[at(20)] > distributed[at(30)];
  const bool single_plateaus =
      single[at(20)] < 1.3 * single[at(4)] && single[at(20)] > 0.6 * single[at(4)];

  std::printf("\n--- Shape checks (paper §III-D) ---\n");
  std::printf("  lone distributed engine slower than fused:      %s\n",
              lone_remote_slower ? "yes" : "NO");
  std::printf("  distributed >> single-node at 10 engines:       %s\n",
              distributed_wins ? "yes" : "NO");
  std::printf("  distributed peaks at ~20 engines (2/node),\n"
              "  degrades at 30 (interconnect saturation):       %s\n",
              peak_at_20 ? "yes" : "NO");
  std::printf("  single-node plateaus near its core count:       %s\n",
              single_plateaus ? "yes" : "NO");
  const bool ok =
      lone_remote_slower && distributed_wins && peak_at_20 && single_plateaus;
  std::printf("\nVERDICT: %s\n", ok ? "REPRODUCED" : "NOT reproduced");

  std::vector<MeasuredRow> measured;
  run_measured_pipelines(astro::bench::json_path_from_args(
                             argc, argv, "BENCH_fig6_operators.json"),
                         &measured);

  // Compact before/after summary (BENCH_fig6.json): simulated scaling curve
  // plus the measured pipeline's steady-state tuples/sec and allocs/tuple,
  // with an optional embedded baseline (--baseline <path>, a previously
  // recorded "current" object) so the committed file tracks the trajectory.
  char buf[256];
  std::string summary = "{\"bench\":\"fig6\",\"current\":{\"sim\":[";
  for (std::size_t i = 0; i < engine_counts.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"engines\":%zu,\"single_tps\":%.0f,"
                  "\"distributed_tps\":%.0f}",
                  i ? "," : "", engine_counts[i], single[i], distributed[i]);
    summary += buf;
  }
  summary += "],\"measured\":[";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"engines\":%zu,\"batch_max\":%zu,"
                  "\"applied_tps\":%.1f,\"split_enqueue_tps\":%.1f,"
                  "\"time_to_result_s\":%.4f,"
                  "\"allocs_per_tuple\":%.1f,\"sync_rounds\":%.0f}",
                  i ? "," : "", measured[i].engines, measured[i].batch_max,
                  measured[i].applied_tps, measured[i].split_enqueue_tps,
                  measured[i].time_to_result_s, measured[i].allocs_per_tuple,
                  measured[i].sync_rounds);
    summary += buf;
  }
  summary += "],\"reproduced\":";
  summary += ok ? "true" : "false";
  summary += "},\"baseline_pre_pr\":";
  const std::string baseline = astro::bench::read_file(
      astro::bench::take_value_arg(argc, argv, "--baseline", ""));
  summary += baseline.empty() ? "null" : baseline;
  summary += "}";
  astro::bench::write_json_file(
      astro::bench::take_value_arg(argc, argv, "--summary-json",
                                   "BENCH_fig6.json"),
      summary);
  return ok ? 0 : 1;
}
