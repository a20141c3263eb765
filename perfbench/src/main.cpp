// The repository benchmark's main program: runs one seeded workload against the
// real app::StreamingPcaPipeline, checks the outputs, and prints every
// metric by name and unit, ending with one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//   perfbench_traced --workload <name> --seed <n> --seconds <s> --trace 1
//       [--untraced-applied-tps <v> --untraced-cpu-us <v>]
//
// A run is kReps repetitions, each on a fresh pipeline with its own seeded
// inputs.  A run's figure is the interquartile mean over repetitions,
// except time_to_result_s (plain mean over the throttle phases, see run())
// and the traced p99 tails (best repetition).  The system is
// driven only through its public surface: the constructor's generator
// callback, start()/wait(), engine_stats(), validator(), serve_server(),
// the transport counters, metrics_registry() and result().  METRICS.md
// defines every metric.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc.h"
#include "app/pipeline.h"
#include "inputs.h"
#include "layers.h"
#include "pca/subspace.h"
#include "stats.h"

namespace perfbench {
namespace {

using astro::app::PipelineConfig;
using astro::app::StreamingPcaPipeline;
using Clock = std::chrono::steady_clock;

constexpr auto kPollPeriod = std::chrono::milliseconds(2);
constexpr double kReaderSpinS = 50e-6;
// Self-check floors, set from runs of unmodified code: affinity read 0.80 to
// 0.99 (a random subspace reads 0.15 to 0.25); open-loop sources ran at most
// a few ms behind schedule.
constexpr double kAffinityFloor = 0.6;
constexpr double kSourceLateLimitMs = 100.0;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(t))));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Resident set size now, from /proc/self/statm (0 if unreadable).
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? double(resident) * double(sysconf(_SC_PAGESIZE)) / 1048576.0
                  : 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double untraced_applied_tps = 0.0;
  double untraced_cpu_us = 0.0;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (key == "--untraced-applied-tps") a.untraced_applied_tps = std::strtod(v, nullptr);
    else if (key == "--untraced-cpu-us") a.untraced_cpu_us = std::strtod(v, nullptr);
    else return std::nullopt;
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

PipelineConfig make_config(const WorkloadSpec& w) {
  PipelineConfig cfg;
  cfg.pca.dim = w.dim;
  cfg.pca.rank = w.rank;
  cfg.pca.extra_rank = w.extra_rank;
  cfg.pca.alpha = 1.0 - 1.0 / 5000.0;  // window 5000: sync gate at 7500
  cfg.engines = w.engines;
  cfg.sync_strategy = "ring";
  cfg.sync_rate_hz = w.sync_hz;
  cfg.validate_ingest = true;
  cfg.validation.nonfinite_as_masked = false;  // NaN tuples -> quarantine
  cfg.serve.enabled = true;
  cfg.serve.publish_interval_seconds = w.publish_s;
  if (w.tcp) {
    cfg.transport.enabled = true;
    cfg.transport.kind = PipelineConfig::TransportOptions::Kind::kTcp;
  }
  return cfg;
}

/// One answer the reader received: due and completion times, and the
/// answering version's number and observation count.
struct Answer {
  double due = 0.0;
  double done = 0.0;
  std::uint64_t version = 0;
  std::uint64_t observations = 0;
  bool ok = false;
};

struct RepResult {
  double setup_s = 0.0;
  double time_to_result_s = 0.0;
  double applied_tps = 0.0;
  double cpu_us_per_tuple = 0.0;
  double affinity = 0.0;
  double shutdown_s = 0.0;
  double split_enqueue_tps = 0.0;
  double source_late_ms_max = 0.0;
  double versions_per_s = 0.0;
  double peak_rss_mb = 0.0;  ///< max of the poller's RSS samples
  std::uint64_t emitted = 0;
  std::uint64_t injected = 0;  ///< poisoned tuples in this repetition's inputs
  std::uint64_t applied = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t quarantined_nonfinite = 0;
  std::uint64_t outliers = 0;
  std::uint64_t queries = 0;
  std::uint64_t queries_failed = 0;
  bool versions_monotone = true;
  bool last_apply_seen = false;
  std::optional<astro::stream::TcpSinkCounters> tcp;
  std::vector<double> ingest_lag_ms;
  std::vector<double> staleness_ms;
  std::vector<double> query_us;
  std::optional<double> allocs_per_tuple;
  astro::stream::RegistrySnapshot registry;
};

/// Operator-new calls Inputs::fill makes for the whole stream — the
/// generator callback's own copies, which the traced run subtracts.
std::uint64_t fill_allocations(const Inputs& in) {
  const auto before = alloc_calls();
  if (!before) return 0;
  for (std::size_t k = 0; k < in.tuples; ++k) {
    astro::linalg::Vector v;
    astro::pca::PixelMask m;
    in.fill(k, v, m);
  }
  return *alloc_calls() - *before;
}

/// Runs one repetition.  The source holds its first tuple until
/// `first_emit_delay_s` after start(), which sets where the stream ends
/// against the sync throttle's ticks (see run()).
RepResult run_rep(const WorkloadSpec& w, const Inputs& in, bool traced,
                  double first_emit_delay_s) {
  RepResult r;
  const std::size_t n = in.tuples;
  const std::uint64_t callback_allocs = traced ? fill_allocations(in) : 0;

  // Generator state: written by the source thread only, read after wait().
  std::vector<double> due(n, 0.0);
  std::size_t next = 0;
  double late_max = 0.0;
  double t_first_emit = 0.0;  // set before start(), read by the source
  std::atomic<bool> emitted_all{false};
  auto generator = [&]() -> std::optional<astro::stream::SourceItem> {
    if (next >= n) {
      emitted_all.store(true, std::memory_order_release);
      return std::nullopt;
    }
    const std::size_t k = next++;
    if (k == 0) sleep_until_s(t_first_emit);
    if (w.open_loop) {
      const double d = k == 0 ? now_s() : due[0] + double(k) / w.rate;
      sleep_until_s(d);
      late_max = std::max(late_max, now_s() - d);
      due[k] = d;
    } else {
      due[k] = now_s();
    }
    astro::stream::SourceItem item;
    in.fill(k, item.values, item.mask);
    return item;
  };

  const PipelineConfig cfg = make_config(w);
  const double t_setup = now_s();
  StreamingPcaPipeline pipeline(
      cfg, astro::stream::GeneratorSource::MaskedGenerator(generator));
  const double cpu0 = cpu_seconds();
  const auto alloc0 = alloc_calls();
  const double t_start = now_s();
  t_first_emit = t_start + first_emit_delay_s;
  pipeline.start();
  r.setup_s = now_s() - t_setup;

  // Poll of applied (+ quarantined) tuples.  engine_stats() takes each
  // engine's state lock, so the poll stays coarse.
  std::vector<CountSample> applied_tl, handled_tl;
  applied_tl.reserve(1 << 16);
  handled_tl.reserve(1 << 16);
  // The poller's and reader's own CPU time, excluded from cpu_us_per_tuple.
  double poller_cpu = 0.0, reader_cpu = 0.0;
  std::jthread poller([&](std::stop_token st) {
    for (;;) {
      const bool last = st.stop_requested();
      const double ta = now_s();
      std::uint64_t applied = 0;
      for (const auto& s : pipeline.engine_stats()) applied += s.tuples;
      const std::uint64_t quarantined = pipeline.validator()->quarantined();
      const double t = 0.5 * (ta + now_s());
      applied_tl.push_back({t, applied});
      handled_tl.push_back({t, applied + quarantined});
      r.peak_rss_mb = std::max(r.peak_rss_mb, rss_mb());
      if (last) break;
      std::this_thread::sleep_for(kPollPeriod);
    }
    poller_cpu = thread_cpu_seconds();
  });

  // Reader: queries on a fixed schedule from the first publish until the
  // source has emitted its last tuple, rotating project / residual_score /
  // top_k_components over the held-out spectra.
  std::vector<Answer> answers;
  answers.reserve(std::size_t(w.query_hz * (double(n) / w.rate) * 2.0) + 1024);
  std::jthread reader([&](std::stop_token st) {
    // Without this the kernel may wake the reader up to 50 us late (the
    // default timer slack), past the spin window below.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const astro::serve::SnapshotServer* srv = pipeline.serve_server();
    while (srv->version() == 0 && !emitted_all.load(std::memory_order_acquire) &&
           !st.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    astro::serve::QueryWorkspace ws;
    astro::serve::ProjectionResult pr;
    astro::serve::ResidualResult rr;
    std::shared_ptr<const astro::serve::TopKResult> tk;
    const std::size_t top_k = std::min<std::size_t>(5, w.rank);
    const double q0 = now_s();
    for (std::size_t j = 0;; ++j) {
      // Sleep to just before the due time, then spin onto it, so query_us
      // measures the server rather than the reader's wake-up.
      const double d = q0 + double(j) / w.query_hz;
      sleep_until_s(d - kReaderSpinS);
      while (now_s() < d) {
      }
      if (emitted_all.load(std::memory_order_acquire) || st.stop_requested()) {
        break;
      }
      const auto& x = in.held_out[j % in.held_out.size()];
      Answer a;
      a.due = d;
      switch (j % 3) {
        case 0:
          a.ok = srv->project(x, ws, pr) == astro::serve::QueryStatus::kOk;
          a.version = pr.version;
          a.observations = pr.observations;
          break;
        case 1:
          a.ok = srv->residual_score(x, ws, rr) == astro::serve::QueryStatus::kOk;
          a.version = rr.version;
          a.observations = rr.observations;
          break;
        default:
          a.ok = srv->top_k_components(top_k, tk) == astro::serve::QueryStatus::kOk;
          if (a.ok) {
            a.version = tk->version;
            a.observations = tk->observations;
          }
          break;
      }
      a.done = now_s();
      answers.push_back(a);
    }
    reader_cpu = thread_cpu_seconds();
  });

  pipeline.wait();
  const double t_done = now_s();
  const auto alloc1 = alloc_calls();
  reader.request_stop();
  reader.join();
  poller.request_stop();
  poller.join();
  const double cpu = cpu_seconds() - cpu0 - reader_cpu - poller_cpu;

  // Conservation counts.
  for (const auto& s : pipeline.engine_stats()) {
    r.applied += s.tuples;
    r.outliers += s.outliers;
  }
  r.emitted = next;
  r.injected = in.injected;
  r.quarantined = pipeline.validator()->quarantined();
  r.quarantined_nonfinite = pipeline.validator()->quarantined_for(
      astro::spectra::RejectReason::kNonFinite);
  if (const auto* up = pipeline.transport_uplink()) r.tcp = up->counters();

  // Rates and times.  "Last apply" is when the polled applied count first
  // reached its final value.
  const double t_first = n > 0 ? due[0] : t_start;
  const auto last_apply = time_count_reached(applied_tl, r.applied);
  r.last_apply_seen = last_apply.has_value() && *last_apply > t_first;
  const double t_last = r.last_apply_seen ? *last_apply : t_done;
  r.applied_tps = double(r.applied) / (t_last - t_first);
  r.time_to_result_s = t_done - t_first_emit;
  r.shutdown_s = t_done - t_last;
  r.cpu_us_per_tuple = r.applied > 0 ? cpu * 1e6 / double(r.applied) : 0.0;
  r.source_late_ms_max = late_max * 1e3;
  r.split_enqueue_tps = pipeline.throughput();
  r.versions_per_s =
      double(pipeline.serve_server()->version()) / r.time_to_result_s;

  // Latencies.
  for (const double lag : ingest_lags(handled_tl, due)) {
    r.ingest_lag_ms.push_back(lag * 1e3);
  }
  std::uint64_t last_version = 0;
  for (const Answer& a : answers) {
    ++r.queries;
    if (!a.ok) {
      ++r.queries_failed;
      continue;
    }
    if (a.version < last_version) r.versions_monotone = false;
    last_version = a.version;
    r.query_us.push_back((a.done - a.due) * 1e6);
    if (const auto s =
            staleness(a.done, a.observations, in.accepted_index, due)) {
      r.staleness_ms.push_back(*s * 1e3);
    }
  }
  for (auto* v : {&r.ingest_lag_ms, &r.staleness_ms, &r.query_us}) {
    std::sort(v->begin(), v->end());
  }

  // Quality of the merged result against the generator's ground truth.
  const astro::pca::EigenSystem result = pipeline.result();
  const std::size_t k = std::min<std::size_t>(5, result.rank());
  astro::linalg::Matrix top(result.dim(), k);
  for (std::size_t i = 0; i < result.dim(); ++i) {
    for (std::size_t c = 0; c < k; ++c) top(i, c) = result.basis()(i, c);
  }
  r.affinity = astro::pca::subspace_affinity(top, in.true_basis);

  if (traced) {
    r.registry = pipeline.metrics_registry().snapshot();
    if (alloc0 && alloc1 && n > 0) {
      const double allocs = double(*alloc1 - *alloc0) - double(callback_allocs);
      r.allocs_per_tuple = std::max(allocs, 0.0) / double(n);
    }
  }
  return r;
}

// ---- reporting ------------------------------------------------------------

/// A run's value of a per-repetition quantity: its interquartile mean over
/// the repetitions.
template <typename F>
double across_reps(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(f(r));
  return interquartile_mean(v);
}

/// The plain mean over the repetitions, for a quantity whose repetitions
/// are deliberately spread (time_to_result_s over the throttle's phase).
template <typename F>
double mean_over_reps(const std::vector<RepResult>& reps, F f) {
  double sum = 0.0;
  for (const auto& r : reps) sum += f(r);
  return sum / double(reps.size());
}

/// A run's value of a p99 tail in the traced run: its best (lowest)
/// repetition's.  Tails are set by stalls from the rest of the machine,
/// which only ever slow a repetition, so the best one is the steadiest
/// estimate of the undisturbed system.
template <typename F>
double best_rep(const std::vector<RepResult>& reps, F f) {
  double best = f(reps.front());
  for (const auto& r : reps) best = std::min(best, f(r));
  return best;
}

std::vector<double> pooled(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*field) {
  std::vector<double> all;
  for (const auto& r : reps) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// Prints a latency distribution as its median and the highest percentile
/// the sample count supports (>= 10 samples beyond it).
void print_distribution(const char* name, const char* unit,
                        const std::vector<double>& sorted) {
  const auto q = highest_supported_quantile(sorted.size());
  std::printf("  %-22s n=%-8zu p50=%.4g %s", name, sorted.size(),
              percentile_sorted(sorted, 0.5), unit);
  if (q) {
    std::printf("  p%g=%.4g %s", *q * 100.0, percentile_sorted(sorted, *q),
                unit);
  }
  std::printf("  max=%.4g %s\n", sorted.empty() ? 0.0 : sorted.back(), unit);
}

double extra(const astro::stream::OperatorSnapshot& op, const char* key) {
  for (const auto& [k, v] : op.extras) {
    if (k == key) return v;
  }
  return 0.0;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Per-layer numbers read from the traced repetitions' registries, as
/// per-repetition means.
std::vector<Metric> registry_metrics(const std::vector<RepResult>& reps) {
  double rounds = 0, merges = 0, skipped = 0, push_blk = 0, pop_blk = 0;
  double hold = 0, batch = 0, engines = 0, hits = 0, misses = 0;
  double retransmits = 0, acks = 0, accepted = 0, outliers = 0, applied = 0;
  for (const auto& r : reps) {
    for (const auto& op : r.registry.operators) {
      if (op.name == "sync-controller") rounds += extra(op, "rounds");
      if (op.name == "serve") {
        hits += extra(op, "cache_hits");
        misses += extra(op, "cache_misses");
      }
      if (starts_with(op.name, "pca-")) {
        merges += extra(op, "merges_applied");
        skipped += extra(op, "merges_skipped");
        hold += extra(op, "lock_hold_ns_p50");
        batch += extra(op, "batch_size_mean");
        engines += 1;
      }
    }
    for (const auto& q : r.registry.queues) {
      if (starts_with(q.name, "chan.split->pca-")) {
        push_blk += double(q.push_blocked_ns.sum) / 1e6;
        pop_blk += double(q.pop_blocked_ns.sum) / 1e6;
      }
    }
    if (r.tcp) {
      retransmits += double(r.tcp->retransmits);
      acks += double(r.tcp->acks_received);
      accepted += double(r.tcp->accepted);
    }
    outliers += double(r.outliers);
    applied += double(r.applied);
  }
  const double nr = double(reps.size());
  return {
      {"pca.outlier_frac", applied > 0 ? outliers / applied : 0.0, "1"},
      {"sync.rounds", rounds / nr, "count"},
      {"sync.merge_applied_frac",
       merges + skipped > 0 ? merges / (merges + skipped) : 0.0, "1"},
      {"stream.split_push_blocked_ms", push_blk / nr, "ms"},
      {"stream.engine_pop_blocked_ms", pop_blk / nr, "ms"},
      {"stream.engine_lock_hold_us_p50",
       engines > 0 ? hold / engines / 1e3 : 0.0, "us"},
      {"stream.engine_batch_size_mean", engines > 0 ? batch / engines : 0.0,
       "count"},
      {"net.retransmits", retransmits / nr, "count"},
      {"net.acks_per_ktuple", accepted > 0 ? acks / accepted * 1e3 : 0.0,
       "count"},
      {"serve.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "1"},
  };
}

double find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

int run(const Args& args) {
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto tuples = std::size_t(std::llround(
      w->rate * std::max(args.seconds / double(kReps) - kRepSlackS, 0.1)));
  std::printf("workload %s (%s loop), seed %" PRIu64 ", %d reps x %zu tuples\n",
              w->name.c_str(), w->open_loop ? "open" : "closed", args.seed,
              kReps, tuples);

  // Each repetition streams its own inputs, derived from (seed, rep), so a
  // run's medians average over input sets as well as over repetitions.
  //
  // wait() returns at the sync throttle's first tick after the stream
  // drains, and the ticks keep start()'s phase.  Repetition i holds its
  // first tuple back by (i + 0.5) / kReps of a throttle period, so the
  // stream's end falls at kReps evenly spread phases of the tick and the
  // mean time_to_result_s moves with the drain time instead of jumping a
  // whole period when the drain crosses a tick.
  const double tick_s = w->sync_hz > 0.0 ? 1.0 / w->sync_hz : 0.0;
  std::vector<RepResult> reps;
  std::uint64_t hash = 1469598103934665603ull;
  for (int i = 0; i < kReps; ++i) {
    const Inputs in = make_inputs(*w, rep_seed(args.seed, i), tuples);
    hash = (hash ^ in.hash) * 1099511628211ull;
    std::printf("rep %d inputs fnv1a64=%016" PRIx64 " (%zu injected non-finite,"
                " %zu masked)\n",
                i, in.hash, in.injected, in.masked);
    reps.push_back(run_rep(*w, in, args.trace,
                           tick_s * (double(i) + 0.5) / double(kReps)));
    std::fflush(stdout);
  }
  std::printf("inputs fnv1a64=%016" PRIx64 " (all repetitions)\n", hash);

  // ---- self-checks ----
  std::vector<std::string> failures;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    const std::string tag = "rep " + std::to_string(i) + ": ";
    check(r.emitted == tuples, tag + "emitted != generated tuples");
    check(r.applied + r.quarantined == r.emitted,
          tag + "applied + quarantined != emitted");
    check(r.quarantined == r.injected && r.quarantined_nonfinite == r.injected,
          tag + "quarantined != injected non-finite tuples");
    if (w->tcp) {
      check(r.tcp.has_value() && r.tcp->accepted == r.tcp->acked + r.tcp->lossy_dropped &&
                r.tcp->lossy_dropped == 0,
            tag + "TCP uplink accepted != acked + lossy_dropped, or lossy > 0");
    }
    check(r.versions_monotone, tag + "served versions decreased");
    check(r.last_apply_seen, tag + "last apply not observed");
    if (w->open_loop) {
      check(r.source_late_ms_max <= kSourceLateLimitMs,
            tag + "source fell behind its schedule");
    }
    check(r.queries > 0, tag + "reader issued no queries");
    attempted += r.emitted + r.queries;
    failed += (r.emitted - std::min(r.emitted, r.applied + r.quarantined)) +
              r.queries_failed;
  }
  const double failed_frac = attempted > 0 ? double(failed) / double(attempted) : 1.0;

  check(across_reps(reps, [](auto& r) { return r.affinity; }) >=
            kAffinityFloor,
        "subspace_affinity below floor");

  // Each repetition's latency percentiles need >= 10 samples beyond p99.
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    for (const auto* v : {&r.ingest_lag_ms, &r.staleness_ms, &r.query_us}) {
      check(highest_supported_quantile(v->size()).value_or(0) >= 0.99,
            "rep " + std::to_string(i) + ": too few latency samples for p99");
    }
  }

  std::printf("%-4s %10s %8s %8s %8s %8s %8s %8s %8s %8s %7s %8s\n", "rep",
              "applied/s", "ttr_s", "cpu_us", "lag50ms", "lag99ms", "st50ms",
              "st99ms", "q50us", "q99us", "setupms", "affinity");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    std::printf("%-4zu %10.1f %8.4f %8.2f %8.3f %8.3f %8.2f %8.2f %8.2f %8.2f "
                "%7.3f %8.4f\n",
                i, r.applied_tps, r.time_to_result_s, r.cpu_us_per_tuple,
                percentile_sorted(r.ingest_lag_ms, 0.5),
                percentile_sorted(r.ingest_lag_ms, 0.99),
                percentile_sorted(r.staleness_ms, 0.5),
                percentile_sorted(r.staleness_ms, 0.99),
                percentile_sorted(r.query_us, 0.5),
                percentile_sorted(r.query_us, 0.99), r.setup_s * 1e3,
                r.affinity);
  }
  std::printf("latency distributions (pooled over reps):\n");
  print_distribution("ingest_lag", "ms", pooled(reps, &RepResult::ingest_lag_ms));
  print_distribution("staleness", "ms", pooled(reps, &RepResult::staleness_ms));
  print_distribution("query", "us", pooled(reps, &RepResult::query_us));

  // Latency metrics: each repetition's percentile, then their interquartile
  // mean; the p99 tails of the traced run take the best repetition.
  const auto rep_pct = [&](std::vector<double> RepResult::*field, double q) {
    return across_reps(reps, [&](const RepResult& r) {
      return percentile_sorted(r.*field, q);
    });
  };
  const auto best_rep_pct = [&](std::vector<double> RepResult::*field,
                                double q) {
    return best_rep(reps, [&](const RepResult& r) {
      return percentile_sorted(r.*field, q);
    });
  };
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"applied_tps", across_reps(reps, [](auto& r) { return r.applied_tps; }), "tuples/s"},
        {"time_to_result_s", mean_over_reps(reps, [](auto& r) { return r.time_to_result_s; }), "s"},
        {"cpu_us_per_tuple", across_reps(reps, [](auto& r) { return r.cpu_us_per_tuple; }), "us"},
        {"ingest_lag_ms_p50", rep_pct(&RepResult::ingest_lag_ms, 0.50), "ms"},
        {"staleness_ms_p50", rep_pct(&RepResult::staleness_ms, 0.50), "ms"},
        {"staleness_ms_p99", rep_pct(&RepResult::staleness_ms, 0.99), "ms"},
        {"subspace_affinity", across_reps(reps, [](auto& r) { return r.affinity; }), "1"},
        {"setup_s", across_reps(reps, [](auto& r) { return r.setup_s; }), "s"},
        {"peak_rss_mb", across_reps(reps, [](auto& r) { return r.peak_rss_mb; }), "MB"},
    };
    std::printf("failed_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n", failed_frac,
                failed, attempted);
    std::printf("diagnostic: split enqueue rate (throughput()) %.6g tuples/s"
                " vs applied %.6g tuples/s\n",
                across_reps(reps, [](auto& r) { return r.split_enqueue_tps; }),
                metrics[0].value);
  } else {
    const std::vector<Metric> layers = time_layers(
        *w, make_inputs(*w, rep_seed(args.seed, 0), tuples), make_config(*w).pca);
    metrics = layers;
    for (auto& m : registry_metrics(reps)) metrics.push_back(std::move(m));
    double late_max = 0.0;
    for (const auto& r : reps) late_max = std::max(late_max, r.source_late_ms_max);
    const double traced_tps = across_reps(reps, [](auto& r) { return r.applied_tps; });
    metrics.insert(metrics.end(), {
        {"stream.ingest_lag_ms_p99", best_rep_pct(&RepResult::ingest_lag_ms, 0.99), "ms"},
        {"serve.query_us_p50", rep_pct(&RepResult::query_us, 0.50), "us"},
        {"serve.query_us_p99", best_rep_pct(&RepResult::query_us, 0.99), "us"},
        {"stream.source_late_ms_max", late_max, "ms"},
        {"serve.versions_per_s", across_reps(reps, [](auto& r) { return r.versions_per_s; }), "1/s"},
        {"app.shutdown_s", across_reps(reps, [](auto& r) { return r.shutdown_s; }), "s"},
        {"app.allocs_per_tuple",
         across_reps(reps, [](auto& r) { return r.allocs_per_tuple.value_or(0.0); }), "count"},
        {"app.split_enqueue_tps",
         across_reps(reps, [](auto& r) { return r.split_enqueue_tps; }), "tuples/s"},
        {"trace_overhead_frac",
         args.untraced_applied_tps > 0 ? 1.0 - traced_tps / args.untraced_applied_tps : 0.0,
         "1"},
    });

    // accounted_frac: the per-tuple costs of the layers on the data path,
    // from the standalone timings, over the untraced CPU per tuple.
    double applied = 0, merges = 0, versions = 0;
    for (const auto& r : reps) {
      applied += double(r.applied);
      versions += r.versions_per_s * r.time_to_result_s;
      for (const auto& op : r.registry.operators) {
        if (starts_with(op.name, "pca-")) merges += extra(op, "merges_applied");
      }
    }
    const double merge_us = find(layers, "sync.merge_us");
    double per_tuple_us = find(layers, "spectra.validate_ns") / 1e3 +
                          1e6 / find(layers, "pca.replay_tps");
    if (w->tcp) {
      per_tuple_us += (find(layers, "io.encode_ns") + find(layers, "io.decode_ns")) / 1e3;
    }
    if (applied > 0) {
      // Sync merges, and per publish the publisher's merge (two or more
      // engines) plus the publish itself.
      const double publish_us =
          (w->engines > 1 ? merge_us : 0.0) + find(layers, "serve.publish_us");
      per_tuple_us += (merges * merge_us + versions * publish_us) / applied;
    }
    metrics.push_back(
        {"accounted_frac",
         args.untraced_cpu_us > 0 ? per_tuple_us / args.untraced_cpu_us : 0.0, "1"});
  }

  std::printf("metrics:\n");
  for (const auto& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("checks: %s\n", failures.empty() ? "all passed" : "FAILED");
  for (const auto& f : failures) std::printf("  FAILED %s\n", f.c_str());

  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
