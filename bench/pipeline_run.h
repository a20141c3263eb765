#pragma once

// Shared by the benches that run the real pipeline (fig6_scaling,
// transport_stream): the end-to-end applied rate and the conservation
// abort, so both gate the same quantity measured the same way.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "app/pipeline.h"

namespace astro::bench {

/// Aborts unless every tuple the source emitted was applied by an engine
/// or quarantined by the ingest gate: otherwise the rates a bench reports
/// describe a different stream than the one emitted.
inline void require_conservation(const app::StreamingPcaPipeline& p,
                                 const char* bench) {
  std::uint64_t applied = 0;
  for (const auto& s : p.engine_stats()) applied += s.tuples;
  const std::uint64_t quarantined =
      p.validator() != nullptr ? p.validator()->quarantined() : 0;
  const auto snap = p.metrics_registry().snapshot();
  const auto* source = snap.find_operator("source");
  const std::uint64_t emitted = source != nullptr ? source->tuples_out : 0;
  if (applied + quarantined != emitted) {
    std::fprintf(stderr,
                 "%s: conservation violated: applied %llu + quarantined "
                 "%llu != emitted %llu\n",
                 bench, static_cast<unsigned long long>(applied),
                 static_cast<unsigned long long>(quarantined),
                 static_cast<unsigned long long>(emitted));
    std::abort();
  }
}

struct AppliedTiming {
  double applied_tps = 0.0;       ///< applied / (start -> last apply)
  double time_to_result_s = 0.0;  ///< start -> wait() returned
};

/// Runs `p` to completion and times it end to end.  First emit is taken
/// at start(): the replay source is unpaced and emits as soon as its
/// thread runs.  The last apply is when a 200 us poll of engine_stats()
/// first reads the final applied count.  Each poll allocates and takes the
/// engines' state locks, so allocation-counting runs use p.run() instead.
inline AppliedTiming run_timed(app::StreamingPcaPipeline& p) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t applied = 0;
  Clock::time_point last_apply{};
  const auto t_start = Clock::now();
  p.start();
  std::jthread poller([&](std::stop_token st) {
    for (;;) {
      const bool last = st.stop_requested();
      std::uint64_t sum = 0;
      for (const auto& s : p.engine_stats()) sum += s.tuples;
      if (sum != applied) {
        applied = sum;
        last_apply = Clock::now();
      }
      if (last) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  p.wait();
  const auto t_done = Clock::now();
  poller.request_stop();
  poller.join();
  const auto secs = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t_start).count();
  };
  AppliedTiming r;
  r.applied_tps = double(applied) / secs(std::min(last_apply, t_done));
  r.time_to_result_s = secs(t_done);
  return r;
}

}  // namespace astro::bench
