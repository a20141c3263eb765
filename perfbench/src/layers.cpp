#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>

#include "io/frame.h"
#include "linalg/svd.h"
#include "pca/merge.h"
#include "serve/snapshot_server.h"
#include "spectra/validate.h"
#include "stats.h"
#include "stream/tuple.h"

namespace perfbench {

namespace {

using astro::linalg::Matrix;
using astro::linalg::Vector;
using Clock = std::chrono::steady_clock;

// Results flow here so the compiler cannot drop the timed calls.
std::atomic<std::uint64_t> g_sink{0};

double elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return double(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                    .count());
}

constexpr std::size_t kBatch = 4096;      // tuples per throughput pass
constexpr int kPasses = 5;                // passes; the median is reported
constexpr std::size_t kReplayCap = 16000; // single-thread replay length
constexpr int kCalls = 300;               // per-call timing samples

/// Median over passes of (pass time / items) for `body` run over `items`.
template <typename Prepare, typename Body>
double per_item_ns(std::size_t items, Prepare prepare, Body body) {
  std::vector<double> passes;
  for (int p = 0; p < kPasses; ++p) {
    prepare();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < items; ++i) body(i);
    passes.push_back(elapsed_ns(t0, Clock::now()) / double(items));
  }
  return median(passes);
}

/// Median of `kCalls` individually timed calls, in ns.
template <typename Body>
double per_call_ns(Body body) {
  for (int i = 0; i < 10; ++i) body(i);  // warm caches and lazy state
  std::vector<double> samples;
  samples.reserve(kCalls * 10);
  for (int i = 0; i < kCalls * 10; ++i) {
    const auto t0 = Clock::now();
    body(i);
    samples.push_back(elapsed_ns(t0, Clock::now()));
  }
  return median(samples);
}

}  // namespace

std::vector<Metric> time_layers(const WorkloadSpec& w, const Inputs& in,
                                const astro::pca::RobustPcaConfig& pca_config) {
  std::vector<Metric> out;
  const auto add = [&](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  astro::spectra::ValidationPolicy policy;
  policy.expected_dim = w.dim;
  policy.nonfinite_as_masked = false;
  std::uint64_t sink = 0;  // keeps results observable

  // spectra: validate_and_repair per tuple, on the stream's first tuples.
  const std::size_t m = std::min(kBatch, in.tuples);
  {
    std::vector<Vector> xs(m);
    std::vector<astro::pca::PixelMask> masks(m);
    const auto refill = [&] {
      for (std::size_t k = 0; k < m; ++k) in.fill(k, xs[k], masks[k]);
    };
    add("spectra.validate_ns",
        per_item_ns(m, refill,
                    [&](std::size_t k) {
                      sink += std::uint64_t(astro::spectra::validate_and_repair(
                                                xs[k], masks[k], policy)
                                                .reason);
                    }),
        "ns");
  }

  // pca: single-thread replay of the accepted tuples, in stream order.
  astro::pca::RobustIncrementalPca pca(pca_config);
  astro::pca::EigenSystem half;
  {
    const std::size_t n = std::min(kReplayCap, in.accepted_index.size());
    std::vector<double> us;
    us.reserve(n);
    Vector x;
    astro::pca::PixelMask mask;
    double total_ns = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      in.fill(in.accepted_index[i], x, mask);
      (void)astro::spectra::validate_and_repair(x, mask, policy);
      const auto t0 = Clock::now();
      const auto rep = mask.empty() ? pca.observe(x) : pca.observe(x, mask);
      const double ns = elapsed_ns(t0, Clock::now());
      sink += rep.outlier ? 1 : 0;
      total_ns += ns;
      us.push_back(ns / 1e3);
      if (i == n / 2) half = pca.eigensystem();
    }
    std::sort(us.begin(), us.end());
    add("pca.observe_us_p50", percentile_sorted(us, 0.50), "us");
    add("pca.observe_us_p99", percentile_sorted(us, 0.99), "us");
    add("pca.replay_tps", double(n) / (total_ns / 1e9), "tuples/s");
  }
  const astro::pca::EigenSystem& full = pca.eigensystem();

  // linalg: the update's d x (p+q+1) decomposition, shaped like the real
  // one: scaled basis columns plus one centered observation.
  {
    const std::size_t r = full.rank();
    Matrix a(w.dim, r + 1);
    for (std::size_t c = 0; c < r; ++c) {
      const double s = std::sqrt(std::max(full.eigenvalues()[c], 0.0));
      for (std::size_t i = 0; i < w.dim; ++i) a(i, c) = full.basis()(i, c) * s;
    }
    for (std::size_t i = 0; i < w.dim; ++i) {
      a(i, r) = in.held_out[0][i] - full.mean()[i];
    }
    astro::linalg::SvdWorkspace ws;
    Matrix u;
    Vector s;
    add("linalg.svd_us", per_call_ns([&](int) {
          astro::linalg::svd_left_inplace(a, ws, {&u, &s});
          sink += std::uint64_t(s[0] > 0.0);
        }) / 1e3,
        "us");
  }

  // sync: merge of two engine-sized systems (the publisher's merge).
  add("sync.merge_us", per_call_ns([&](int) {
        sink += astro::pca::merge(half, full).rank();
      }) / 1e3,
      "us");

  // io: frame encode / CRC-checked decode of the stream's tuples.
  {
    std::vector<astro::stream::DataTuple> tuples(m);
    std::vector<std::vector<std::uint8_t>> frames(m);
    for (std::size_t k = 0; k < m; ++k) {
      tuples[k].seq = k;
      in.fill(k, tuples[k].values, tuples[k].mask);
      frames[k].resize(astro::io::encoded_tuple_bytes(tuples[k]));
    }
    add("io.encode_ns", per_item_ns(m, [] {}, [&](std::size_t k) {
          sink += astro::io::encode_tuple_into(frames[k], tuples[k], k);
        }),
        "ns");
    astro::stream::DataTuple decoded;
    add("io.decode_ns", per_item_ns(m, [] {}, [&](std::size_t k) {
          const std::span<const std::uint8_t> f(frames[k]);
          const auto header = f.first(astro::io::kFrameHeaderBytes);
          const auto payload = f.subspan(astro::io::kFrameHeaderBytes);
          sink += astro::io::verify_frame_crc(header, payload) &&
                  astro::io::decode_tuple_payload_into(payload, decoded);
        }),
        "ns");
  }

  // serve: call -> return of each query kind against one published
  // version, and the publish itself.
  {
    astro::serve::SnapshotServer server;
    server.publish(full, -1, 0);
    astro::serve::QueryWorkspace qws;
    astro::serve::ProjectionResult pr;
    astro::serve::ResidualResult rr;
    std::shared_ptr<const astro::serve::TopKResult> tk;
    const std::size_t h = in.held_out.size();
    const std::size_t k = std::min<std::size_t>(5, full.rank());
    add("serve.project_ns_p50", per_call_ns([&](int i) {
          sink += int(server.project(in.held_out[i % h], qws, pr));
        }),
        "ns");
    add("serve.residual_ns_p50", per_call_ns([&](int i) {
          sink += int(server.residual_score(in.held_out[i % h], qws, rr));
        }),
        "ns");
    add("serve.topk_ns_p50", per_call_ns([&](int) {
          sink += int(server.top_k_components(k, tk));
        }),
        "ns");
    std::vector<astro::pca::EigenSystem> copies(kCalls, full);
    std::vector<double> us;
    for (auto& c : copies) {
      const auto t0 = Clock::now();
      sink += server.publish(std::move(c), -1, 0);
      us.push_back(elapsed_ns(t0, Clock::now()) / 1e3);
    }
    add("serve.publish_us", median(us), "us");
  }

  g_sink.fetch_add(sink, std::memory_order_relaxed);
  return out;
}

}  // namespace perfbench
