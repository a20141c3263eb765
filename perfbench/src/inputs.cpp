#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "spectra/generator.h"
#include "stats/rng.h"

namespace perfbench {

namespace {

// Distinct spectra per run; the stream cycles through them.  Bounds the
// input memory at 16 MB (d = 250) whatever the stream length.
constexpr std::size_t kPoolSize = 8192;
constexpr std::size_t kHeldOut = 256;

const WorkloadSpec kWorkloads[] = {
    // Closed loop at the paper's Fig. 6 point: d = 250, p = 10, q = 2,
    // redshift gaps, ~2% outlier spectra, ~1% non-finite tuples, two
    // engines with ring sync at 2 Hz.
    {.name = "ingest_batch",
     .open_loop = false,
     .rate = 24000.0,
     .dim = 250,
     .rank = 10,
     .extra_rank = 2,
     .components = 5,
     .max_redshift = 0.15,
     .engines = 2,
     .sync_hz = 2.0,
     .tcp = false,
     .publish_s = 0.25,
     .query_hz = 1500.0},
    // Open loop, same spectra, paced at about a third of ingest_batch's
    // applied rate; serving publishes every 50 ms and one reader queries.
    {.name = "serve_live",
     .open_loop = true,
     .rate = 10000.0,
     .dim = 250,
     .rank = 10,
     .extra_rank = 2,
     .components = 5,
     .max_redshift = 0.15,
     .engines = 2,
     .sync_hz = 2.0,
     .tcp = false,
     .publish_s = 0.05,
     .query_hz = 3000.0},
    // Open loop below capacity at d = 64, p = 4, one engine, no sync, the
    // data plane behind the TCP loopback session transport.
    {.name = "transport_tcp",
     .open_loop = true,
     .rate = 20000.0,
     .dim = 64,
     .rank = 4,
     .extra_rank = 0,
     .components = 4,
     .max_redshift = 0.0,
     .engines = 1,
     .sync_hz = 0.0,
     .tcp = true,
     .publish_s = 0.25,
     .query_hz = 1000.0},
};

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  void vec(const astro::linalg::Vector& v) {
    value(v.size());
    bytes(v.data(), v.size() * sizeof(double));
  }
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void Inputs::fill(std::size_t k, astro::linalg::Vector& values,
                  astro::pca::PixelMask& mask) const {
  const std::size_t i = k % pool_flux.size();
  values = pool_flux[i];
  mask = pool_mask[i];
  if (poison[k] >= 0) {
    values[std::size_t(poison[k])] = std::numeric_limits<double>::quiet_NaN();
  }
}

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * std::uint64_t(rep + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed,
                   std::size_t tuples) {
  Inputs in;
  in.tuples = tuples;

  astro::spectra::SpectraConfig sc;
  sc.pixels = w.dim;
  sc.components = w.components;
  sc.max_redshift = w.max_redshift;
  sc.outlier_fraction = kOutlierFraction;
  sc.seed = seed;
  astro::spectra::GalaxySpectrumGenerator gen(sc);
  in.true_basis = gen.true_basis();

  const std::size_t pool = std::min(kPoolSize, std::max<std::size_t>(tuples, 1));
  in.pool_flux.reserve(pool);
  in.pool_mask.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    auto s = gen.next();
    in.pool_flux.push_back(std::move(s.flux));
    in.pool_mask.push_back(std::move(s.mask));
  }
  for (std::size_t i = 0; i < kHeldOut; ++i) {
    in.held_out.push_back(gen.next_clean_flux());
  }

  // Poison: a NaN in the blue half of the spectrum, which redshift never
  // masks, so validation must quarantine the tuple as non-finite.
  astro::stats::Rng rng(seed ^ 0x5eedba5eull);
  in.poison.assign(tuples, -1);
  for (std::size_t k = 0; k < tuples; ++k) {
    if (rng.bernoulli(kNonFiniteFraction)) {
      in.poison[k] = std::int32_t(rng.index(w.dim / 2));
      ++in.injected;
    } else {
      in.accepted_index.push_back(k);
    }
    if (!in.pool_mask[k % pool].empty()) ++in.masked;
  }

  Fnv1a h;
  h.value(tuples);
  for (std::size_t i = 0; i < pool; ++i) {
    h.vec(in.pool_flux[i]);
    h.value(in.pool_mask[i].size());
    for (const bool b : in.pool_mask[i]) h.value(b);
  }
  h.bytes(in.poison.data(), in.poison.size() * sizeof(std::int32_t));
  for (const auto& q : in.held_out) h.vec(q);
  in.hash = h.h;
  return in;
}

}  // namespace perfbench
