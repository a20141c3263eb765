#pragma once

// Stream sources (paper §III-A.1): generator-backed for synthetic testing,
// replay of an in-memory dataset, or any callable producing observations.
// File/CSV-backed sources live in io/ (they layer on GeneratorSource).
//
// A source emits into a DataEdge: a queue, or the fused split, which then
// validates and routes each tuple on the source's own thread.

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "stream/operator.h"
#include "stream/split.h"
#include "stream/tuple_arena.h"

namespace astro::stream {

/// One generated observation: the vector plus an optional pixel mask
/// (empty = fully observed).
struct SourceItem {
  linalg::Vector values;
  pca::PixelMask mask;
};

/// The run loop every source shares: pace, stamp, lease, fill, emit.  A
/// source supplies next(); the loop owns the edge, the clock and the arena.
class Source : public Operator {
 public:
  /// Wires the payload arena (may be null = heap payloads).  Each emitted
  /// tuple then carries a leased slab: the observation is copied into
  /// pooled buffers (a capacity-reusing copy), so the payload the pipeline
  /// recycles is the arena's, not a fresh heap object per tuple.  Call
  /// before start().
  void set_arena(TupleArena* arena) noexcept { arena_ = arena; }

 protected:
  Source(std::string name, DataEdge out, double max_rate)
      : Operator(std::move(name)), out_(std::move(out)), max_rate_(max_rate) {}

  void run() final;
  /// Fills observation `seq` into `t` (payload already leased when an
  /// arena is wired); false ends the stream.
  virtual bool next(std::uint64_t seq, DataTuple& t) = 0;

  TupleArena* arena_ = nullptr;  // non-owning; null = heap payloads

 private:
  DataEdge out_;
  double max_rate_;  // tuples/s; 0 = unthrottled
};

/// Produces DataTuples from a generator callable.  The generator returns
/// std::nullopt to end the stream.  An optional rate limit (tuples/second)
/// paces emission — used to model instrument ingestion rates.
class GeneratorSource final : public Source {
 public:
  using Generator = std::function<std::optional<linalg::Vector>()>;
  using MaskedGenerator = std::function<std::optional<SourceItem>()>;

  GeneratorSource(std::string name, Generator gen, DataEdge out,
                  double max_rate = 0.0)
      : GeneratorSource(std::move(name), wrap(std::move(gen)), std::move(out),
                        max_rate) {}

  /// Gap-aware variant for workloads with missing pixels (§II-D).
  GeneratorSource(std::string name, MaskedGenerator gen, DataEdge out,
                  double max_rate = 0.0)
      : Source(std::move(name), std::move(out), max_rate),
        gen_(std::move(gen)) {}

  /// A fully observed generator as a masked one (empty masks).
  static MaskedGenerator wrap(Generator gen) {
    return [gen = std::move(gen)]() -> std::optional<SourceItem> {
      auto v = gen();
      if (!v.has_value()) return std::nullopt;
      return SourceItem{std::move(*v), {}};
    };
  }

 private:
  bool next(std::uint64_t seq, DataTuple& t) override;

  MaskedGenerator gen_;
};

/// Replays a fixed dataset (optionally with per-observation masks), in
/// order.  Useful for deterministic integration tests and the examples.
/// `max_rate` > 0 paces emission (tuples/second).
class ReplaySource final : public Source {
 public:
  ReplaySource(std::string name, std::vector<linalg::Vector> data,
               DataEdge out, double max_rate = 0.0)
      : Source(std::move(name), std::move(out), max_rate),
        data_(std::move(data)) {}

  ReplaySource(std::string name, std::vector<linalg::Vector> data,
               std::vector<pca::PixelMask> masks, DataEdge out,
               double max_rate = 0.0)
      : Source(std::move(name), std::move(out), max_rate),
        data_(std::move(data)),
        masks_(std::move(masks)) {}

 private:
  bool next(std::uint64_t seq, DataTuple& t) override;

  std::vector<linalg::Vector> data_;
  std::vector<pca::PixelMask> masks_;
};

}  // namespace astro::stream
