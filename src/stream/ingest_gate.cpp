#include "stream/ingest_gate.h"

#include <utility>

namespace astro::stream {

IngestGate::IngestGate(Recorder<DeadLetter>* dead_letters,
                       spectra::ValidationPolicy policy, TupleArena* arena)
    : dead_letters_(dead_letters), policy_(policy), arena_(arena) {}

bool IngestGate::admit(DataTuple& t) {
  const std::uint64_t t0 = OperatorMetrics::now_ns();
  metrics_.record_in(t.wire_bytes());
  const spectra::ValidationOutcome outcome =
      spectra::validate_and_repair(t.values, t.mask, policy_);
  metrics_.record_proc_ns(OperatorMetrics::now_ns() - t0);

  if (!outcome.ok()) {
    quarantine(t, outcome.reason);
    return false;
  }
  if (outcome.repaired) {
    repaired_.fetch_add(1, std::memory_order_relaxed);
    repaired_pixels_.fetch_add(outcome.repaired_pixels,
                               std::memory_order_relaxed);
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  metrics_.record_out(t.wire_bytes());
  return true;
}

void IngestGate::quarantine(DataTuple& t, spectra::RejectReason reason) {
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  by_reason_[std::size_t(reason)].fetch_add(1, std::memory_order_relaxed);
  DeadLetter letter{std::move(t), reason};
  if (dead_letters_ != nullptr) {
    dead_letters_->record(letter, letter.tuple.wire_bytes());
  }
  // The recorder keeps a copy: the slab goes back to the pool.
  if (arena_) arena_->release(letter.tuple);
}

}  // namespace astro::stream
