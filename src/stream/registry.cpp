#include "stream/registry.h"

#include <algorithm>
#include <cstdio>

namespace astro::stream {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_field(std::string& out, const char* key, std::uint64_t v,
                  bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  append_u64(out, v);
  if (comma) out += ',';
}

// Histogram JSON: summary stats plus the non-empty log2 buckets as
// [bucket_index, count] pairs (bucket b >= 1 covers [2^(b-1), 2^b) ns).
void append_histogram(std::string& out, const char* key,
                      const HistogramSnapshot& h) {
  out += '"';
  out += key;
  out += "\":{";
  append_field(out, "count", h.total);
  append_field(out, "sum_ns", h.sum);
  append_field(out, "min_ns", h.min);
  append_field(out, "max_ns", h.max);
  out += "\"mean_ns\":";
  append_number(out, h.mean());
  out += ",\"p50_ns\":";
  append_number(out, h.p50());
  out += ",\"p95_ns\":";
  append_number(out, h.p95());
  out += ",\"p99_ns\":";
  append_number(out, h.p99());
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    append_u64(out, b);
    out += ',';
    append_u64(out, h.counts[b]);
    out += ']';
  }
  out += "]}";
}

}  // namespace

const OperatorSnapshot* RegistrySnapshot::find_operator(
    const std::string& name) const {
  for (const auto& op : operators) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const QueueSnapshot* RegistrySnapshot::find_queue(
    const std::string& name) const {
  for (const auto& q : queues) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

std::string RegistrySnapshot::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\"timestamp_ns\":";
  append_u64(out, std::uint64_t(timestamp_ns));
  out += ",\"operators\":[";
  for (std::size_t i = 0; i < operators.size(); ++i) {
    const OperatorSnapshot& op = operators[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_escaped(out, op.name);
    out += ',';
    append_field(out, "tuples_in", op.tuples_in);
    append_field(out, "tuples_out", op.tuples_out);
    append_field(out, "bytes_in", op.bytes_in);
    append_field(out, "bytes_out", op.bytes_out);
    append_field(out, "dropped", op.dropped);
    out += "\"elapsed_seconds\":";
    append_number(out, op.elapsed_seconds);
    out += ",\"throughput\":";
    append_number(out, op.throughput);
    out += ',';
    append_histogram(out, "proc_ns", op.proc_ns);
    out += ',';
    append_histogram(out, "push_wait_ns", op.push_wait_ns);
    out += ',';
    append_histogram(out, "pop_wait_ns", op.pop_wait_ns);
    if (!op.extras.empty()) {
      out += ",\"extras\":{";
      for (std::size_t e = 0; e < op.extras.size(); ++e) {
        if (e) out += ',';
        append_escaped(out, op.extras[e].first);
        out += ':';
        append_number(out, op.extras[e].second);
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"queues\":[";
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const QueueSnapshot& q = queues[i];
    if (i) out += ',';
    out += "{\"name\":";
    append_escaped(out, q.name);
    out += ',';
    append_field(out, "depth", q.depth);
    append_field(out, "capacity", q.capacity);
    append_field(out, "high_watermark", q.high_watermark);
    append_field(out, "pushed", q.pushed);
    append_field(out, "popped", q.popped);
    append_field(out, "rejected", q.rejected);
    append_field(out, "faulted", q.faulted);
    append_field(out, "delayed", q.delayed);
    append_field(out, "corrupted", q.corrupted);
    append_field(out, "push_blocked", q.push_blocked);
    append_field(out, "pop_blocked", q.pop_blocked);
    append_histogram(out, "push_blocked_ns", q.push_blocked_ns);
    out += ',';
    append_histogram(out, "pop_blocked_ns", q.pop_blocked_ns);
    out += '}';
  }
  out += "]}";
  return out;
}

void MetricsRegistry::add_operator(std::string name,
                                   const OperatorMetrics* metrics,
                                   Extras extras, const void* owner) {
  std::lock_guard lock(mutex_);
  ops_.push_back(OpEntry{std::move(name), metrics, std::move(extras), owner});
}

void MetricsRegistry::add_queue_gauges(std::string name,
                                       const QueueGauges* gauges,
                                       const void* owner) {
  std::lock_guard lock(mutex_);
  queues_.push_back(QueueEntry{std::move(name), gauges, owner});
}

void MetricsRegistry::remove_owner(const void* owner) {
  std::lock_guard lock(mutex_);
  std::erase_if(ops_, [owner](const OpEntry& e) { return e.owner == owner; });
  std::erase_if(queues_,
                [owner](const QueueEntry& e) { return e.owner == owner; });
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mutex_);
  ops_.clear();
  queues_.clear();
}

std::size_t MetricsRegistry::operator_count() const {
  std::lock_guard lock(mutex_);
  return ops_.size();
}

std::size_t MetricsRegistry::queue_count() const {
  std::lock_guard lock(mutex_);
  return queues_.size();
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  RegistrySnapshot s;
  s.timestamp_ns = std::int64_t(OperatorMetrics::now_ns());
  s.operators.reserve(ops_.size());
  for (const OpEntry& e : ops_) {
    OperatorSnapshot op;
    op.name = e.name;
    op.tuples_in = e.metrics->tuples_in();
    op.tuples_out = e.metrics->tuples_out();
    op.bytes_in = e.metrics->bytes_in();
    op.bytes_out = e.metrics->bytes_out();
    op.dropped = e.metrics->dropped();
    op.elapsed_seconds = e.metrics->elapsed_seconds();
    op.throughput = e.metrics->throughput();
    op.proc_ns = e.metrics->proc_histogram().snapshot();
    op.push_wait_ns = e.metrics->push_wait_histogram().snapshot();
    op.pop_wait_ns = e.metrics->pop_wait_histogram().snapshot();
    if (e.extras) op.extras = e.extras();
    s.operators.push_back(std::move(op));
  }
  s.queues.reserve(queues_.size());
  for (const QueueEntry& e : queues_) {
    QueueSnapshot q;
    q.name = e.name;
    q.depth = e.gauges->depth.load(std::memory_order_relaxed);
    q.capacity = e.gauges->capacity;
    q.high_watermark = e.gauges->high_watermark.load(std::memory_order_relaxed);
    q.pushed = e.gauges->pushed.load(std::memory_order_relaxed);
    q.popped = e.gauges->popped.load(std::memory_order_relaxed);
    q.rejected = e.gauges->rejected.load(std::memory_order_relaxed);
    q.faulted = e.gauges->faulted.load(std::memory_order_relaxed);
    q.delayed = e.gauges->delayed.load(std::memory_order_relaxed);
    q.corrupted = e.gauges->corrupted.load(std::memory_order_relaxed);
    q.push_blocked = e.gauges->push_blocked.load(std::memory_order_relaxed);
    q.pop_blocked = e.gauges->pop_blocked.load(std::memory_order_relaxed);
    q.push_blocked_ns = e.gauges->push_blocked_ns.snapshot();
    q.pop_blocked_ns = e.gauges->pop_blocked_ns.snapshot();
    s.queues.push_back(std::move(q));
  }
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace astro::stream
