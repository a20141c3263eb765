#include "io/tuple_log.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "io/frame.h"

namespace astro::io {

void write_tuple_log(std::ostream& out,
                     const std::vector<stream::DataTuple>& tuples) {
  for (const auto& t : tuples) {
    const auto frame = encode_tuple(t);
    out.write(reinterpret_cast<const char*>(frame.data()),
              std::streamsize(frame.size()));
  }
  if (!out) throw std::runtime_error("write_tuple_log: write failed");
}

void write_tuple_log_file(const std::string& path,
                          const std::vector<stream::DataTuple>& tuples) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_tuple_log_file: cannot open " + path);
  write_tuple_log(out, tuples);
}

namespace {

// Reads one frame; returns nullopt at clean EOF, throws on corruption.
std::optional<stream::DataTuple> read_one_frame(std::istream& in) {
  std::vector<std::uint8_t> header(kFrameHeaderBytes);
  in.read(reinterpret_cast<char*>(header.data()),
          std::streamsize(header.size()));
  if (in.gcount() == 0 && in.eof()) return std::nullopt;  // clean EOF
  if (std::size_t(in.gcount()) != header.size()) {
    throw std::runtime_error("tuple log: truncated frame header");
  }
  const auto head = decode_frame_header(header);
  if (!head.has_value() || head->type != FrameType::kTuple) {
    throw std::runtime_error("tuple log: bad frame header");
  }
  std::vector<std::uint8_t> payload(head->payload_bytes);
  in.read(reinterpret_cast<char*>(payload.data()),
          std::streamsize(payload.size()));
  if (std::size_t(in.gcount()) != payload.size()) {
    throw std::runtime_error("tuple log: truncated frame payload");
  }
  if (!verify_frame_crc(header, payload)) {
    throw std::runtime_error("tuple log: frame CRC mismatch");
  }
  auto tuple = decode_tuple_payload(payload);
  if (!tuple.has_value()) throw std::runtime_error("tuple log: bad payload");
  return tuple;
}

}  // namespace

std::vector<stream::DataTuple> read_tuple_log(std::istream& in) {
  std::vector<stream::DataTuple> out;
  while (auto t = read_one_frame(in)) out.push_back(std::move(*t));
  return out;
}

std::vector<stream::DataTuple> read_tuple_log_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_tuple_log_file: cannot open " + path);
  return read_tuple_log(in);
}

TupleLogSource::TupleLogSource(std::string name, std::string path,
                               stream::ChannelPtr<stream::DataTuple> out,
                               double max_rate)
    : Operator(std::move(name)),
      path_(std::move(path)),
      out_(std::move(out)),
      max_rate_(max_rate) {}

void TupleLogSource::run() {
  using Clock = std::chrono::steady_clock;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    out_->close();
    set_stop_reason(stream::StopReason::kRequested);
    return;
  }
  const auto started = Clock::now();
  std::uint64_t emitted = 0;
  while (!stop_requested()) {
    std::optional<stream::DataTuple> t;
    try {
      t = read_one_frame(in);
    } catch (const std::runtime_error&) {
      metrics_.record_dropped();  // corrupt tail: stop replaying
      break;
    }
    if (!t.has_value()) break;
    if (max_rate_ > 0.0) {
      const auto due =
          started + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(double(emitted) /
                                                      max_rate_));
      if (wait_until_stopped(due)) break;
    }
    const std::size_t bytes = t->wire_bytes();
    if (!out_->push(std::move(*t))) break;
    ++emitted;
    metrics_.record_out(bytes);
  }
  out_->close();
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

TupleLogSink::TupleLogSink(std::string name, std::string path,
                           stream::ChannelPtr<stream::DataTuple> in)
    : Operator(std::move(name)), path_(std::move(path)), in_(std::move(in)) {}

void TupleLogSink::run() {
  std::ofstream out(path_, std::ios::binary);
  stream::DataTuple t;
  while (!stop_requested() && in_->pop(t)) {
    metrics_.record_in(t.wire_bytes());
    if (!out) {
      metrics_.record_dropped();
      continue;  // drain the channel even if the disk is gone
    }
    const auto frame = encode_tuple(t);
    out.write(reinterpret_cast<const char*>(frame.data()),
              std::streamsize(frame.size()));
    metrics_.record_out(frame.size());
  }
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

}  // namespace astro::io
