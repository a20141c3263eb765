#include "stream/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>

#include "io/frame.h"

namespace astro::stream {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr int kPollSliceMs = 50;

/// Poll-driven write of a whole frame with a deadline; honors `stopped`
/// within one poll slice.  No fault injection (server side).
bool write_frame_plain(int fd, std::span<const std::uint8_t> frame,
                       milliseconds timeout,
                       const std::function<bool()>& stopped) {
  std::size_t off = 0;
  const auto deadline = Clock::now() + timeout;
  while (off < frame.size()) {
    if (stopped() || Clock::now() >= deadline) return false;
    pollfd p{fd, POLLOUT, 0};
    const int pr = ::poll(&p, 1, kPollSliceMs);
    if (pr < 0) return false;
    if (pr == 0) continue;
    const ssize_t w =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return false;
    }
    off += std::size_t(w);
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpTupleServer
// ---------------------------------------------------------------------------

TcpTupleServer::TcpTupleServer(std::string name, std::uint16_t port,
                               ChannelPtr<DataTuple> out,
                               std::size_t max_connections,
                               TcpServerOptions options)
    : Operator(std::move(name)),
      out_(std::move(out)),
      max_connections_(max_connections),
      options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTupleServer: socket()");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTupleServer: bind() failed");
  }
  if (::listen(listen_fd_, 4) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpTupleServer: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpTupleServer::~TcpTupleServer() {
  join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::uint64_t TcpTupleServer::ack_value() const {
  if (!applied_watermark_) return applied_;
  return std::min(applied_, applied_watermark_());
}

bool TcpTupleServer::send_ack(int fd, bool force) {
  const std::uint64_t value = ack_value();
  if (!force && value <= last_ack_sent_) return true;
  const auto frame = io::encode_control_frame(io::FrameType::kAck, value);
  const auto stopped = [this] { return stop_requested(); };
  if (!write_frame_plain(fd, frame, options_.write_timeout, stopped)) {
    return false;
  }
  acks_sent_.fetch_add(1, std::memory_order_relaxed);
  last_ack_sent_ = std::max(last_ack_sent_, value);
  return true;
}

void TcpTupleServer::quarantine_frame(std::uint64_t seq) {
  if (!dlq_) return;
  // The frame failed its CRC, so nothing in it can be trusted except its
  // arrival: quarantine a husk carrying the claimed transport seq for
  // forensics.  Non-blocking — a full DLQ must not stall the receive loop.
  DeadLetter dl;
  dl.tuple.seq = seq;
  dl.reason = spectra::RejectReason::kCorruptFrame;
  if (dlq_->try_push(dl)) {
    dead_letters_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dead_letter_overflow_.fetch_add(1, std::memory_order_relaxed);
  }
}

TcpTupleServer::FrameOutcome TcpTupleServer::handle_frame(
    int fd, const std::uint8_t* frame, std::size_t frame_bytes) {
  const std::span<const std::uint8_t> header(frame, io::kFrameHeaderBytes);
  const std::span<const std::uint8_t> payload(
      frame + io::kFrameHeaderBytes, frame_bytes - io::kFrameHeaderBytes);
  const auto h = io::decode_frame_header(header);
  if (!h) return FrameOutcome::kConnectionDone;  // caller pre-validated
  if (!io::verify_frame_crc(header, payload)) {
    // Damaged in flight.  Never applied, never acked: the sender's window
    // still holds it and replays it on session resume, so a CRC reject
    // costs a retransmit, not a tuple.
    crc_rejects_.fetch_add(1, std::memory_order_relaxed);
    metrics_.record_dropped();
    quarantine_frame(h->seq);
    return FrameOutcome::kContinue;
  }
  switch (h->type) {
    case io::FrameType::kHello: {
      sessions_.fetch_add(1, std::memory_order_relaxed);
      if (!resume_initialized_) {
        applied_ = resume_point_ ? resume_point_() : 0;
        resume_initialized_ = true;
      }
      if (applied_ > 0) resumes_.fetch_add(1, std::memory_order_relaxed);
      const auto reply =
          io::encode_control_frame(io::FrameType::kHelloAck, ack_value());
      const auto stopped = [this] { return stop_requested(); };
      if (!write_frame_plain(fd, reply, options_.write_timeout, stopped)) {
        return FrameOutcome::kConnectionDone;
      }
      last_ack_sent_ = std::max(last_ack_sent_, ack_value());
      return FrameOutcome::kContinue;
    }
    case io::FrameType::kBye:
      byes_.fetch_add(1, std::memory_order_relaxed);
      (void)send_ack(fd, /*force=*/true);
      if (options_.exit_on_bye) bye_seen_ = true;
      return FrameOutcome::kConnectionDone;
    case io::FrameType::kTuple: {
      if (!resume_initialized_) {  // sender skipped HELLO; tolerate
        applied_ = resume_point_ ? resume_point_() : 0;
        resume_initialized_ = true;
      }
      metrics_.record_in(frame_bytes);
      if (h->seq <= applied_) {
        // Resume replay of an already-applied frame: discard, but re-ack so
        // the sender can prune its window (it missed the earlier ack).
        duplicates_.fetch_add(1, std::memory_order_relaxed);
        if (!send_ack(fd, /*force=*/true)) {
          return FrameOutcome::kConnectionDone;
        }
        return FrameOutcome::kContinue;
      }
      if (h->seq != applied_ + 1) {
        // Gap — an earlier frame was rejected or lost.  Not acked; the
        // sender's ack watchdog fires and the session resumes from the gap.
        out_of_order_.fetch_add(1, std::memory_order_relaxed);
        return FrameOutcome::kContinue;
      }
      auto tuple = io::decode_tuple_payload(payload);
      if (!tuple) {
        payload_rejects_.fetch_add(1, std::memory_order_relaxed);
        metrics_.record_dropped();
        quarantine_frame(h->seq);
        return FrameOutcome::kContinue;
      }
      const std::size_t bytes = tuple->wire_bytes();
      if (!out_->push(std::move(*tuple))) {
        return FrameOutcome::kDownstreamClosed;
      }
      // Push-before-advance: an acked seq is always at least pushed
      // downstream (and durably applied when an applied watermark gates).
      applied_ = h->seq;
      delivered_.fetch_add(1, std::memory_order_relaxed);
      metrics_.record_out(bytes);
      if (applied_ - last_ack_sent_ >= options_.ack_every) {
        if (!send_ack(fd, /*force=*/false)) {
          return FrameOutcome::kConnectionDone;
        }
      }
      return FrameOutcome::kContinue;
    }
    case io::FrameType::kAck:
    case io::FrameType::kHelloAck:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return FrameOutcome::kContinue;
  }
  return FrameOutcome::kContinue;
}

bool TcpTupleServer::serve_connection(int fd) {
  std::vector<std::uint8_t> buf;
  buf.reserve(2 * kRecvChunk);
  std::size_t head = 0;
  while (!stop_requested()) {
    // Parse every complete frame currently buffered.
    while (buf.size() - head >= io::kFrameHeaderBytes) {
      const auto h = io::decode_frame_header(
          std::span<const std::uint8_t>(buf.data() + head,
                                        io::kFrameHeaderBytes));
      if (!h) {
        // Desynced or length-field damage: no way to find the next frame
        // boundary.  Drop the connection; the sender reconnects and
        // resumes, so nothing is lost.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        metrics_.record_dropped();
        return true;
      }
      const std::size_t frame_bytes = io::kFrameHeaderBytes + h->payload_bytes;
      if (buf.size() - head < frame_bytes) break;
      const FrameOutcome outcome =
          handle_frame(fd, buf.data() + head, frame_bytes);
      if (outcome == FrameOutcome::kDownstreamClosed) return false;
      if (outcome == FrameOutcome::kConnectionDone) return true;
      head += frame_bytes;
    }
    if (head > 0) {
      buf.erase(buf.begin(), buf.begin() + std::ptrdiff_t(head));
      head = 0;
    }
    pollfd p{fd, POLLIN, 0};
    const int pr =
        ::poll(&p, 1, int(std::max<std::int64_t>(options_.idle_ack.count(), 1)));
    if (pr < 0) return true;
    if (pr == 0) {
      // Idle: push out any pending cumulative ack so a quiescing sender's
      // final flush is not held hostage to the ack_every cadence.
      if (!send_ack(fd, /*force=*/false)) return true;
      continue;
    }
    const std::size_t old = buf.size();
    buf.resize(old + kRecvChunk);
    const ssize_t r = ::recv(fd, buf.data() + old, kRecvChunk, 0);
    if (r <= 0) {
      buf.resize(old);
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        continue;
      }
      return true;  // EOF or hard error: connection over
    }
    buf.resize(old + std::size_t(r));
  }
  return true;
}

void TcpTupleServer::run() {
  std::size_t served = 0;
  bool downstream_open = true;
  while (!stop_requested() && !bye_seen_ && downstream_open &&
         (max_connections_ == 0 || served < max_connections_)) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) break;
    if (pr == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_nonblocking(fd);
    downstream_open = serve_connection(fd);
    ::close(fd);
    ++served;
  }
  out_->close();
  set_stop_reason(stop_requested() ? StopReason::kRequested
                                   : StopReason::kUpstreamClosed);
}

TcpServerCounters TcpTupleServer::counters() const noexcept {
  TcpServerCounters c;
  c.delivered = delivered_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.out_of_order = out_of_order_.load(std::memory_order_relaxed);
  c.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
  c.payload_rejects = payload_rejects_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.acks_sent = acks_sent_.load(std::memory_order_relaxed);
  c.sessions = sessions_.load(std::memory_order_relaxed);
  c.resumes = resumes_.load(std::memory_order_relaxed);
  c.byes = byes_.load(std::memory_order_relaxed);
  c.dead_letters = dead_letters_.load(std::memory_order_relaxed);
  c.dead_letter_overflow =
      dead_letter_overflow_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// TcpTupleSink
// ---------------------------------------------------------------------------

TcpTupleSink::TcpTupleSink(std::string name, std::uint16_t port,
                           ChannelPtr<DataTuple> in,
                           TcpTransportOptions options)
    : Operator(std::move(name)),
      port_(port),
      in_(std::move(in)),
      options_(options) {}

TcpTupleSink::~TcpTupleSink() {
  join();
  if (fd_ >= 0) ::close(fd_);
}

milliseconds TcpTupleSink::jittered(milliseconds backoff) {
  // splitmix64 step: deterministic per (jitter_seed, call index), so a
  // seeded run replays the exact same backoff schedule.
  jitter_state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = jitter_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // [backoff/2, backoff]: full-jitter floored at half to keep ordering.
  const std::int64_t half = backoff.count() / 2;
  const std::int64_t extra =
      half > 0 ? std::int64_t(z % std::uint64_t(half + 1)) : 0;
  return milliseconds(backoff.count() - half + extra);
}

void TcpTupleSink::teardown_socket() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connected_ = false;
  read_buffer_.clear();
}

bool TcpTupleSink::try_connect() {
  if (options_.fault && options_.fault->on_connect_attempt()) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    connect_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (rc != 0) {
    // Await connect completion with a deadline (poll-driven, stop-aware).
    const auto deadline = Clock::now() + options_.connect_timeout;
    bool ok = false;
    while (!stop_requested() && Clock::now() < deadline) {
      pollfd p{fd, POLLOUT, 0};
      const int pr = ::poll(&p, 1, kPollSliceMs);
      if (pr < 0) break;
      if (pr > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        ok = err == 0;
        break;
      }
    }
    if (!ok) {
      ::close(fd);
      connect_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  fd_ = fd;
  connected_ = true;
  if (options_.fault) options_.fault->note_connected();
  return true;
}

TcpTupleSink::IoResult TcpTupleSink::send_frame(
    const std::vector<std::uint8_t>& frame) {
  std::size_t off = 0;
  const auto deadline = Clock::now() + options_.write_timeout;
  while (off < frame.size()) {
    if (stop_requested()) return IoResult::kStopped;
    if (Clock::now() >= deadline) return IoResult::kClosed;  // stalled peer
    pollfd p{fd_, POLLOUT, 0};
    const int pr = ::poll(&p, 1, kPollSliceMs);
    if (pr < 0) return IoResult::kClosed;
    if (pr == 0) continue;
    std::size_t want = frame.size() - off;
    const std::uint8_t* src = frame.data() + off;
    if (options_.fault) {
      auto plan = options_.fault->plan_send(want);
      if (plan.reset) return IoResult::kClosed;  // injected ECONNRESET
      if (plan.stall.count() > 0) {
        // A stalled link: nothing moves for the stall's duration.  Loop
        // back so the write deadline bounds it — a stall longer than the
        // budget kills the connection instead of completing a late write.
        wait_for_stop(plan.stall);
        continue;
      }
      want = plan.len;
      if (!plan.flips.empty()) {
        // Damage a scratch copy so the retransmit buffer stays pristine —
        // the receiver's CRC reject must be healable by replaying the
        // *original* bytes.
        send_scratch_.assign(src, src + want);
        for (const auto& [rel, mask] : plan.flips) send_scratch_[rel] ^= mask;
        src = send_scratch_.data();
      }
    }
    const ssize_t w = ::send(fd_, src, want, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return IoResult::kClosed;
    }
    if (w == 0) continue;
    if (options_.fault) options_.fault->note_sent(std::size_t(w));
    off += std::size_t(w);
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  return IoResult::kOk;
}

void TcpTupleSink::note_acked(std::uint64_t upto) {
  if (upto <= acked_seq_) return;
  acked_seq_ = upto;
  // Transport seqs are contiguous from 1, so the cumulative ack value is
  // also the count of tuples the receiver has durably applied.
  acked_.store(upto, std::memory_order_relaxed);
  while (!window_.empty() && window_.front().seq <= upto) {
    // tuples_out = tuples the receiver confirmed, not bytes optimistically
    // written: only an acked frame leaves the sink's accounting.
    metrics_.record_out(window_.front().frame.size());
    window_.pop_front();
  }
  window_depth_.store(window_.size(), std::memory_order_relaxed);
  last_ack_progress_ = Clock::now();
}

bool TcpTupleSink::drain_receiver(std::optional<std::uint64_t>* hello_ack) {
  while (true) {
    std::uint8_t tmp[4096];
    const ssize_t r = ::recv(fd_, tmp, sizeof(tmp), MSG_DONTWAIT);
    if (r == 0) return false;  // receiver closed
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return false;
    }
    read_buffer_.insert(read_buffer_.end(), tmp, tmp + r);
  }
  std::size_t head = 0;
  while (read_buffer_.size() - head >= io::kFrameHeaderBytes) {
    const std::span<const std::uint8_t> header(read_buffer_.data() + head,
                                               io::kFrameHeaderBytes);
    const auto h = io::decode_frame_header(header);
    if (!h) return false;  // receiver-side desync: reconnect
    const std::size_t frame_bytes = io::kFrameHeaderBytes + h->payload_bytes;
    if (read_buffer_.size() - head < frame_bytes) break;
    const std::span<const std::uint8_t> payload(
        read_buffer_.data() + head + io::kFrameHeaderBytes, h->payload_bytes);
    if (io::verify_frame_crc(header, payload)) {
      if (h->type == io::FrameType::kAck) {
        acks_received_.fetch_add(1, std::memory_order_relaxed);
        note_acked(h->seq);
      } else if (h->type == io::FrameType::kHelloAck) {
        if (hello_ack) *hello_ack = h->seq;
      }
      // Anything else from a receiver is nonsense; ignore quietly.
    }
    head += frame_bytes;
  }
  if (head > 0) {
    read_buffer_.erase(read_buffer_.begin(),
                       read_buffer_.begin() + std::ptrdiff_t(head));
  }
  return true;
}

TcpTupleSink::IoResult TcpTupleSink::await_ack_progress() {
  const std::uint64_t start = acked_seq_;
  const auto deadline = Clock::now() + options_.ack_timeout;
  while (acked_seq_ == start) {
    if (stop_requested()) return IoResult::kStopped;
    if (Clock::now() >= deadline) return IoResult::kClosed;
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, kPollSliceMs);
    if (pr < 0) return IoResult::kClosed;
    if (!drain_receiver()) return IoResult::kClosed;
  }
  return IoResult::kOk;
}

TcpTupleSink::IoResult TcpTupleSink::handshake() {
  const auto hello =
      io::encode_control_frame(io::FrameType::kHello, next_seq_ - 1);
  const IoResult sent = send_frame(hello);
  if (sent != IoResult::kOk) return sent;
  std::optional<std::uint64_t> resume;
  const auto deadline = Clock::now() + options_.ack_timeout;
  while (!resume) {
    if (stop_requested()) return IoResult::kStopped;
    if (Clock::now() >= deadline) return IoResult::kClosed;
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, kPollSliceMs);
    if (pr < 0) return IoResult::kClosed;
    if (!drain_receiver(&resume)) return IoResult::kClosed;
  }
  if (ever_connected_) reconnects_.fetch_add(1, std::memory_order_relaxed);
  ever_connected_ = true;
  sessions_.fetch_add(1, std::memory_order_relaxed);
  // The receiver already durably applied everything <= the resume point
  // (it may be ahead of our last ack if an ack was lost in the outage).
  note_acked(*resume);
  last_ack_progress_ = Clock::now();
  return IoResult::kOk;
}

TcpTupleSink::IoResult TcpTupleSink::retransmit_unacked() {
  // Replay the unacked suffix in seq order.  Acks may land mid-replay and
  // prune the window, so walk by seq (the window is a contiguous range),
  // never by iterator.
  std::uint64_t cursor = acked_seq_;
  while (!window_.empty() && cursor < window_.back().seq) {
    if (cursor + 1 < window_.front().seq) {
      cursor = window_.front().seq - 1;  // acked under us; skip ahead
      continue;
    }
    const std::size_t idx = std::size_t(cursor + 1 - window_.front().seq);
    const IoResult r = send_frame(window_[idx].frame);
    if (r != IoResult::kOk) return r;
    retransmits_.fetch_add(1, std::memory_order_relaxed);
    ++cursor;
    if (!drain_receiver()) return IoResult::kClosed;
  }
  last_ack_progress_ = Clock::now();
  return IoResult::kOk;
}

TcpTupleSink::IoResult TcpTupleSink::establish_session(int attempts) {
  auto backoff = options_.backoff_initial;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (stop_requested()) return IoResult::kStopped;
    if (attempt > 0) {
      const auto delay = jittered(backoff);
      backoff_ms_last_.store(std::uint64_t(delay.count()),
                             std::memory_order_relaxed);
      if (wait_for_stop(delay)) return IoResult::kStopped;
      backoff = std::min(backoff * 2, options_.backoff_max);
    }
    if (!try_connect()) continue;
    IoResult r = handshake();
    if (r == IoResult::kOk) r = retransmit_unacked();
    if (r == IoResult::kOk) return IoResult::kOk;
    teardown_socket();
    if (r == IoResult::kStopped) return IoResult::kStopped;
  }
  return IoResult::kClosed;
}

void TcpTupleSink::enter_degraded() {
  degraded_.store(true, std::memory_order_relaxed);
  next_heal_ = Clock::now() + options_.heal_interval;
}

bool TcpTupleSink::heal_probe() {
  // Single attempt, no backoff ladder: degraded mode already paces probes
  // at heal_interval.
  return establish_session(1) == IoResult::kOk;
}

void TcpTupleSink::on_outage() {
  outages_.fetch_add(1, std::memory_order_relaxed);
  teardown_socket();
  if (establish_session(options_.connect_attempts) == IoResult::kClosed) {
    enter_degraded();
  }
}

void TcpTupleSink::flush_and_close() {
  // Wait for the receiver to ack every accepted tuple still in the window.
  // Bounded: a reconnect budget that makes no ack progress twice in a row
  // gives up, and whatever the receiver never confirmed is counted as
  // lossy-link drops — conservation stays exact even when the far side is
  // gone for good.
  int stalled_recoveries = 0;
  std::uint64_t progress_mark = acked_seq_;
  while (!window_.empty() && !stop_requested()) {
    if (degraded_.load(std::memory_order_relaxed) || !connected_) {
      if (stalled_recoveries >= 2 ||
          establish_session(options_.connect_attempts) != IoResult::kOk) {
        break;  // receiver is not coming back
      }
      degraded_.store(false, std::memory_order_relaxed);
    }
    const IoResult r = await_ack_progress();
    if (acked_seq_ > progress_mark) {
      progress_mark = acked_seq_;
      stalled_recoveries = 0;
    }
    if (r == IoResult::kStopped) break;
    if (r == IoResult::kClosed) {
      outages_.fetch_add(1, std::memory_order_relaxed);
      teardown_socket();
      ++stalled_recoveries;
    }
  }
  if (!window_.empty()) {
    for (std::size_t i = 0; i < window_.size(); ++i) {
      metrics_.record_dropped();
    }
    lossy_dropped_.fetch_add(window_.size(), std::memory_order_relaxed);
    window_.clear();
    window_depth_.store(0, std::memory_order_relaxed);
  }
  if (connected_ && !stop_requested()) {
    // Clean end of stream: the receiver may close its output (exit_on_bye)
    // or just end the connection.
    (void)send_frame(io::encode_control_frame(io::FrameType::kBye,
                                              next_seq_ - 1));
    ::shutdown(fd_, SHUT_WR);
  }
}

void TcpTupleSink::run() {
  using namespace std::chrono_literals;
  jitter_state_ = options_.jitter_seed ^ 0x9e3779b97f4a7c15ULL;

  const IoResult initial = establish_session(options_.connect_attempts);
  if (initial == IoResult::kStopped) {
    teardown_socket();
    set_stop_reason(StopReason::kRequested);
    return;
  }
  if (initial == IoResult::kClosed) enter_degraded();

  DataTuple t;
  bool have = false;
  while (!stop_requested()) {
    if (degraded_.load(std::memory_order_relaxed) &&
        Clock::now() >= next_heal_) {
      if (heal_probe()) {
        degraded_.store(false, std::memory_order_relaxed);
      } else {
        next_heal_ = Clock::now() + options_.heal_interval;
      }
    }
    if (!have) {
      if (in_->pop_for(t, 50ms)) {
        have = true;
        metrics_.record_in(t.wire_bytes());
      } else if (in_->closed() && in_->size() == 0) {
        break;  // input exhausted: flush below
      }
    }
    if (!have) {
      // Idle: keep servicing acks and the progress watchdog.
      if (connected_) {
        if (!drain_receiver()) {
          on_outage();
        } else if (!window_.empty() &&
                   Clock::now() - last_ack_progress_ > options_.ack_timeout) {
          on_outage();
        }
      }
      continue;
    }
    if (degraded_.load(std::memory_order_relaxed)) {
      // Counted lossy-link drop (BoundedQueue fault-hook semantics): the
      // producer flows on, the loss is visible in the accounting.
      metrics_.record_dropped();
      lossy_dropped_.fetch_add(1, std::memory_order_relaxed);
      have = false;
      continue;
    }
    if (window_.size() >= options_.retransmit_window) {
      // Bounded memory: block on ack progress, not on more buffering.
      const IoResult r = await_ack_progress();
      if (r == IoResult::kStopped) break;
      if (r == IoResult::kClosed) on_outage();
      continue;  // re-evaluate degraded/window state
    }
    const std::uint64_t seq = next_seq_++;
    if (window_.empty()) last_ack_progress_ = Clock::now();
    window_.push_back({seq, io::encode_tuple(t, seq)});
    window_depth_.store(window_.size(), std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    have = false;
    if (connected_) {
      const IoResult r = send_frame(window_.back().frame);
      if (r == IoResult::kStopped) break;
      if (r == IoResult::kClosed) {
        on_outage();  // frame stays windowed; replayed on resume
        continue;
      }
      if (!drain_receiver()) {
        on_outage();
        continue;
      }
      if (!window_.empty() &&
          Clock::now() - last_ack_progress_ > options_.ack_timeout) {
        on_outage();
      }
    }
  }

  flush_and_close();
  teardown_socket();
  if (stop_requested()) {
    set_stop_reason(StopReason::kRequested);
  } else if (!ever_connected_) {
    // Satellite fix: a sink that never established a session ended in
    // error, not by request — callers and the supervisor can tell a dead
    // endpoint from a clean shutdown.
    set_stop_reason(StopReason::kError);
  } else {
    set_stop_reason(StopReason::kUpstreamClosed);
  }
}

TcpSinkCounters TcpTupleSink::counters() const noexcept {
  TcpSinkCounters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.acked = acked_.load(std::memory_order_relaxed);
  c.lossy_dropped = lossy_dropped_.load(std::memory_order_relaxed);
  c.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  c.retransmits = retransmits_.load(std::memory_order_relaxed);
  c.sessions = sessions_.load(std::memory_order_relaxed);
  c.reconnects = reconnects_.load(std::memory_order_relaxed);
  c.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  c.acks_received = acks_received_.load(std::memory_order_relaxed);
  c.outages = outages_.load(std::memory_order_relaxed);
  c.backoff_ms_last = backoff_ms_last_.load(std::memory_order_relaxed);
  c.window_depth = window_depth_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace astro::stream
