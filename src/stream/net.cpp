#include "stream/net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>

#include "io/frame.h"
#include "stats/rng.h"

namespace astro::stream {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr int kPollSliceMs = 50;
/// How long a receiver first waits before retrying an ack the applied
/// watermark held back; each retry that finds the input quiet doubles the
/// wait, up to the poll slice.
constexpr int kAckRetryMs = 1;
/// How long the sink holds a frame for company when its input is quiet:
/// sends are batched on purpose, never by Nagle's ACK-timed hold
/// (EXPERIMENTS.md "Flush slice").
constexpr std::chrono::microseconds kFlushSlice{500};

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

/// Every send leaves at once; batching is the sender's own decision.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpTupleServer
// ---------------------------------------------------------------------------

TcpTupleServer::TcpTupleServer(std::string name, std::uint16_t port,
                               DataEdge out, std::size_t max_connections,
                               TcpServerOptions options)
    : SessionServer(std::move(name), std::move(out)),
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

bool TcpTupleServer::send_ack(int fd, bool force, io::FrameType type) {
  const std::uint64_t value = cap_at_watermark(applied_);
  if (!force && value <= last_ack_sent_) return true;
  const io::ControlFrame frame = io::control_frame(type, value);
  const auto stopped = [this] { return stop_requested(); };
  if (!write_frame_plain(fd, frame, options_.write_timeout, stopped)) {
    return false;
  }
  if (type == io::FrameType::kAck) {
    acks_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  last_ack_sent_ = std::max(last_ack_sent_, value);
  return true;
}

TcpTupleServer::FrameOutcome TcpTupleServer::handle_frame(
    int fd, std::span<const std::uint8_t> frame) {
  const auto header = frame.first(io::kFrameHeaderBytes);
  const auto h = io::decode_frame_header(header);
  if (!h) return FrameOutcome::kConnectionDone;  // caller pre-validated
  if (h->type == io::FrameType::kTuple ||
      !io::verify_frame_crc(header, frame.subspan(io::kFrameHeaderBytes))) {
    // A data frame, or one whose damage hides what it was.
    return handle_data(fd, *h, frame);
  }
  switch (h->type) {
    case io::FrameType::kHello:
      open_session(applied_);
      return send_ack(fd, /*force=*/true, io::FrameType::kHelloAck)
                 ? FrameOutcome::kContinue
                 : FrameOutcome::kConnectionDone;
    case io::FrameType::kBye:
      byes_.fetch_add(1, std::memory_order_relaxed);
      (void)send_ack(fd, /*force=*/true);
      if (options_.exit_on_bye) bye_seen_ = true;
      return FrameOutcome::kConnectionDone;
    case io::FrameType::kTuple:
    case io::FrameType::kAck:
    case io::FrameType::kHelloAck:
      break;
  }
  // An ack-type frame sent to a receiver is nonsense.
  reject_protocol(frame.size());
  return FrameOutcome::kContinue;
}

TcpTupleServer::FrameOutcome TcpTupleServer::handle_data(
    int fd, const io::FrameHeader& h, std::span<const std::uint8_t> frame) {
  switch (judge(h, frame, /*floor=*/applied_, /*next=*/applied_ + 1)) {
    case Verdict::kRejected:
      // Never applied, never acked: the sender's window still holds the
      // frame and replays it on session resume, so a CRC reject costs a
      // retransmit, not a tuple.
      return FrameOutcome::kContinue;
    case Verdict::kDuplicate:
      // Resume replay of an already-applied frame: re-ack so the sender
      // can prune its window (it missed the earlier ack).
      return send_ack(fd, /*force=*/true) ? FrameOutcome::kContinue
                                          : FrameOutcome::kConnectionDone;
    case Verdict::kGap:
      // An earlier frame was rejected or lost.  Not acked; the sender's ack
      // watchdog fires and the session resumes from the gap.
      out_of_order_.fetch_add(1, std::memory_order_relaxed);
      return FrameOutcome::kContinue;
    case Verdict::kClosed:
      return FrameOutcome::kDownstreamClosed;
    case Verdict::kDelivered:
      break;
  }
  // Push-before-advance: an acked seq is always at least pushed downstream
  // (and durably applied when an applied watermark gates).
  applied_ = h.seq;
  if (applied_ - last_ack_sent_ >= options_.ack_every &&
      !send_ack(fd, /*force=*/false)) {
    return FrameOutcome::kConnectionDone;
  }
  return FrameOutcome::kContinue;
}

bool TcpTupleServer::serve_connection(int fd) {
  std::vector<std::uint8_t> buf(kRecvChunk);
  std::size_t fill = 0;
  int ack_retry_ms = kAckRetryMs;
  while (!stop_requested()) {
    // An ack the applied watermark held back is retried promptly, then at
    // doubling intervals, so a watermark that stays behind on a quiet
    // stream costs a few wakeups, not a 1 kHz loop.  Otherwise the poll
    // slice only bounds how long a stop waits.
    pollfd p{fd, POLLIN, 0};
    const int pr =
        ::poll(&p, 1, applied_ > last_ack_sent_ ? ack_retry_ms : kPollSliceMs);
    if (pr < 0) return true;
    if (pr == 0) {
      if (!send_ack(fd, /*force=*/false)) return true;
      ack_retry_ms = std::min(2 * ack_retry_ms, kPollSliceMs);
      continue;
    }
    ack_retry_ms = kAckRetryMs;
    const ssize_t r = ::recv(fd, buf.data() + fill, buf.size() - fill, 0);
    if (r <= 0) {
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        continue;
      }
      return true;  // EOF or hard error: connection over
    }
    fill += std::size_t(r);
    // Parse every complete frame of the burst.
    std::size_t head = 0;
    while (fill - head >= io::kFrameHeaderBytes) {
      const auto h = io::decode_frame_header(
          std::span<const std::uint8_t>(buf.data() + head,
                                        io::kFrameHeaderBytes));
      if (!h) {
        // Desynced or length-field damage: no way to find the next frame
        // boundary.  Drop the connection; the sender reconnects and
        // resumes, so nothing is lost.
        reject_protocol(io::kFrameHeaderBytes);
        return true;
      }
      const std::size_t frame_bytes = io::kFrameHeaderBytes + h->payload_bytes;
      if (fill - head < frame_bytes) {
        // A frame larger than the buffer grows it once.
        if (frame_bytes > buf.size()) buf.resize(frame_bytes);
        break;
      }
      const FrameOutcome outcome = handle_frame(
          fd, std::span<const std::uint8_t>(buf.data() + head, frame_bytes));
      if (outcome == FrameOutcome::kDownstreamClosed) return false;
      if (outcome == FrameOutcome::kConnectionDone) return true;
      head += frame_bytes;
    }
    if (head > 0) {
      std::memmove(buf.data(), buf.data() + head, fill - head);
      fill -= head;
    }
    // End of the burst: one cumulative ack for all it delivered.
    if (!send_ack(fd, /*force=*/false)) return true;
  }
  return true;
}

StopReason TcpTupleServer::serve() {
  // Sessions resume from the durable point, then from in-memory state
  // across reconnects.
  applied_ = resume_point();
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
    set_nodelay(fd);
    downstream_open = serve_connection(fd);
    ::close(fd);
    ++served;
  }
  return StopReason::kUpstreamClosed;
}

TcpServerCounters TcpTupleServer::counters() const noexcept {
  TcpServerCounters c;
  static_cast<SessionServerCounters&>(c) = session_counters();
  c.out_of_order = out_of_order_.load(std::memory_order_relaxed);
  c.acks_sent = acks_sent_.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// TcpTupleSink
// ---------------------------------------------------------------------------

TcpTupleSink::TcpTupleSink(std::string name, std::uint16_t port,
                           ChannelPtr<DataTuple> in,
                           TcpTransportOptions options)
    : SessionSink(std::move(name), std::move(in)),
      port_(port),
      options_(options),
      slots_(std::max<std::size_t>(options.retransmit_window, 1)) {}

TcpTupleSink::~TcpTupleSink() {
  join();
  if (fd_ >= 0) ::close(fd_);
}

milliseconds TcpTupleSink::jittered(milliseconds backoff) {
  // splitmix64 step: deterministic per (jitter_seed, call index), so a
  // seeded run replays the exact same backoff schedule.
  const std::uint64_t z = stats::splitmix64(jitter_state_);
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
  read_fill_ = 0;
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
  set_nodelay(fd);
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

TcpTupleSink::IoResult TcpTupleSink::write_span(
    std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  const auto deadline = Clock::now() + options_.write_timeout;
  while (off < bytes.size()) {
    if (stop_requested()) return IoResult::kStopped;
    if (Clock::now() >= deadline) return IoResult::kClosed;  // stalled peer
    std::size_t want = bytes.size() - off;
    const std::uint8_t* src = bytes.data() + off;
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
        // Damage a scratch copy so the frame ring stays pristine — the
        // receiver's CRC reject must be healable by replaying the
        // *original* bytes.
        send_scratch_.assign(src, src + want);
        for (const auto& [rel, mask] : plan.flips) send_scratch_[rel] ^= mask;
        src = send_scratch_.data();
      }
    }
    const ssize_t w = ::send(fd_, src, want, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return IoResult::kClosed;
      // The socket buffer is full: only now wait for room.
      pollfd p{fd_, POLLOUT, 0};
      if (::poll(&p, 1, kPollSliceMs) < 0) return IoResult::kClosed;
      continue;
    }
    if (options_.fault) options_.fault->note_sent(std::size_t(w));
    off += std::size_t(w);
  }
  return IoResult::kOk;
}

TcpTupleSink::IoResult TcpTupleSink::send_pending() {
  while (held() > 0) {
    const std::uint64_t first = sent_seq_ + 1;
    // A run ends at the newest frame, or just before the ring's wrap.
    const std::uint64_t last =
        wrap_seq_ > first ? wrap_seq_ - 1 : next_seq_ - 1;
    const std::size_t begin = slot(first).offset;
    const std::size_t end = slot(last).offset + slot(last).bytes;
    const IoResult r = write_span(
        std::span<const std::uint8_t>(ring_.data() + begin, end - begin));
    if (r != IoResult::kOk) return r;
    frames_sent_.fetch_add(last - first + 1, std::memory_order_relaxed);
    if (first <= high_sent_) {
      retransmits_.fetch_add(std::min(last, high_sent_) - first + 1,
                             std::memory_order_relaxed);
    }
    high_sent_ = std::max(high_sent_, last);
    sent_seq_ = last;
  }
  return IoResult::kOk;
}

void TcpTupleSink::transmit() {
  if (!connected_) return;
  const IoResult r = send_pending();
  if (r == IoResult::kClosed || (r == IoResult::kOk && !drain_receiver())) {
    on_outage();  // the frames stay windowed; replayed on resume
  }
}

void TcpTupleSink::note_acked(std::uint64_t upto) {
  upto = std::min(upto, next_seq_ - 1);
  if (upto <= acked_seq_) return;
  // tuples_out = tuples the receiver confirmed, not bytes optimistically
  // written: only an acked frame leaves the sink's accounting.
  for (std::uint64_t seq = acked_seq_ + 1; seq <= upto; ++seq) {
    metrics_.record_out(slot(seq).bytes);
  }
  acked_seq_ = upto;
  // Transport seqs are contiguous from 1, so the cumulative ack value is
  // also the count of tuples the receiver has durably applied.
  acked_.store(upto, std::memory_order_relaxed);
  sent_seq_ = std::max(sent_seq_, upto);
  // Once every frame above the wrap is acked, the live ones all sit from
  // offset 0 up: the ring is unwrapped.
  if (wrap_seq_ != 0 && acked_seq_ + 1 >= wrap_seq_) wrap_seq_ = 0;
  window_depth_.store(windowed(), std::memory_order_relaxed);
  last_ack_progress_ = Clock::now();
}

bool TcpTupleSink::drain_receiver(std::optional<std::uint64_t>* hello_ack) {
  while (true) {
    const ssize_t r =
        ::recv(fd_, read_buffer_.data() + read_fill_,
               read_buffer_.size() - read_fill_, MSG_DONTWAIT);
    if (r == 0) return false;  // receiver closed
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return false;
    }
    read_fill_ += std::size_t(r);
    std::size_t head = 0;
    while (read_fill_ - head >= io::kFrameHeaderBytes) {
      const std::span<const std::uint8_t> header(read_buffer_.data() + head,
                                                 io::kFrameHeaderBytes);
      const auto h = io::decode_frame_header(header);
      // Receiver-side desync, or a frame no receiver sends: reconnect.
      if (!h ||
          h->payload_bytes > read_buffer_.size() - io::kFrameHeaderBytes) {
        return false;
      }
      const std::size_t frame_bytes = io::kFrameHeaderBytes + h->payload_bytes;
      if (read_fill_ - head < frame_bytes) break;
      const std::span<const std::uint8_t> payload(
          read_buffer_.data() + head + io::kFrameHeaderBytes,
          h->payload_bytes);
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
      std::memmove(read_buffer_.data(), read_buffer_.data() + head,
                   read_fill_ - head);
      read_fill_ -= head;
    }
  }
  return true;
}

TcpTupleSink::IoResult TcpTupleSink::await_ack_progress(
    std::optional<std::uint64_t>* hello_ack) {
  const std::uint64_t start = acked_seq_;
  const auto deadline = Clock::now() + options_.ack_timeout;
  while (hello_ack ? !hello_ack->has_value() : acked_seq_ == start) {
    if (stop_requested()) return IoResult::kStopped;
    if (Clock::now() >= deadline) return IoResult::kClosed;
    pollfd p{fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, kPollSliceMs);
    if (pr < 0) return IoResult::kClosed;
    if (!drain_receiver(hello_ack)) return IoResult::kClosed;
  }
  return IoResult::kOk;
}

TcpTupleSink::IoResult TcpTupleSink::handshake() {
  const io::ControlFrame hello =
      io::control_frame(io::FrameType::kHello, next_seq_ - 1);
  const IoResult sent = write_span(hello);
  if (sent != IoResult::kOk) return sent;
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  std::optional<std::uint64_t> resume;
  const IoResult replied = await_ack_progress(&resume);
  if (replied != IoResult::kOk) return replied;
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
  // A new connection carries nothing yet: replay the unacked suffix in seq
  // order, as coalesced as the first sends were.
  sent_seq_ = acked_seq_;
  IoResult r = send_pending();
  if (r == IoResult::kOk && !drain_receiver()) r = IoResult::kClosed;
  last_ack_progress_ = Clock::now();
  return r;
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

void TcpTupleSink::on_outage() {
  outages_.fetch_add(1, std::memory_order_relaxed);
  teardown_socket();
  if (establish_session(options_.connect_attempts) == IoResult::kClosed) {
    enter_degraded();
  }
}

bool TcpTupleSink::open() {
  jitter_state_ = options_.jitter_seed ^ 0x9e3779b97f4a7c15ULL;
  const IoResult initial = establish_session(options_.connect_attempts);
  if (initial == IoResult::kStopped) {
    teardown_socket();
    return false;
  }
  if (initial == IoResult::kClosed) enter_degraded();
  return true;
}

std::chrono::microseconds TcpTupleSink::pop_wait() const {
  // While frames are held, an empty input goes straight to idle(), which
  // sleeps out the flush slice: arrivals queue up meanwhile instead of
  // waking the sink one tuple at a time.
  if (connected_ && held() > 0) return std::chrono::microseconds(0);
  return SessionSink::pop_wait();
}

void TcpTupleSink::idle() {
  if (!connected_) return;
  if (held() > 0 && !slice_slept_) {
    // The input went quiet inside the slice: sleep to its end, then the
    // run loop drains what arrived and the next quiet moment sends it all.
    slice_slept_ = true;
    wait_until_stopped(flush_due_);
    return;
  }
  // Send what the flush slice held, then keep servicing acks and the
  // progress watchdog.
  transmit();
  if (connected_ && windowed() > 0 &&
      Clock::now() - last_ack_progress_ > options_.ack_timeout) {
    on_outage();
  }
}

bool TcpTupleSink::heal() {
  if (Clock::now() < next_heal_) return false;
  // Single attempt, no backoff ladder: degraded mode already paces probes
  // at heal_interval.
  if (establish_session(1) == IoResult::kOk) return true;
  next_heal_ = Clock::now() + options_.heal_interval;
  return false;
}

std::optional<std::size_t> TcpTupleSink::free_offset(std::size_t bytes) const {
  const std::uint64_t live = windowed();
  if (live == 0) return 0;  // an empty window restarts at the bottom
  if (live >= slots_.size()) return std::nullopt;
  const std::size_t head = slots_[(acked_seq_ + 1) % slots_.size()].offset;
  if (wrap_seq_ != 0) {
    // Live frames at both ends: the room is the gap between them.
    if (ring_tail_ + bytes <= head) return ring_tail_;
    return std::nullopt;
  }
  if (ring_tail_ + bytes <= ring_.size()) return ring_tail_;
  if (bytes <= head) return 0;  // wrap below the oldest frame
  return std::nullopt;
}

TcpTupleSink::Handoff TcpTupleSink::send(DataTuple& t) {
  const std::size_t bytes = io::encoded_tuple_bytes(t);
  const std::optional<std::size_t> offset = free_offset(bytes);
  if (!offset) {
    // Window full.  Sending what is held also reads the acks that came
    // back; only a window those acks did not free waits on the receiver
    // (bounded memory, not more buffering).
    const std::uint64_t before = acked_seq_;
    transmit();
    if (connected_ && acked_seq_ == before && !free_offset(bytes) &&
        await_ack_progress() == IoResult::kClosed) {
      on_outage();
    }
    return Handoff::kHeld;
  }
  const std::uint64_t seq = next_seq_;
  if (windowed() == 0) {
    // The ring holds a full window of the largest frame seen; it is sized
    // (once, for a steady stream) only while nothing is windowed.
    if (ring_.size() < bytes * slots_.size()) {
      ring_.resize(bytes * slots_.size());
    }
    wrap_seq_ = 0;
    last_ack_progress_ = Clock::now();
  } else if (*offset == 0) {
    wrap_seq_ = seq;
  }
  const std::size_t n = io::encode_tuple_into(
      std::span<std::uint8_t>(ring_.data() + *offset, bytes), t, seq);
  if (arena_) arena_->release(t);  // the frame is the tuple now
  slot(seq) = {*offset, n};
  ring_tail_ = *offset + n;
  ++next_seq_;
  window_depth_.store(windowed(), std::memory_order_relaxed);
  if (!connected_) return Handoff::kTaken;  // replayed on resume
  // The first held frame opens the flush slice; a quiet input sends the
  // batch from idle().  Under backlog the sink never waits: the batch goes
  // out once the slice ran out without the input going quiet, or once half
  // the window is held.
  const auto now = Clock::now();
  if (held() == 1) {
    flush_due_ = now + kFlushSlice;
    slice_slept_ = false;
  }
  if ((now >= flush_due_ && !slice_slept_) ||
      held() >= (slots_.size() + 1) / 2) {
    transmit();
  }
  return Handoff::kTaken;
}

std::uint64_t TcpTupleSink::flush() {
  // Send what the flush slice held, then wait for the receiver to ack every
  // tuple still in the window.  Bounded: a reconnect budget that makes no
  // ack progress twice in a row gives up, and whatever the receiver never
  // confirmed is returned for counting as lossy-link drops — conservation
  // stays exact even when the far side is gone for good.
  transmit();
  int stalled_recoveries = 0;
  std::uint64_t progress_mark = acked_seq_;
  while (windowed() > 0 && !stop_requested()) {
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
  const std::uint64_t unconfirmed = windowed();
  window_depth_.store(0, std::memory_order_relaxed);
  if (connected_ && !stop_requested()) {
    // Clean end of stream: the receiver may close its output (exit_on_bye)
    // or just end the connection.
    if (write_span(io::control_frame(io::FrameType::kBye, next_seq_ - 1)) ==
        IoResult::kOk) {
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    ::shutdown(fd_, SHUT_WR);
  }
  teardown_socket();
  return unconfirmed;
}

TcpSinkCounters TcpTupleSink::counters() const noexcept {
  TcpSinkCounters c;
  static_cast<SessionSinkCounters&>(c) = session_counters();
  c.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  c.retransmits = retransmits_.load(std::memory_order_relaxed);
  c.sessions = sessions_.load(std::memory_order_relaxed);
  c.reconnects = reconnects_.load(std::memory_order_relaxed);
  c.connect_failures = connect_failures_.load(std::memory_order_relaxed);
  c.acks_received = acks_received_.load(std::memory_order_relaxed);
  c.outages = outages_.load(std::memory_order_relaxed);
  c.backoff_ms_last = backoff_ms_last_.load(std::memory_order_relaxed);
  c.window_depth = window_depth_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace astro::stream
