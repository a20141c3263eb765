// ShmRing unit suite (DESIGN.md "Transport", "Shared-memory leg"): segment
// lifecycle (create / attach / geometry guard), seq-based head/tail
// semantics across wraps, tail-gated slot reuse, the bye flag, corrupt
// length prefixes, consumer resume-at-tail, the PeerWatch liveness fusion,
// and the deterministic fault injector's schedule semantics.

#include "stream/shm_ring.h"

#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/frame.h"
#include "stream/fault.h"
#include "stream/tuple.h"

namespace astro::stream {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kSlotBytes = 256;

std::string unique_segment(const std::string& tag) {
  return "astro-ringtest-" + std::to_string(::getpid()) + "-" + tag;
}

DataTuple make_tuple(std::uint64_t seq, std::size_t dim = 4) {
  DataTuple t;
  t.seq = seq;
  t.timestamp_us = std::int64_t(seq) * 10;
  t.values = linalg::Vector(dim, double(seq % 97));
  return t;
}

/// Encode tuple `seq` into the producer's staging slot and commit it.
bool produce(ShmRingProducer& prod, std::uint64_t seq) {
  const DataTuple t = make_tuple(seq);
  const std::size_t n = io::encode_tuple_into(prod.stage(seq), t, seq);
  EXPECT_GT(n, 0u);
  return prod.commit(seq, n);
}

TEST(ShmRingSegment, CreateAttachAndGeometryGuard) {
  const std::string name = unique_segment("geom");
  EXPECT_EQ(ShmRingSegment::try_attach(name, 8, kSlotBytes), nullptr)
      << "attach before create must report absent, not throw";
  auto seg = ShmRingSegment::create(name, 8, kSlotBytes);
  ASSERT_NE(seg, nullptr);
  EXPECT_TRUE(seg->owner());
  EXPECT_EQ(seg->capacity(), 8u);
  EXPECT_EQ(seg->max_frame_bytes(), kSlotBytes - kShmSlotPrefixBytes);

  auto peer = ShmRingSegment::try_attach(name, 8, kSlotBytes);
  ASSERT_NE(peer, nullptr);
  EXPECT_FALSE(peer->owner());

  // Disagreeing geometry is a configuration bug, reported loudly.  (A
  // mismatch implying a LARGER segment is indistinguishable from a creator
  // mid-ftruncate and reports absent instead — use smaller ones here.)
  EXPECT_THROW((void)ShmRingSegment::try_attach(name, 4, kSlotBytes),
               std::runtime_error);
  EXPECT_THROW((void)ShmRingSegment::try_attach(name, 8, kSlotBytes / 2),
               std::runtime_error);
  EXPECT_EQ(ShmRingSegment::try_attach(name, 16, kSlotBytes), nullptr)
      << "larger implied size looks like mid-ftruncate: absent, not throw";
}

TEST(ShmRingSegment, CreateRejectsDegenerateGeometry) {
  EXPECT_THROW((void)ShmRingSegment::create(unique_segment("z0"), 0, 256),
               std::runtime_error);
  EXPECT_THROW((void)ShmRingSegment::create(unique_segment("z1"), 4, 8),
               std::runtime_error);
}

TEST(ShmRingSegment, CreateReclaimsStaleSegment) {
  // A crashed producer leaves the name behind; the next creator owns it.
  const std::string name = unique_segment("stale");
  auto stale = ShmRingSegment::create(name, 4, kSlotBytes);
  // A second creator under the same name (the "previous run crashed"
  // scenario) must reclaim it rather than fail O_EXCL.
  auto seg = ShmRingSegment::create(name, 4, kSlotBytes);
  ASSERT_NE(seg, nullptr);
  EXPECT_TRUE(seg->owner());
}

TEST(ShmRing, WrapAroundDeliversInOrder) {
  auto seg = ShmRingSegment::create(unique_segment("wrap"), 4, kSlotBytes);
  ShmRingProducer prod(*seg);
  ShmRingConsumer cons(*seg);

  std::uint64_t wraps = 0;
  std::vector<std::uint64_t> got;
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    ASSERT_FALSE(prod.full());
    if (produce(prod, seq)) ++wraps;
    // Lock-step consume keeps the ring shallow while exercising reuse.
    ASSERT_FALSE(cons.empty());
    const auto frame = cons.peek();
    ASSERT_FALSE(frame.empty());
    const auto t = io::decode_tuple(frame);
    ASSERT_TRUE(t.has_value());
    got.push_back(t->seq);
    cons.advance();
    cons.publish_tail(cons.cursor());
  }
  EXPECT_EQ(wraps, 4u);  // seqs 5, 9, 13, 17 reused slot 0
  ASSERT_EQ(got.size(), 20u);
  for (std::uint64_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i + 1);
  EXPECT_EQ(prod.depth(), 0u);
}

TEST(ShmRing, FullUntilTailAdvances) {
  auto seg = ShmRingSegment::create(unique_segment("full"), 2, kSlotBytes);
  ShmRingProducer prod(*seg);
  ShmRingConsumer cons(*seg);

  produce(prod, 1);
  produce(prod, 2);
  EXPECT_TRUE(prod.full());
  EXPECT_EQ(prod.depth(), 2u);

  // Consuming without publishing tail does NOT free the slot — the ring is
  // the retransmit window, and only durable progress reclaims it.
  cons.advance();
  EXPECT_TRUE(prod.full());
  cons.publish_tail(1);
  EXPECT_FALSE(prod.full());
  EXPECT_EQ(prod.next_seq(), 3u);
}

TEST(ShmRing, TailIsClampedAndMonotonic) {
  auto seg = ShmRingSegment::create(unique_segment("tail"), 8, kSlotBytes);
  ShmRingProducer prod(*seg);
  ShmRingConsumer cons(*seg);
  for (std::uint64_t s = 1; s <= 4; ++s) produce(prod, s);
  cons.advance();
  cons.advance();  // cursor = 2

  cons.publish_tail(100);  // clamped to the cursor: nothing unconsumed is
  EXPECT_EQ(cons.tail(), 2u);  // ever handed back to the producer
  cons.publish_tail(1);  // never regresses
  EXPECT_EQ(cons.tail(), 2u);
}

TEST(ShmRing, ByeFlag) {
  auto seg = ShmRingSegment::create(unique_segment("bye"), 2, kSlotBytes);
  ShmRingProducer prod(*seg);
  ShmRingConsumer cons(*seg);
  EXPECT_FALSE(cons.bye());
  prod.set_bye();
  EXPECT_TRUE(cons.bye());
}

TEST(ShmRing, CorruptLengthPrefixPeeksEmpty) {
  auto seg = ShmRingSegment::create(unique_segment("len"), 2, kSlotBytes);
  ShmRingProducer prod(*seg);
  ShmRingConsumer cons(*seg);
  produce(prod, 1);
  // Stomp the length prefix with values outside [header, max_frame].
  seg->slot(0)[0] = 0xFF;
  seg->slot(0)[1] = 0xFF;
  seg->slot(0)[2] = 0xFF;
  seg->slot(0)[3] = 0xFF;
  EXPECT_TRUE(cons.peek().empty());
  seg->slot(0)[0] = 1;  // 1 byte: smaller than any frame header
  seg->slot(0)[1] = 0;
  seg->slot(0)[2] = 0;
  seg->slot(0)[3] = 0;
  EXPECT_TRUE(cons.peek().empty());
}

TEST(ShmRing, RestartedConsumerResumesAtTail) {
  const std::string name = unique_segment("resume");
  auto seg = ShmRingSegment::create(name, 8, kSlotBytes);
  ShmRingProducer prod(*seg);
  for (std::uint64_t s = 1; s <= 5; ++s) produce(prod, s);

  std::uint64_t gen1 = 0;
  {
    ShmRingConsumer cons(*seg);
    gen1 = cons.generation();
    cons.advance();
    cons.advance();
    cons.advance();
    cons.publish_tail(3);  // durable through seq 3, then "crash"
  }

  auto seg2 = ShmRingSegment::try_attach(name, 8, kSlotBytes);
  ASSERT_NE(seg2, nullptr);
  ShmRingConsumer cons2(*seg2);
  EXPECT_EQ(cons2.generation(), gen1 + 1);
  EXPECT_EQ(cons2.cursor(), 3u) << "restart must replay the unconsumed suffix";
  std::vector<std::uint64_t> replayed;
  while (!cons2.empty()) {
    const auto t = io::decode_tuple(cons2.peek());
    ASSERT_TRUE(t.has_value());
    replayed.push_back(t->seq);
    cons2.advance();
  }
  EXPECT_EQ(replayed, (std::vector<std::uint64_t>{4, 5}));
}

TEST(ShmPidAlive, ProbesRealPids) {
  EXPECT_TRUE(shm_pid_alive(std::uint64_t(::getpid())));
  EXPECT_FALSE(shm_pid_alive(0));
}

TEST(PeerWatch, FusesPidProbeWithHeartbeatStaleness) {
  PeerWatch watch;
  ShmPeer peer;
  EXPECT_EQ(watch.observe(peer, milliseconds(50)), PeerWatch::State::kAbsent);

  peer.pid = std::uint64_t(::getpid());
  peer.beat = 1;
  EXPECT_EQ(watch.observe(peer, milliseconds(50)), PeerWatch::State::kAlive);

  // Beat advances: progress, regardless of elapsed time.
  peer.beat = 2;
  EXPECT_EQ(watch.observe(peer, milliseconds(50)), PeerWatch::State::kAlive);

  // Frozen beat on a live pid: dead once staleness elapses — the only
  // signal available in-process, where both ends share a pid.
  std::this_thread::sleep_for(milliseconds(80));
  EXPECT_EQ(watch.observe(peer, milliseconds(50)), PeerWatch::State::kDead);

  // A generation bump (consumer restart) is progress again.
  peer.generation = 1;
  EXPECT_EQ(watch.observe(peer, milliseconds(50)), PeerWatch::State::kAlive);
}

TEST(ShmFaultInjector, CorruptSlotFiresOncePerEvent) {
  FaultInjector fault(7);
  fault.corrupt_slot(3, 30, 0x80);
  fault.corrupt_slot(3, 31);       // two events on one seq
  fault.corrupt_slot(5, 999, 0);   // offset clamped, mask promoted to 0x01

  auto plan = fault.plan_commit(3, 64);
  ASSERT_EQ(plan.flips.size(), 2u);
  EXPECT_EQ(plan.flips[0], (std::pair<std::size_t, std::uint8_t>{30, 0x80}));
  EXPECT_EQ(plan.flips[1], (std::pair<std::size_t, std::uint8_t>{31, 0x01}));
  EXPECT_FALSE(plan.die);
  EXPECT_TRUE(fault.plan_commit(3, 64).flips.empty()) << "events fire once";

  plan = fault.plan_commit(5, 40);
  ASSERT_EQ(plan.flips.size(), 1u);
  EXPECT_EQ(plan.flips[0].first, 39u) << "offset clamped to the frame";
  EXPECT_EQ(plan.flips[0].second, 0x01);
  EXPECT_EQ(fault.injected(Fault::kFlip), 3u);
  EXPECT_EQ(fault.scheduled(Fault::kFlip), 3u);
}

TEST(ShmFaultInjector, DeathAndStallSemantics) {
  FaultInjector fault;
  fault.die_at_commit(10);
  fault.stall_consume(4, milliseconds(15));
  fault.stall_consume(4, milliseconds(5));

  EXPECT_FALSE(fault.plan_commit(9, 64).die);
  EXPECT_TRUE(fault.plan_commit(10, 64).die);
  EXPECT_FALSE(fault.plan_commit(10, 64).die) << "death fires once";
  EXPECT_EQ(fault.injected(Fault::kDie), 1u);

  EXPECT_EQ(fault.plan_consume(4), milliseconds(20)) << "stalls accumulate";
  EXPECT_EQ(fault.plan_consume(4), milliseconds(0));
  EXPECT_EQ(fault.injected(Fault::kStall), 2u);
}

TEST(ShmFaultInjector, SeededRandomScheduleIsDeterministic) {
  FaultInjector a(1234);
  FaultInjector b(1234);
  a.corrupt_random(16, 100, 28, 90);
  b.corrupt_random(16, 100, 28, 90);
  ASSERT_EQ(a.scheduled(Fault::kFlip), 16u);
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    const auto pa = a.plan_commit(seq, 128);
    const auto pb = b.plan_commit(seq, 128);
    ASSERT_EQ(pa.flips, pb.flips) << "seed " << seq;
    for (const auto& [off, mask] : pa.flips) {
      EXPECT_GE(off, 28u);
      EXPECT_LE(off, 90u);
      EXPECT_NE(mask, 0);
    }
  }
  EXPECT_EQ(a.injected(Fault::kFlip), 16u);
}

}  // namespace
}  // namespace astro::stream
