// Event tracing: the ring, the rate-limited logger, the wire form, and the
// GetTrace request end to end.
//
// The ring tests pin down the overwrite contract (oldest records lost,
// every loss counted in dropped() and the attached Counter) and the
// storage contract (a slot page is resident only once a record lands in
// it). The wire tests round-trip a snapshot through TraceWire and then
// damage it every way the decoder guards against: truncation at every
// byte, an absurd event count, an undersized per-event size. The
// end-to-end test drives a real connection through a fault-injecting
// transport and checks that the drained window contains the request spans
// and transport instants the workload must have produced.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client/audio_context.h"
#include "client/connection.h"
#include "clients/cores.h"
#include "clients/server_runner.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "proto/stats.h"
#include "proto/trace_wire.h"
#include "transport/fault_stream.h"

namespace af {
namespace {

TraceEvent MakeEvent(TraceKind kind, uint64_t value) {
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(kind);
  ev.value = value;
  return ev;
}

TEST(TraceRingTest, DisabledRecordIsANoOp) {
  TraceRing ring(8);
  ring.Record(MakeEvent(TraceKind::kRead, 1));
  EXPECT_EQ(ring.recorded(), 0u);
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Drain(&out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(8).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);  // degenerate sizes clamp to 2
}

TEST(TraceRingTest, DrainReturnsRecordsOldestFirst) {
  TraceRing ring(8);
  ring.Enable(true);
  for (uint64_t i = 0; i < 5; ++i) {
    ring.Record(MakeEvent(TraceKind::kRead, i));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Drain(&out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].value, i);
  }
  EXPECT_EQ(ring.dropped(), 0u);
  // A second drain finds nothing new.
  out.clear();
  EXPECT_EQ(ring.Drain(&out), 0u);
}

TEST(TraceRingTest, WrapDropsOldestAndCountsEveryLoss) {
  TraceRing ring(8);
  Counter drops;
  ring.AttachDropCounter(&drops);
  ring.Enable(true);
  for (uint64_t i = 0; i < 12; ++i) {
    ring.Record(MakeEvent(TraceKind::kRead, i));
  }
  // 12 records into an 8-slot ring: the 4 oldest were overwritten.
  EXPECT_EQ(ring.dropped(), 4u);
  EXPECT_EQ(drops.Value(), 4u);
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Drain(&out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].value, i + 4);  // survivors are the newest 8, in order
  }
  // After the drain the window is current again: no further drops until
  // another full wrap.
  ring.Record(MakeEvent(TraceKind::kRead, 99));
  EXPECT_EQ(ring.dropped(), 4u);
  ring.AttachDropCounter(nullptr);
}

TEST(TraceRingTest, ClearForgetsWithoutCountingDrops) {
  TraceRing ring(8);
  ring.Enable(true);
  for (uint64_t i = 0; i < 6; ++i) {
    ring.Record(MakeEvent(TraceKind::kFlush, i));
  }
  ring.Clear();
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Drain(&out), 0u);
}

// A ring costs no resident memory until tracing writes it: a fresh ring
// has no slot page resident, and after k records exactly the pages that
// hold slots 0..k-1 are. Residency is read with mincore(2) over the pages
// the slot array spans.
TEST(TraceRingTest, SlotsBecomeResidentOnlyWhenWritten) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  TraceRing ring(4096);
  const uintptr_t begin = reinterpret_cast<uintptr_t>(ring.raw_slots());
  const uintptr_t base = begin & ~(page - 1);
  const uintptr_t end = begin + ring.capacity() * sizeof(TraceEvent);
  const size_t pages = (end - base + page - 1) / page;
  std::vector<unsigned char> resident(pages);
  size_t recorded = 0;
  ring.Enable(true);
  for (const size_t k : {size_t{0}, size_t{1}, size_t{73}, size_t{74}, size_t{1000}}) {
    for (; recorded < k; ++recorded) {
      ring.Record(MakeEvent(TraceKind::kRead, recorded));
    }
    ASSERT_EQ(mincore(reinterpret_cast<void*>(base), end - base, resident.data()), 0)
        << std::strerror(errno);
    const uintptr_t written_end = begin + k * sizeof(TraceEvent);
    for (size_t p = 0; p < pages; ++p) {
      const uintptr_t lo = base + p * page;
      const bool written = lo < written_end && lo + page > begin;
      EXPECT_EQ((resident[p] & 1) != 0, written) << "page " << p << " after " << k << " records";
    }
  }
}

TEST(TraceKindTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(kLastTraceKind); ++k) {
    const char* name = TraceKindName(static_cast<TraceKind>(k));
    ASSERT_NE(name, nullptr) << "kind " << k;
    EXPECT_NE(std::strcmp(name, "?"), 0) << "kind " << k;
  }
}

// --- TraceWire --------------------------------------------------------------

TraceWire MakeSnapshot() {
  TraceWire t;
  t.enabled = 1;
  t.dropped = 7;
  t.host_now_us = 123456789;
  for (uint64_t i = 0; i < 3; ++i) {
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kRequest);
    ev.arg = static_cast<uint8_t>(i + 1);
    ev.conn = 100 + static_cast<uint32_t>(i);
    ev.device = static_cast<uint32_t>(i);
    ev.dev_time = 4000 + static_cast<uint32_t>(i);
    ev.host_us = 1000000 + i;
    ev.dur_us = 42 + static_cast<uint32_t>(i);
    ev.value = 1ull << (20 + i);
    ev.shard = static_cast<uint16_t>(i);
    ev.corr = 0xC0FFEE00u + i;
    ev.seq = 900 + i;
    t.events.push_back(ev);
  }
  return t;
}

TEST(TraceWireTest, RoundTripPreservesEveryField) {
  const TraceWire t = MakeSnapshot();
  for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
    WireWriter w(order);
    t.Encode(w, 17);
    TraceWire d;
    ASSERT_TRUE(TraceWire::Decode(w.data(), order, &d));
    EXPECT_EQ(d.version, kTraceWireVersion);
    EXPECT_EQ(d.enabled, t.enabled);
    EXPECT_EQ(d.dropped, t.dropped);
    EXPECT_EQ(d.host_now_us, t.host_now_us);
    ASSERT_EQ(d.events.size(), t.events.size());
    for (size_t i = 0; i < t.events.size(); ++i) {
      EXPECT_EQ(d.events[i].kind, t.events[i].kind) << i;
      EXPECT_EQ(d.events[i].arg, t.events[i].arg) << i;
      EXPECT_EQ(d.events[i].conn, t.events[i].conn) << i;
      EXPECT_EQ(d.events[i].device, t.events[i].device) << i;
      EXPECT_EQ(d.events[i].dev_time, t.events[i].dev_time) << i;
      EXPECT_EQ(d.events[i].host_us, t.events[i].host_us) << i;
      EXPECT_EQ(d.events[i].dur_us, t.events[i].dur_us) << i;
      EXPECT_EQ(d.events[i].value, t.events[i].value) << i;
      EXPECT_EQ(d.events[i].shard, t.events[i].shard) << i;
      EXPECT_EQ(d.events[i].corr, t.events[i].corr) << i;
      EXPECT_EQ(d.events[i].seq, t.events[i].seq) << i;
    }
  }
}

TEST(TraceWireTest, TruncationAtEveryByteIsRejectedNotCrashed) {
  WireWriter w;
  MakeSnapshot().Encode(w, 3);
  const std::vector<uint8_t> full(w.data().begin(), w.data().end());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    TraceWire d;
    const bool ok =
        TraceWire::Decode(std::span<const uint8_t>(full.data(), cut),
                          HostWireOrder(), &d);
    EXPECT_FALSE(ok) << "decoded from a " << cut << "-byte prefix of "
                     << full.size();
  }
  TraceWire d;
  EXPECT_TRUE(TraceWire::Decode(full, HostWireOrder(), &d));
}

TEST(TraceWireTest, DamagedCountAndEventSizeAreRejected) {
  WireWriter w;
  MakeSnapshot().Encode(w, 3);
  const std::vector<uint8_t> good(w.data().begin(), w.data().end());
  // Body layout after the 32-byte reply unit: version u32, enabled u32,
  // dropped u64, host_now_us u64, event_bytes u32, count u32.
  const size_t event_bytes_at = kReplyBaseBytes + 24;
  const size_t count_at = kReplyBaseBytes + 28;
  ASSERT_GT(good.size(), count_at + 4);

  std::vector<uint8_t> bad = good;
  std::memset(bad.data() + count_at, 0xFF, 4);  // absurd count, any order
  TraceWire d;
  EXPECT_FALSE(TraceWire::Decode(bad, HostWireOrder(), &d));

  bad = good;
  std::memset(bad.data() + event_bytes_at, 0, 4);  // event_bytes below minimum
  EXPECT_FALSE(TraceWire::Decode(bad, HostWireOrder(), &d));

  bad = good;
  std::memset(bad.data() + event_bytes_at, 0xFF, 4);  // absurd event size
  EXPECT_FALSE(TraceWire::Decode(bad, HostWireOrder(), &d));
}

TEST(TraceWireTest, LargerEventRecordsFromAFutureServerAreSkippedNotMisread) {
  // Append-only evolution: a future build may grow each event record. A
  // present-day reader must consume the declared event_bytes and still
  // land on the next record. Simulate by hand-encoding a snapshot whose
  // records carry 8 trailing bytes of "new fields".
  const TraceWire t = MakeSnapshot();
  const uint32_t grown = kTraceEventWireBytes + 8;
  WireWriter w;
  w.U8(kReplyPacketType);
  w.U8(0);
  w.U16(9);
  const uint32_t body =
      4 + 4 + 8 + 8 + 4 + 4 + grown * static_cast<uint32_t>(t.events.size());
  w.U32((body + 3) / 4);
  w.Zero(kReplyBaseBytes - 8);
  w.U32(t.version);
  w.U32(t.enabled);
  w.U64(t.dropped);
  w.U64(t.host_now_us);
  w.U32(grown);
  w.U32(static_cast<uint32_t>(t.events.size()));
  for (const TraceEvent& ev : t.events) {
    w.U8(ev.kind);
    w.U8(ev.arg);
    w.U16(ev.shard);
    w.U32(ev.conn);
    w.U32(ev.device);
    w.U32(ev.dev_time);
    w.U64(ev.host_us);
    w.U32(ev.dur_us);
    w.U32(0);
    w.U64(ev.value);
    w.U64(ev.corr);
    w.U64(ev.seq);
    w.U64(0xDEADBEEF);  // a future field this reader has never heard of
  }
  w.AlignPad();
  TraceWire d;
  ASSERT_TRUE(TraceWire::Decode(w.data(), HostWireOrder(), &d));
  ASSERT_EQ(d.events.size(), t.events.size());
  for (size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(d.events[i].conn, t.events[i].conn) << i;
    EXPECT_EQ(d.events[i].value, t.events[i].value) << i;
  }
}

TEST(TraceWireTest, V1RecordsWithoutCorrFieldsStillDecode) {
  // Snapshots from a pre-correlation server advertise 40-byte records.
  // They must decode forever, with the appended fields reading as zero.
  const TraceWire t = MakeSnapshot();
  WireWriter w;
  w.U8(kReplyPacketType);
  w.U8(0);
  w.U16(9);
  const uint32_t body = 4 + 4 + 8 + 8 + 4 + 4 +
                        static_cast<uint32_t>(kTraceEventWireBytesV1 * t.events.size());
  w.U32((body + 3) / 4);
  w.Zero(kReplyBaseBytes - 8);
  w.U32(t.version);
  w.U32(t.enabled);
  w.U64(t.dropped);
  w.U64(t.host_now_us);
  w.U32(static_cast<uint32_t>(kTraceEventWireBytesV1));
  w.U32(static_cast<uint32_t>(t.events.size()));
  for (const TraceEvent& ev : t.events) {
    w.U8(ev.kind);
    w.U8(ev.arg);
    w.U16(ev.shard);
    w.U32(ev.conn);
    w.U32(ev.device);
    w.U32(ev.dev_time);
    w.U64(ev.host_us);
    w.U32(ev.dur_us);
    w.U32(0);
    w.U64(ev.value);
  }
  w.AlignPad();
  TraceWire d;
  ASSERT_TRUE(TraceWire::Decode(w.data(), HostWireOrder(), &d));
  ASSERT_EQ(d.events.size(), t.events.size());
  for (size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(d.events[i].conn, t.events[i].conn) << i;
    EXPECT_EQ(d.events[i].value, t.events[i].value) << i;
    EXPECT_EQ(d.events[i].corr, 0u) << i;
    EXPECT_EQ(d.events[i].seq, 0u) << i;
  }
}

// --- GetTrace end to end ----------------------------------------------------

class TraceEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The global ring is shared across tests in this binary; start from a
    // known-quiet state.
    GlobalTrace().Enable(false);
    GlobalTrace().Clear();
    ServerRunner::Config config;
    config.with_codec = true;
    config.realtime = false;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
  }

  void TearDown() override {
    GlobalTrace().Enable(false);
    GlobalTrace().Clear();
  }

  std::unique_ptr<ServerRunner> runner_;
};

size_t CountKind(const std::vector<TraceEvent>& events, TraceKind kind) {
  size_t n = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == static_cast<uint8_t>(kind)) {
      ++n;
    }
  }
  return n;
}

TEST_F(TraceEndToEndTest, WindowOverFaultInjectedConnectionHasTheWorkload) {
  // The server end reads through a schedule that fragments every transfer,
  // so the window must also contain fault-applied instants.
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(8);
  auto opened = runner_->ConnectInProcess(nullptr, faults);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<AFAudioConn> conn = opened.take();

  auto first = conn->GetTrace(kTraceFlagEnable);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().enabled, 1u);

  // A small workload whose spans must show up in the window.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn->GetTime(0).ok());
  }

  auto snap = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(snap.ok());
  const TraceWire& t = snap.value();
  EXPECT_EQ(t.enabled, 0u);
  EXPECT_EQ(t.version, kTraceWireVersion);
  EXPECT_GT(t.host_now_us, 0u);

  size_t get_time_spans = 0;
  for (const TraceEvent& ev : t.events) {
    if (ev.kind == static_cast<uint8_t>(TraceKind::kRequest) &&
        ev.arg == static_cast<uint8_t>(Opcode::kGetTime)) {
      ++get_time_spans;
      EXPECT_NE(ev.conn, 0u);
      EXPECT_GT(ev.host_us, 0u);
    }
  }
  EXPECT_EQ(get_time_spans, 5u);
  // The transport read instants for those requests, and the fragmenting
  // schedule's fault instants, ride in the same window.
  EXPECT_GT(CountKind(t.events, TraceKind::kRead), 0u);
  EXPECT_GT(CountKind(t.events, TraceKind::kFaultApplied), 0u);

  // After the disabling fetch, traffic leaves no records.
  ASSERT_TRUE(conn->GetTime(0).ok());
  auto after = conn->GetTrace(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().enabled, 0u);
  EXPECT_EQ(CountKind(after.value().events, TraceKind::kRequest), 0u);
}

TEST_F(TraceEndToEndTest, DroppedEventsSurfaceInServerStats) {
  auto opened = runner_->ConnectInProcess();
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<AFAudioConn> conn = opened.take();

  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());
  // Overflow the ring from the server loop thread (the ring's writer), so
  // the drop accounting is exercised exactly as in production.
  const size_t capacity = GlobalTrace().capacity();
  runner_->RunOnLoop([&] {
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kFlush);
    for (size_t i = 0; i < capacity + 10; ++i) {
      GlobalTrace().Record(ev);
    }
  });

  auto snap = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(snap.ok());
  EXPECT_GE(snap.value().dropped, 10u);
  EXPECT_EQ(snap.value().events.size(), capacity);

  auto stats = conn->GetServerStats();
  ASSERT_TRUE(stats.ok());
  const size_t index = ServerCounterSlot("trace_dropped_events");
  ASSERT_GT(stats.value().counters.size(), index);
  EXPECT_GE(stats.value().counters[index], 10u);
}

// Lines of atrace's text output that contain every one of `needles`.
size_t CountLines(const std::string& text, std::initializer_list<const char*> needles) {
  size_t n = 0;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string_view line(text.data() + begin, end - begin);
    bool all = true;
    for (const char* needle : needles) {
      all = all && line.find(needle) != std::string_view::npos;
    }
    n += all ? 1 : 0;
    begin = end + 1;
  }
  return n;
}

TEST_F(TraceEndToEndTest, FollowPrintsEveryRecordOfEveryPlay) {
  // Records made before atrace starts following: each play's span is
  // recorded after the mix_write instant inside it but stamped with its
  // start time, so a host-sorted window puts the span first. Every record
  // of every play must still be printed, at any shard count.
  auto opened = runner_->ConnectInProcess();
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<AFAudioConn> conn = opened.take();
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());
  auto ac = conn->CreateAC(0, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  auto now = conn->GetTime(0);
  ASSERT_TRUE(now.ok());
  constexpr size_t kPlays = 300;
  const std::vector<uint8_t> block(80, 0x40);
  for (size_t i = 0; i < kPlays; ++i) {
    ASSERT_TRUE(ac.value()->PlaySamples(now.value() + 100, block).ok());
  }

  AtraceOptions options;
  options.follow_seconds = 0.05;
  options.poll_interval_seconds = 0.01;
  options.disable_after = true;
  auto text = RunAtrace(*conn, options);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(CountLines(text.value(), {" request ", "PlaySamples"}), kPlays);
  EXPECT_EQ(CountLines(text.value(), {" mix_write "}), kPlays);
}

// Every shard records into a ring of its own, so one in-process server's
// lifetime never reaches another's tracing. Here a second server is torn
// down on another thread while the first serves traced requests; the
// first's window must still hold every one of them (and a TSan build must
// see no race on any ring's generation gate).
TEST(TraceRingOwnershipTest, TearingDownOneServerLeavesAnotherTracing) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto survivor = ServerRunner::Start(config);
  auto doomed = ServerRunner::Start(config);
  ASSERT_NE(survivor, nullptr);
  ASSERT_NE(doomed, nullptr);
  auto kept = survivor->ConnectInProcess();
  auto lost = doomed->ConnectInProcess();
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(lost.ok());
  std::unique_ptr<AFAudioConn> conn = kept.take();
  std::unique_ptr<AFAudioConn> other = lost.take();
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());
  ASSERT_TRUE(other->GetTrace(kTraceFlagEnable).ok());

  constexpr size_t kRequests = 50;
  std::thread teardown([&] {
    other.reset();
    doomed.reset();
  });
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(conn->GetTime(0).ok());
  }
  teardown.join();

  auto window = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(window.ok());
  size_t get_time_spans = 0;
  for (const TraceEvent& ev : window.value().events) {
    get_time_spans += ev.kind == static_cast<uint8_t>(TraceKind::kRequest) &&
                      ev.arg == static_cast<uint8_t>(Opcode::kGetTime);
  }
  EXPECT_EQ(get_time_spans, kRequests);
  EXPECT_EQ(window.value().enabled, 0u);
}

}  // namespace
}  // namespace af
