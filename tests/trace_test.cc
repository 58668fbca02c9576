// Event tracing: the ring, the rate-limited logger, the wire form, and the
// GetTrace request end to end.
//
// The ring tests pin down the overwrite contract (oldest records lost,
// every loss counted in dropped() and the attached Counter). The wire
// tests round-trip a snapshot through TraceWire and then damage it every
// way the decoder guards against: truncation at every byte, an absurd
// event count, an undersized per-event size. The end-to-end test drives a
// real connection through a fault-injecting transport and checks that the
// drained window contains the request spans and transport instants the
// workload must have produced.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/connection.h"
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

TEST(TraceKindTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(TraceKind::kTraceGap); ++k) {
    const char* name = TraceKindName(static_cast<TraceKind>(k));
    ASSERT_NE(name, nullptr) << "kind " << k;
    EXPECT_NE(std::strcmp(name, "?"), 0) << "kind " << k;
  }
}

// --- RateLimitedLog ---------------------------------------------------------

TEST(RateLimitedLogTest, FirstCallLogsAndWindowSuppresses) {
  RateLimitedLog log(1000000);
  uint64_t suppressed = 123;
  EXPECT_TRUE(log.ShouldLog(10, &suppressed));
  EXPECT_EQ(suppressed, 0u);
  // Inside the window: swallowed and counted.
  EXPECT_FALSE(log.ShouldLog(500000, &suppressed));
  EXPECT_FALSE(log.ShouldLog(1000000, &suppressed));
  EXPECT_EQ(log.pending_suppressed(), 2u);
  // Past the window: logs again and reports what was swallowed.
  EXPECT_TRUE(log.ShouldLog(10 + 1000000, &suppressed));
  EXPECT_EQ(suppressed, 2u);
  EXPECT_EQ(log.pending_suppressed(), 0u);
  // The window re-anchors on the emitted message.
  EXPECT_FALSE(log.ShouldLog(10 + 1500000, &suppressed));
  EXPECT_TRUE(log.ShouldLog(10 + 2000001, &suppressed));
  EXPECT_EQ(suppressed, 1u);
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
  // trace_dropped_events is the last appended global counter; find it by
  // name so reordering the table would fail loudly here.
  size_t index = kNumServerCounters;
  for (size_t i = 0; i < kNumServerCounters; ++i) {
    if (std::strcmp(kServerCounterNames[i], "trace_dropped_events") == 0) {
      index = i;
    }
  }
  ASSERT_LT(index, kNumServerCounters);
  ASSERT_GT(stats.value().counters.size(), index);
  EXPECT_GE(stats.value().counters[index], 10u);
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
