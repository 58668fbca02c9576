// Failover torture (PR 8): a dead server must not strand its clients.
//
// Covers the whole replication + reconnect stack: the op-log wire format,
// primary->backup shadow application and promotion, the client library's
// reconnect state machine end to end (kill the primary, heal onto the
// promoted backup, measure the audio gap), a kill-the-server sweep at
// every opcode boundary in the canonical request corpus, kills in every
// reconnect-machine state (factory failure, dead stream during setup,
// attempts exhausted), plus the two satellite regressions: the connect
// deadline must bound a connect against a full listener backlog (and
// resume EINTR instead of aborting), and astat must flag a server restart
// instead of printing an all-zero saturated diff.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "client/audio_context.h"
#include "clients/cores.h"
#include "clients/server_runner.h"
#include "common/trace.h"
#include "proto/oplog.h"
#include "proto/stats.h"
#include "server/replication.h"
#include "torture_util.h"
#include "transport/fault_stream.h"
#include "transport/stream.h"

namespace af {
namespace {

using torture::CanonicalRequest;

int64_t ElapsedMs(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Busy-wait helpers for the asynchronous replication reader thread; every
// wait is bounded so a regression fails fast instead of hanging.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (ElapsedMs(start) > timeout_ms) {
      return false;
    }
    (void)::poll(nullptr, 0, 1);
  }
  return true;
}

// Reconnect factory that lands the healed connection on `runner` via an
// adopted socketpair (the in-process stand-in for re-resolving the name).
AFAudioConn::ReconnectFactory AdoptInto(ServerRunner* runner) {
  return [runner]() -> Result<FdStream> {
    auto pair = CreateStreamPair();
    if (!pair.ok()) {
      return pair.status();
    }
    runner->server().AdoptClient(std::move(pair.value().second));
    return std::move(pair.value().first);
  };
}

ServerRunner::Config ManualConfig() {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  return config;
}

// ---------------------------------------------------------------------------
// Op-log wire format

TEST(OplogWireTest, HelloRoundTripsBothOrders) {
  for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
    WireWriter w(order);
    EncodeOplogHello(w);
    ASSERT_EQ(w.size(), kOplogHelloBytes);
    const auto hello = DecodeOplogHello(w.data());
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->order, order);
    EXPECT_EQ(hello->record_bytes, kOplogRecordBytes);
  }
}

TEST(OplogWireTest, BadMagicRejected) {
  WireWriter w;
  EncodeOplogHello(w);
  auto bytes = w.Take();
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(DecodeOplogHello(bytes).has_value());
  EXPECT_FALSE(DecodeOplogHello({bytes.data(), 4}).has_value());  // short
}

TEST(OplogWireTest, RecordRoundTripsBothOrders) {
  OplogRecord rec;
  rec.seq = 0x0102030405060708ull;
  rec.type = static_cast<uint16_t>(OplogType::kACChange);
  rec.client = 7;
  rec.device = 3;
  rec.ac = 0x2000001;
  rec.value_mask = kACPlayGain | kACChannels;
  rec.attrs.play_gain_db = -6;
  rec.attrs.record_gain_db = 12;
  rec.attrs.preempt = 1;
  rec.attrs.big_endian_data = 1;
  rec.attrs.encoding = AEncodeType::kLin16;
  rec.attrs.channels = 2;
  rec.value = 0xDEADBEEFCAFEF00Dull;
  for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
    WireWriter w(order);
    EncodeOplogRecord(w, rec);
    ASSERT_EQ(w.size(), kOplogRecordBytes);
    OplogRecord out;
    ASSERT_TRUE(DecodeOplogRecord(w.data(), order, kOplogRecordBytes, &out));
    EXPECT_EQ(out.seq, rec.seq);
    EXPECT_EQ(out.type, rec.type);
    EXPECT_EQ(out.client, rec.client);
    EXPECT_EQ(out.device, rec.device);
    EXPECT_EQ(out.ac, rec.ac);
    EXPECT_EQ(out.value_mask, rec.value_mask);
    EXPECT_EQ(out.attrs.play_gain_db, rec.attrs.play_gain_db);
    EXPECT_EQ(out.attrs.record_gain_db, rec.attrs.record_gain_db);
    EXPECT_EQ(out.attrs.preempt, rec.attrs.preempt);
    EXPECT_EQ(out.attrs.big_endian_data, rec.attrs.big_endian_data);
    EXPECT_EQ(out.attrs.encoding, rec.attrs.encoding);
    EXPECT_EQ(out.attrs.channels, rec.attrs.channels);
    EXPECT_EQ(out.value, rec.value);
  }
}

TEST(OplogWireTest, LargerRecordSizeSkipsUnknownTail) {
  // A future primary may append fields: its hello carries a larger
  // record_bytes and this build's decoder must skip the tail it does not
  // know, per the append-only evolution rule.
  OplogRecord rec;
  rec.seq = 42;
  rec.type = static_cast<uint16_t>(OplogType::kWatermark);
  rec.device = 1;
  rec.value = 48000;
  WireWriter w;
  EncodeOplogRecord(w, rec);
  for (int i = 0; i < 16; ++i) {
    w.U8(0xEE);  // the unknown future tail
  }
  OplogRecord out;
  ASSERT_TRUE(
      DecodeOplogRecord(w.data(), HostWireOrder(), kOplogRecordBytes + 16, &out));
  EXPECT_EQ(out.seq, rec.seq);
  EXPECT_EQ(out.type, rec.type);
  EXPECT_EQ(out.value, rec.value);
}

TEST(OplogWireTest, AckRoundTrips) {
  WireWriter w;
  EncodeOplogAck(w, 0x1122334455667788ull);
  ASSERT_EQ(w.size(), kOplogAckBytes);
  const auto seq = DecodeOplogAck(w.data(), HostWireOrder());
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(*seq, 0x1122334455667788ull);
  EXPECT_FALSE(DecodeOplogAck({w.data().data(), 4}, HostWireOrder()).has_value());
}

// ---------------------------------------------------------------------------
// Primary -> backup: shadow application and promotion

TEST(ReplicationBackupTest, AppliesShadowAndPromotesOnLinkDeath) {
  auto backup = ServerRunner::Start(ManualConfig());
  ASSERT_NE(backup, nullptr);
  auto link = CreateStreamPair();
  ASSERT_TRUE(link.ok());
  backup->server().AttachReplicationBackup(std::move(link.value().second));
  ReplicationPrimary primary(std::move(link.value().first));
  ReplicationBackup* rb = backup->server().replication_backup();
  ASSERT_NE(rb, nullptr);

  const uint32_t dev = backup->codec_id() + 1;  // op-log device = id + 1
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kClientConnect);
  rec.client = 7;
  primary.Emit(rec);
  rec = OplogRecord();
  rec.type = static_cast<uint16_t>(OplogType::kACCreate);
  rec.client = 7;
  rec.device = dev;
  rec.ac = 0x2000001;
  rec.value_mask = kACPlayGain;
  rec.attrs.play_gain_db = -6;
  primary.Emit(rec);
  rec = OplogRecord();
  rec.type = static_cast<uint16_t>(OplogType::kInputGain);
  rec.device = dev;
  rec.value = static_cast<uint64_t>(static_cast<int64_t>(-12));
  primary.Emit(rec);
  rec = OplogRecord();
  rec.type = static_cast<uint16_t>(OplogType::kEnableOutput);
  rec.device = dev;
  rec.value = 0x1;
  primary.Emit(rec);
  rec = OplogRecord();
  rec.type = static_cast<uint16_t>(OplogType::kWatermark);
  rec.device = dev;
  rec.value = 12345;
  primary.Emit(rec);
  EXPECT_EQ(primary.emitted(), 5u);

  ASSERT_TRUE(WaitFor([&] { return rb->applied() >= 5; }));
  EXPECT_EQ(rb->shadow_clients(), 1u);
  EXPECT_EQ(rb->shadow_acs(), 1u);
  ACAttributes shadow;
  ASSERT_TRUE(rb->ShadowACAttrs(0x2000001, &shadow));
  EXPECT_EQ(shadow.play_gain_db, -6);
  EXPECT_FALSE(rb->ShadowACAttrs(0x999, &shadow));

  // Acks flow backup -> primary; the primary drains them on Emit.
  ASSERT_TRUE(WaitFor([&] {
    OplogRecord ping;
    ping.type = static_cast<uint16_t>(OplogType::kClientConnect);
    ping.client = 8;
    primary.Emit(ping);
    return primary.acked() >= 5;
  }));

  // The link dies: the backup promotes, replays device settings onto its
  // own devices, and fast-forwards device time to the watermark.
  primary.DropLink();
  ASSERT_TRUE(rb->WaitPromoted(5000));
  EXPECT_TRUE(backup->server().promoted());
  EXPECT_EQ(backup->server().promoted_watermark(backup->codec_id()), 12345u);
  int input_gain = 0;
  uint32_t output_mask = 0;
  ATime dev_time = 0;
  backup->RunOnLoop([&] {
    input_gain = backup->codec()->input_gain_db();
    output_mask = backup->codec()->output_enable_mask();
    dev_time = backup->codec()->GetTime();
  });
  EXPECT_EQ(input_gain, -12);
  EXPECT_EQ(output_mask, 0x1u);
  EXPECT_TRUE(TimeAtOrAfter(dev_time, 12345))
      << "device time " << dev_time << " behind the promoted watermark";
}

// Regression: every reply that hands a device time to a client must push
// the replicated watermark, not just PlaySamples — a record-only or
// GetTime-only session would otherwise see the promoted backup's clock
// behind times it already observed.
TEST(ReplicationBackupTest, RecordAndGetTimeRepliesPushWatermark) {
  auto primary = ServerRunner::Start(ManualConfig());
  auto backup = ServerRunner::Start(ManualConfig());
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(backup, nullptr);
  auto link = CreateStreamPair();
  ASSERT_TRUE(link.ok());
  primary->server().AttachReplicationPrimary(std::move(link.value().first));
  backup->server().AttachReplicationBackup(std::move(link.value().second));
  ReplicationBackup* rb = backup->server().replication_backup();
  ASSERT_NE(rb, nullptr);

  auto conn_result = primary->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  conn->SetErrorHandler([](AFAudioConn&, const ErrorPacket&) {});
  conn->SetIOErrorHandler([](AFAudioConn&) {});

  // A record-only session: PlaySamples never runs, yet both replies below
  // hand out device times that must land in the backup's shadow.
  ACAttributes attrs;
  attrs.channels = 1;
  auto ac = conn->CreateAC(0, kACChannels, attrs);
  ASSERT_TRUE(ac.ok());
  primary->manual_clock()->Advance(3000);
  std::vector<uint8_t> buf(256);
  auto rec = ac.value()->RecordSamples(0, buf, /*block=*/false);
  ASSERT_TRUE(rec.ok());
  primary->manual_clock()->Advance(500);
  auto t = conn->GetTime(0);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(TimeAfter(t.value(), rec.value().time));

  const uint64_t emitted = primary->server().replication_primary()->emitted();
  ASSERT_GT(emitted, 0u);
  ASSERT_TRUE(WaitFor([&] { return rb->applied() >= emitted; }));

  primary.reset();
  ASSERT_TRUE(rb->WaitPromoted(5000));
  const ATime promoted = backup->server().promoted_watermark(0);
  EXPECT_TRUE(TimeAtOrAfter(promoted, rec.value().time))
      << "promoted watermark " << promoted << " behind the RecordSamples reply "
      << rec.value().time;
  EXPECT_TRUE(TimeAtOrAfter(promoted, t.value()))
      << "promoted watermark " << promoted << " behind the GetTime reply "
      << t.value();
}

TEST(ReplicationPrimaryTest, AckWindowOverflowDropsLinkNotServer) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  ReplicationPrimary primary(std::move(pair.value().first));
  FdStream dead_backup = std::move(pair.value().second);  // never reads, never acks

  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kClientConnect);
  rec.client = 1;
  for (uint64_t i = 0; i < ReplicationPrimary::kAckWindow + 8; ++i) {
    primary.Emit(rec);
  }
  EXPECT_FALSE(primary.link_up());
  EXPECT_GE(primary.overflows(), 1u);
  EXPECT_EQ(primary.emitted(), ReplicationPrimary::kAckWindow);
  primary.Emit(rec);  // further emits are cheap no-ops, never a hazard
  EXPECT_EQ(primary.emitted(), ReplicationPrimary::kAckWindow);
}

// ---------------------------------------------------------------------------
// ResyncTime (opcode 40) basics

TEST(ResyncTimeTest, ReportsServerTimeAndPromotionState) {
  auto runner = ServerRunner::Start(ManualConfig());
  ASSERT_NE(runner, nullptr);
  auto conn_result = runner->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();

  auto t0 = conn->GetTime(0);
  ASSERT_TRUE(t0.ok());
  runner->manual_clock()->Advance(500);
  auto reply = conn->ResyncTime(0, t0.value());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().promoted, 0u);  // this server never failed over
  EXPECT_TRUE(TimeAtOrAfter(reply.value().server_time, t0.value()));

  // A bad device errors instead of inventing a clock.
  auto bad = conn->ResyncTime(99, 0);
  EXPECT_FALSE(bad.ok());

  auto stats = conn->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().counters[ServerCounterSlot("resyncs")], 1u);
  EXPECT_EQ(stats.value().counters[ServerCounterSlot("failovers_promoted")], 0u);
}

TEST(ResyncTimeTest, EmitsResyncTraceInstantWithMeasuredGap) {
  auto runner = ServerRunner::Start(ManualConfig());
  ASSERT_NE(runner, nullptr);
  auto conn_result = runner->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();

  EXPECT_STREQ(TraceKindName(TraceKind::kResync), "resync");  // atrace label
  auto on = conn->GetTrace(kTraceFlagEnable);
  ASSERT_TRUE(on.ok());
  runner->manual_clock()->Advance(500);
  // Client watermark 1, server clock ~500: the trace instant carries the
  // measured gap.
  auto reply = conn->ResyncTime(0, 1);
  ASSERT_TRUE(reply.ok());
  auto drained = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(drained.ok());
  bool found = false;
  for (const TraceEvent& ev : drained.value().events) {
    if (ev.kind == static_cast<uint8_t>(TraceKind::kResync)) {
      found = true;
      EXPECT_GT(ev.value, 0u) << "resync instant should carry the gap";
    }
  }
  EXPECT_TRUE(found) << "no resync instant in the drained trace";
}

// ---------------------------------------------------------------------------
// End to end: kill the primary, heal onto the promoted backup

TEST(FailoverEndToEndTest, ClientRidesOverPrimaryDeathWithBoundedGap) {
  auto primary = ServerRunner::Start(ManualConfig());
  auto backup = ServerRunner::Start(ManualConfig());
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(backup, nullptr);
  auto link = CreateStreamPair();
  ASSERT_TRUE(link.ok());
  // Both roles attach before any client connects (the attach is the
  // happens-before for the shard threads' view of the primary link).
  primary->server().AttachReplicationPrimary(std::move(link.value().first));
  backup->server().AttachReplicationBackup(std::move(link.value().second));
  ReplicationBackup* rb = backup->server().replication_backup();
  ASSERT_NE(rb, nullptr);

  auto conn_result = primary->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  conn->SetErrorHandler([](AFAudioConn&, const ErrorPacket&) {});
  bool io_error = false;
  conn->SetIOErrorHandler([&](AFAudioConn&) { io_error = true; });
  AFAudioConn::ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_ms = 1;
  conn->SetReconnectPolicy(policy);
  conn->SetReconnectFactory(AdoptInto(backup.get()));

  // Build up session state the failover must carry over.
  conn->SetInputGain(0, -6);
  conn->SetOutputGain(0, -9);
  conn->SelectEvents(0, 0x1);
  ACAttributes attrs;
  attrs.play_gain_db = -3;
  // Left out of the mask: the server stores its defaults for these, and so
  // must the client's mirror that the reconnect replays.
  attrs.record_gain_db = 12;
  attrs.big_endian_data = 1;
  auto ac_result = conn->CreateAC(0, kACPlayGain, attrs);
  ASSERT_TRUE(ac_result.ok());
  AC* ac = ac_result.value();
  const ACId old_id = ac->id();
  auto t0 = conn->GetTime(0);
  ASSERT_TRUE(t0.ok());
  const std::vector<uint8_t> pattern(1600, 0x55);
  auto played = ac->PlaySamples(t0.value(), pattern);
  ASSERT_TRUE(played.ok());
  conn->Sync();

  // Every record the primary emitted must land in the backup's shadow.
  const uint64_t emitted = primary->server().replication_primary()->emitted();
  ASSERT_GT(emitted, 0u);
  ASSERT_TRUE(WaitFor([&] { return rb->applied() >= emitted; }));

  // Replicated attributes are bit-equal to the client's mirror.
  ACAttributes shadow;
  ASSERT_TRUE(rb->ShadowACAttrs(old_id, &shadow));
  EXPECT_EQ(shadow.play_gain_db, ac->attrs().play_gain_db);
  EXPECT_EQ(shadow.record_gain_db, ac->attrs().record_gain_db);
  EXPECT_EQ(shadow.preempt, ac->attrs().preempt);
  EXPECT_EQ(shadow.big_endian_data, ac->attrs().big_endian_data);
  EXPECT_EQ(shadow.encoding, ac->attrs().encoding);
  EXPECT_EQ(shadow.channels, ac->attrs().channels);

  // The primary dies. The backup promotes; its clock then runs 800 samples
  // past the watermark the dead primary last handed out, so the healed
  // client must measure a gap of about that much.
  const ATime watermark = played.value();
  primary.reset();
  ASSERT_TRUE(rb->WaitPromoted(5000));
  EXPECT_TRUE(backup->server().promoted());
  EXPECT_EQ(backup->server().promoted_watermark(0), watermark);
  backup->manual_clock()->Advance(800);

  // First request after the death heals the connection transparently.
  auto t1 = conn->GetTime(0);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(conn->reconnects(), 1u);
  EXPECT_TRUE(conn->promoted_peer());
  EXPECT_FALSE(io_error);
  EXPECT_FALSE(conn->broken());
  const uint64_t gap = conn->resync_gap_samples();
  EXPECT_GE(gap, 1u) << "outage cost no measurable audio?";
  EXPECT_LE(gap, 4000u) << "gap not bounded";
  // scripts/ci.sh greps this line in the kill-primary smoke.
  std::printf("resync_gap_samples=%" PRIu64 " bound=4000\n", gap);

  // The replayed session is live on the backup: device settings stuck and
  // the surviving AC object plays on its new id.
  int input_gain = 0;
  int output_gain = 0;
  backup->RunOnLoop([&] {
    input_gain = backup->codec()->input_gain_db();
    output_gain = backup->codec()->output_gain_db();
  });
  EXPECT_EQ(input_gain, -6);
  EXPECT_EQ(output_gain, -9);
  // The AC was re-created under the new connection's id base (which may
  // numerically equal the old one when the backup assigns the same client
  // number); what matters is that the object still plays.
  auto replayed = ac->PlaySamples(t1.value(), pattern);
  EXPECT_TRUE(replayed.ok());

  auto stats = conn->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().counters[ServerCounterSlot("resyncs")], 1u);
  EXPECT_EQ(stats.value().counters[ServerCounterSlot("failovers_promoted")], 1u);
}

// ---------------------------------------------------------------------------
// Kill-the-server sweep: every opcode boundary, plus mid-request

class FailoverTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config = ManualConfig();
    config.with_phone = true;  // so telephony opcodes hit a real device
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    bystander_ = conn.take();
  }

  // A reconnect-enabled client whose transport dies at `cut_offset` bytes
  // written (the setup handshake counts toward the offset).
  std::unique_ptr<AFAudioConn> NewVictim(uint64_t cut_offset) {
    auto faults = std::make_shared<FaultSchedule>();
    faults->CutWriteAt(cut_offset);
    auto conn = runner_->ConnectInProcess(faults);
    if (!conn.ok()) {
      return nullptr;
    }
    auto victim = conn.take();
    victim->SetErrorHandler([](AFAudioConn&, const ErrorPacket&) {});
    victim->SetIOErrorHandler([](AFAudioConn&) {});
    AFAudioConn::ReconnectPolicy policy;
    policy.enabled = true;
    policy.backoff_ms = 1;
    victim->SetReconnectPolicy(policy);
    victim->SetReconnectFactory(AdoptInto(runner_.get()));
    return victim;
  }

  std::unique_ptr<ServerRunner> runner_;
  std::unique_ptr<AFAudioConn> bystander_;
};

TEST_F(FailoverTortureTest, KillAtEveryOpcodeBoundary) {
  SetupRequest setup;
  setup.order = HostWireOrder();
  const size_t setup_bytes = setup.Encode().size();
  for (uint8_t opi = kMinOpcode; opi <= kMaxOpcode; ++opi) {
    const Opcode op = static_cast<Opcode>(opi);
    const auto req = CanonicalRequest(op);
    // Two kill points per opcode: exactly at the request boundary (the
    // request went out whole, the connection died before the next one) and
    // mid-request (the request itself died half-sent).
    for (const size_t cut : {req.size(), req.size() / 2}) {
      auto victim = NewVictim(setup_bytes + cut);
      ASSERT_NE(victim, nullptr) << "opcode " << int(opi);
      victim->out_for_test().Bytes(req.data(), req.size());
      victim->Flush();
      // The next round trip rides the reconnect machinery: the write hits
      // the cut, the machine heals onto a fresh connection, and the awaited
      // request is reissued there.
      victim->Sync();
      EXPECT_FALSE(victim->broken()) << "opcode " << int(opi) << " cut " << cut;
      EXPECT_EQ(victim->reconnects(), 1u) << "opcode " << int(opi) << " cut " << cut;
      auto t = victim->GetTime(0);
      EXPECT_TRUE(t.ok()) << "opcode " << int(opi) << " cut " << cut;
    }
  }
  auto t = bystander_->GetTime(0);  // bystanders never caught any shrapnel
  EXPECT_TRUE(t.ok());
}

TEST_F(FailoverTortureTest, SessionStateSurvivesKillInsideMutationBatch) {
  // Like the boundary sweep, but through the real client API with real
  // session state: the queued mutation batch (gains, masks, CreateAC, the
  // sync) dies at various byte offsets into its flush, and the replayed
  // session must come out whole on the healed connection. The batch is
  // well over 64 bytes (three 12-byte requests plus a CreateAC), so every
  // cut below lands inside it.
  SetupRequest setup;
  setup.order = HostWireOrder();
  const size_t setup_bytes = setup.Encode().size();
  ACAttributes attrs;
  attrs.play_gain_db = -3;

  for (const size_t extra : {size_t{1}, size_t{9}, size_t{33}, size_t{63}}) {
    auto victim = NewVictim(setup_bytes + extra);
    ASSERT_NE(victim, nullptr);
    victim->SetInputGain(0, -6);
    victim->EnableOutput(0, 0x1);
    victim->DisableOutput(0, ~0x1u);
    auto ac = victim->CreateAC(0, kACPlayGain, attrs);  // queued, not awaited
    ASSERT_TRUE(ac.ok());
    victim->Sync();  // the flush inside hits the cut; the machine heals
    ASSERT_FALSE(victim->broken()) << "cut at setup+" << extra;
    EXPECT_EQ(victim->reconnects(), 1u) << "cut at setup+" << extra;
    auto gain = victim->QueryInputGain(0);
    ASSERT_TRUE(gain.ok()) << "cut at setup+" << extra;
    EXPECT_EQ(gain.value().gain_db, -6) << "cut at setup+" << extra;
    EXPECT_EQ(ac.value()->attrs().play_gain_db, -3);
  }
  auto t = bystander_->GetTime(0);
  EXPECT_TRUE(t.ok());
}

// ---------------------------------------------------------------------------
// Kills in every reconnect-machine state

TEST(ReconnectStateTest, RetriesFactoryFailuresWithinAttemptBudget) {
  auto doomed = ServerRunner::Start(ManualConfig());
  auto haven = ServerRunner::Start(ManualConfig());
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(haven, nullptr);
  auto conn_result = doomed->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  bool io_error = false;
  conn->SetIOErrorHandler([&](AFAudioConn&) { io_error = true; });
  AFAudioConn::ReconnectPolicy policy;
  policy.enabled = true;
  policy.max_attempts = 3;
  policy.backoff_ms = 1;
  conn->SetReconnectPolicy(policy);
  int calls = 0;
  auto adopt = AdoptInto(haven.get());
  conn->SetReconnectFactory([&]() -> Result<FdStream> {
    ++calls;
    if (calls <= 2) {
      return Status(AfError::kConnectionLost, "injected factory failure");
    }
    return adopt();
  });

  doomed.reset();
  auto t = conn->GetTime(0);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(conn->reconnects(), 1u);
  EXPECT_FALSE(io_error);
}

TEST(ReconnectStateTest, DeadStreamDuringSetupRetriesNextAttempt) {
  auto doomed = ServerRunner::Start(ManualConfig());
  auto haven = ServerRunner::Start(ManualConfig());
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(haven, nullptr);
  auto conn_result = doomed->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  bool io_error = false;
  conn->SetIOErrorHandler([&](AFAudioConn&) { io_error = true; });
  AFAudioConn::ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_ms = 1;
  conn->SetReconnectPolicy(policy);
  int calls = 0;
  auto adopt = AdoptInto(haven.get());
  conn->SetReconnectFactory([&]() -> Result<FdStream> {
    ++calls;
    if (calls == 1) {
      // A stream whose peer is already gone: the setup handshake on it
      // must fail and roll the machine into the next attempt.
      auto pair = CreateStreamPair();
      if (!pair.ok()) {
        return pair.status();
      }
      return std::move(pair.value().first);  // second half closes here
    }
    return adopt();
  });

  doomed.reset();
  auto t = conn->GetTime(0);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(conn->reconnects(), 1u);
  EXPECT_FALSE(io_error);
}

TEST(ReconnectStateTest, ExhaustedAttemptsFallBackToIOErrorHandler) {
  auto doomed = ServerRunner::Start(ManualConfig());
  ASSERT_NE(doomed, nullptr);
  auto conn_result = doomed->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  bool io_error = false;
  conn->SetIOErrorHandler([&](AFAudioConn&) { io_error = true; });
  AFAudioConn::ReconnectPolicy policy;
  policy.enabled = true;
  policy.max_attempts = 2;
  policy.backoff_ms = 1;
  conn->SetReconnectPolicy(policy);
  int calls = 0;
  conn->SetReconnectFactory([&]() -> Result<FdStream> {
    ++calls;
    return Status(AfError::kConnectionLost, "injected: no server anywhere");
  });

  doomed.reset();
  auto t = conn->GetTime(0);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(conn->broken());
  EXPECT_TRUE(io_error);
  EXPECT_EQ(conn->reconnects(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite regression: connect deadline against a full listener backlog

// A listening UNIX socket that never accepts, with its backlog stuffed by
// raw nonblocking connects so further connects cannot complete.
class FullBacklogListener {
 public:
  bool Open() {
    path_ = "/tmp/af_failover_dl_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++) + ".sock";
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return false;
    }
    struct sockaddr_un sun = {};
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, path_.c_str(), sizeof(sun.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&sun), sizeof(sun)) != 0 ||
        ::listen(listen_fd_, 0) != 0) {
      return false;
    }
    // Stuff the backlog until the kernel turns connects away.
    for (int i = 0; i < 64; ++i) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        return false;
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      const int rc =
          ::connect(fd, reinterpret_cast<struct sockaddr*>(&sun), sizeof(sun));
      fillers_.push_back(fd);
      if (rc != 0 && errno == EAGAIN) {
        return true;  // the queue is full; the next connect cannot finish
      }
    }
    return false;
  }

  ~FullBacklogListener() {
    for (const int fd : fillers_) {
      ::close(fd);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
    }
    if (!path_.empty()) {
      ::unlink(path_.c_str());
    }
  }

  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  int listen_fd_ = -1;
  std::vector<int> fillers_;
  std::string path_;
};

TEST(ConnectDeadlineTest, DeadlineBoundsConnectAgainstFullBacklog) {
  FullBacklogListener listener;
  ASSERT_TRUE(listener.Open()) << "could not fill the listen backlog";
  const auto start = std::chrono::steady_clock::now();
  auto r = ConnectUnix(listener.path(), 250);
  const int64_t ms = ElapsedMs(start);
  EXPECT_FALSE(r.ok()) << "connected through a full backlog?";
  EXPECT_GE(ms, 200) << "gave up before the deadline";
  EXPECT_LT(ms, 5000) << "deadline not honored (the pre-fix behavior hangs here)";
}

TEST(ConnectDeadlineTest, DeadlineStillConnectsWhenBacklogHasRoom) {
  // A queued UNIX connect completes without an accept, so a listener with
  // room proves the deadline path still connects.
  const std::string path =
      "/tmp/af_failover_ok_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  struct sockaddr_un sun = {};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<struct sockaddr*>(&sun), sizeof(sun)), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  auto with_deadline = ConnectUnix(path, 250);
  EXPECT_TRUE(with_deadline.ok());
  auto without_deadline = ConnectUnix(path);  // the historical default
  EXPECT_TRUE(without_deadline.ok());
  ::close(lfd);
  ::unlink(path.c_str());
}

void NoopSignalHandler(int) {}

TEST(ConnectDeadlineTest, EintrResumesWithRemainingTime) {
  // The satellite bug: EINTR used to abort the connect. A repeating timer
  // peppers the wait with signals; the connect must still run the full
  // deadline and report timeout, not an early EINTR failure.
  FullBacklogListener listener;
  ASSERT_TRUE(listener.Open()) << "could not fill the listen backlog";
  struct sigaction sa = {};
  sa.sa_handler = NoopSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old_sa;
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_sa), 0);
  struct itimerval timer = {};
  timer.it_interval.tv_usec = 30000;  // 30 ms, repeating
  timer.it_value.tv_usec = 30000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, nullptr), 0);

  const auto start = std::chrono::steady_clock::now();
  auto r = ConnectUnix(listener.path(), 300);
  const int64_t ms = ElapsedMs(start);

  struct itimerval off = {};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  ::sigaction(SIGALRM, &old_sa, nullptr);

  EXPECT_FALSE(r.ok());
  EXPECT_GE(ms, 250) << "EINTR aborted the wait early (the satellite bug)";
  EXPECT_LT(ms, 5000);
}

// ---------------------------------------------------------------------------
// Satellite regression: astat --watch across a server restart

TEST(AstatRestartTest, WatchDetectsRestartInsteadOfZeroDiff) {
  auto first = ServerRunner::Start(ManualConfig());
  auto second = ServerRunner::Start(ManualConfig());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  auto conn_result = first->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  AFAudioConn::ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_ms = 1;
  conn->SetReconnectPolicy(policy);
  conn->SetReconnectFactory(AdoptInto(second.get()));

  // Pump the first server's counters well past anything the fresh second
  // server could have, then snapshot both sides of the "restart".
  for (int i = 0; i < 25; ++i) {
    conn->Sync();
  }
  auto prev = conn->GetServerStats();
  ASSERT_TRUE(prev.ok());
  first.reset();  // the "restart": the same name now serves a new process
  auto cur = conn->GetServerStats();
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(conn->reconnects(), 1u);

  const size_t req_slot = ServerCounterSlot("requests_dispatched");
  ASSERT_GT(prev.value().counters[req_slot], cur.value().counters[req_slot]);

  // The regression: the saturating diff silently reports an all-zero
  // interval. Detection must flag the restart instead.
  const ServerStatsWire diff = DiffServerStats(prev.value(), cur.value());
  EXPECT_EQ(diff.counters[req_slot], 0u);
  EXPECT_TRUE(ServerStatsRegressed(prev.value(), cur.value()));

  // The annotated report, both renderings.
  const std::string table =
      FormatServerStats(cur.value(), /*json=*/false, /*shards=*/false, /*restarted=*/true);
  EXPECT_NE(table.find("server restarted"), std::string::npos);
  const std::string json =
      FormatServerStats(cur.value(), /*json=*/true, /*shards=*/false, /*restarted=*/true);
  EXPECT_NE(json.find("\"server_restarted\":true"), std::string::npos);

  // An uneventful watch interval reports no restart.
  AstatOptions options;
  options.json = true;
  options.watch_seconds = 0.01;
  options.watch_count = 1;
  std::string report;
  options.on_report = [&](const std::string& r) { report = r; };
  auto watch = RunAstat(*conn, options);
  ASSERT_TRUE(watch.ok());
  EXPECT_NE(report.find("\"server_restarted\":false"), std::string::npos);
}

// Regression: astat --watch differences counters only. A gauge is a
// sample, not a count, so its interval "delta" means nothing: a steady
// 2-shard server reported shards 0 and poller_backend 0 every interval.
TEST(AstatRestartTest, WatchKeepsGaugeSlotsAbsolute) {
  ServerRunner::Config config = ManualConfig();
  config.server.num_shards = 2;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  auto conn_result = runner->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();

  auto prev = conn->GetServerStats();
  auto cur = conn->GetServerStats();
  ASSERT_TRUE(prev.ok());
  ASSERT_TRUE(cur.ok());
  const ServerStatsWire diff = DiffServerStats(prev.value(), cur.value());
  ASSERT_EQ(diff.shards.size(), 2u);
  for (size_t i = 0; i < kNumServerCounters; ++i) {
    if (!IsServerGaugeSlot(i)) {
      continue;
    }
    EXPECT_EQ(diff.counters[i], cur.value().counters[i]) << kServerCounterNames[i];
    for (size_t s = 0; s < diff.shards.size(); ++s) {
      EXPECT_EQ(diff.shards[s].counters[i], cur.value().shards[s].counters[i])
          << "shard " << s << " " << kServerCounterNames[i];
    }
  }

  // The rendered interval, as `astat --shards --json --watch` prints it:
  // the aggregate and both slices carry the absolute gauges.
  AstatOptions options;
  options.json = true;
  options.shards = true;
  options.watch_seconds = 0.01;
  options.watch_count = 1;
  auto watch = RunAstat(*conn, options);
  ASSERT_TRUE(watch.ok());
  const auto occurrences = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t at = watch.value().find(needle); at != std::string::npos;
         at = watch.value().find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"shards\":2,"), 3u) << watch.value();
  EXPECT_EQ(occurrences("\"poller_backend\":1,"), 3u) << watch.value();
}

TEST(AstatRestartTest, GaugeSlotsNeverFlagRestart) {
  ServerStatsWire prev;
  prev.counters.assign(kNumServerCounters, 10);
  ServerStatsWire cur = prev;
  // Gauges legitimately move both ways: dropping one is not a restart.
  cur.counters[ServerCounterSlot("watched_fds")] = 0;
  cur.counters[ServerCounterSlot("mailbox_depth_hw")] = 0;
  cur.counters[ServerCounterSlot("oplog_acked")] = 0;
  cur.counters[ServerCounterSlot("failovers_promoted")] = 0;
  EXPECT_FALSE(ServerStatsRegressed(prev, cur));
  // A monotonic counter going backwards is.
  cur.counters[ServerCounterSlot("requests_dispatched")] = 9;
  EXPECT_TRUE(ServerStatsRegressed(prev, cur));
  // Mismatched lengths (old vs new server) compare only the overlap.
  cur.counters.resize(5);
  cur.counters[ServerCounterSlot("requests_dispatched")] = 10;
  EXPECT_FALSE(ServerStatsRegressed(prev, cur));
}

}  // namespace
}  // namespace af
