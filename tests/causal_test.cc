// End-to-end causal tracing (PR 9): correlation IDs minted by the client
// survive every hostile path the server has — requests against another
// shard's device, chunked reads that park a half-arrived request,
// reconnect replays — and the atrace --merge pipeline joins the two rings
// into one timeline whose per-request latency budget telescopes exactly.
//
// The file also pins the allocation-free contract of the generation-gated
// ring (a global operator-new hook counts allocations in the armed region)
// and round-trips a flight-recorder dump through the post-mortem loader.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <vector>

#include "client/audio_context.h"
#include "client/connection.h"
#include "clients/cores.h"
#include "clients/server_runner.h"
#include "common/flight_recorder.h"
#include "common/trace.h"
#include "proto/opcodes.h"
#include "proto/setup.h"
#include "proto/trace_wire.h"
#include "server/shard.h"
#include "transport/fault_stream.h"
#include "transport/stream.h"

// --- allocation counting hook (same shape as conversion_golden_test) --------

namespace {
volatile size_t g_alloc_count = 0;
volatile bool g_alloc_armed = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_armed) {
    g_alloc_count = g_alloc_count + 1;
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_alloc_armed) {
    g_alloc_count = g_alloc_count + 1;
  }
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace af {
namespace {

TraceKind KindOf(const TraceEvent& ev) { return static_cast<TraceKind>(ev.kind); }

// Correlation IDs of every client-side enqueue for the given opcode.
std::vector<uint64_t> EnqueueCorrs(const std::vector<TraceEvent>& events, Opcode op) {
  std::vector<uint64_t> corrs;
  for (const TraceEvent& ev : events) {
    if (KindOf(ev) == TraceKind::kClientEnqueue &&
        ev.arg == static_cast<uint8_t>(op) && ev.corr != 0) {
      corrs.push_back(ev.corr);
    }
  }
  return corrs;
}

bool HasKindWithCorr(const std::vector<TraceEvent>& events, TraceKind kind,
                     uint64_t corr) {
  for (const TraceEvent& ev : events) {
    if (KindOf(ev) == kind && ev.corr == corr) {
      return true;
    }
  }
  return false;
}

class CausalShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.realtime = false;
    config.server.num_shards = 4;
    runner_ = ServerRunner::Start(std::move(config));
    ASSERT_NE(runner_, nullptr);
    ASSERT_EQ(runner_->server().num_shards(), 4u);
  }

  std::unique_ptr<AFAudioConn> ConnectOnShard(
      uint32_t shard, std::shared_ptr<FaultSchedule> server_faults = nullptr) {
    auto pair = CreateStreamPair();
    if (!pair.ok()) {
      return nullptr;
    }
    auto& [client_end, server_end] = pair.value();
    runner_->server().AdoptClientOnShard(std::move(server_end),
                                         std::move(server_faults), {}, shard);
    auto conn = AFAudioConn::FromStream(std::move(client_end), nullptr,
                                        "(in-process)");
    return conn.ok() ? conn.take() : nullptr;
  }

  std::unique_ptr<ServerRunner> runner_;
};

// The tentpole chain: a play queued on shard 2 against the shard-0 CODEC
// must leave one correlation ID on every link — client enqueue, the
// dispatch span, and the mix write into the device buffer — and, since the
// play runs on its home shard, the server links all sit in shard 2's
// window.
TEST_F(CausalShardTest, CrossShardPlayChainSharesOneCorrelationId) {
  auto conn = ConnectOnShard(2);
  ASSERT_NE(conn, nullptr);
  conn->SetClientTracing(true);
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());

  const DeviceId dev = runner_->codec_id();
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  auto ac = conn->CreateAC(dev, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  std::vector<uint8_t> tone(160, 0xFF);
  ASSERT_TRUE(ac.value()->PlaySamples(now.value() + 400, tone).ok());

  auto window = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  std::vector<TraceEvent> client_events;
  conn->client_trace().Drain(&client_events);

  const auto play_corrs = EnqueueCorrs(client_events, Opcode::kPlaySamples);
  ASSERT_FALSE(play_corrs.empty()) << "client ring recorded no play enqueue";
  const uint64_t corr = play_corrs.back();

  const std::vector<TraceEvent>& server_events = window.value().events;
  EXPECT_TRUE(HasKindWithCorr(server_events, TraceKind::kRequest, corr))
      << "dispatch span lost the correlation ID";
  EXPECT_TRUE(HasKindWithCorr(server_events, TraceKind::kMixWrite, corr))
      << "device mix write lost the correlation ID";

  for (const TraceEvent& ev : server_events) {
    if (ev.corr == corr &&
        (KindOf(ev) == TraceKind::kRequest || KindOf(ev) == TraceKind::kMixWrite)) {
      EXPECT_EQ(ev.shard, 2u) << TraceKindName(KindOf(ev)) << " left the home shard";
    }
    // The retired borrow's hop and remote-exec records are never emitted.
    EXPECT_NE(KindOf(ev), TraceKind::kMailboxHop);
    EXPECT_NE(KindOf(ev), TraceKind::kRemoteExec);
  }
}

// A request whose bytes dribble in three at a time is parked and resumed
// across many readable events; the aux trailer (the last 8 bytes) only
// parses once the request is whole, and the dispatch span must still carry
// the client's ID.
TEST(CausalTruncationTest, TruncatedRequestsKeepTheirCorrelationIds) {
  ServerRunner::Config config;
  config.realtime = false;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);

  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(3);
  auto conn_result = runner->ConnectInProcess(nullptr, faults);
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  conn->SetClientTracing(true);
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn->GetTime(0).ok());
  }

  auto window = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(window.ok());
  std::vector<TraceEvent> client_events;
  conn->client_trace().Drain(&client_events);

  const auto corrs = EnqueueCorrs(client_events, Opcode::kGetTime);
  ASSERT_EQ(corrs.size(), 5u);
  for (const uint64_t corr : corrs) {
    EXPECT_TRUE(HasKindWithCorr(window.value().events, TraceKind::kRequest, corr))
        << "corr 0x" << std::hex << corr << " missing from the server window";
  }
}

// Reconnect hostility: the transport dies mid-flush, the reconnect machine
// replays the session, and the replayed requests must reuse the in-flight
// request's ID (the healed timeline links back to the original attempt)
// while post-heal requests mint fresh ones.
TEST(CausalReconnectTest, ReplayKeepsOriginalIdFreshRequestsMintNew) {
  ServerRunner::Config config;
  config.realtime = false;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);

  SetupRequest setup;
  setup.order = HostWireOrder();
  const size_t setup_bytes = setup.Encode().size();

  auto faults = std::make_shared<FaultSchedule>();
  // Cut a few bytes into the first post-setup flush: the awaited round
  // trip dies half-sent and heals through the replay machinery.
  faults->CutWriteAt(setup_bytes + 9);
  auto conn_result = runner->ConnectInProcess(faults);
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  conn->SetErrorHandler([](AFAudioConn&, const ErrorPacket&) {});
  conn->SetIOErrorHandler([](AFAudioConn&) {});
  AFAudioConn::ReconnectPolicy policy;
  policy.enabled = true;
  policy.backoff_ms = 1;
  conn->SetReconnectPolicy(policy);
  conn->SetReconnectFactory([&runner]() -> Result<FdStream> {
    auto pair = CreateStreamPair();
    if (!pair.ok()) {
      return pair.status();
    }
    runner->server().AdoptClient(std::move(pair.value().second));
    return std::move(pair.value().first);
  });
  conn->SetClientTracing(true);

  // Session state worth replaying, then the awaited request that hits the
  // cut and rides the reconnect.
  conn->SetInputGain(0, -6);
  auto t = conn->GetTime(0);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(conn->reconnects(), 1u);
  EXPECT_FALSE(conn->broken());

  std::vector<TraceEvent> client_events;
  conn->client_trace().Drain(&client_events);
  // The awaited GetTime's ID: its enqueue is the last GetTime enqueue.
  const auto get_time_corrs = EnqueueCorrs(client_events, Opcode::kGetTime);
  ASSERT_FALSE(get_time_corrs.empty());
  const uint64_t original = get_time_corrs.back();

  // The session replay re-enqueued requests under the original ID: at
  // least one non-GetTime enqueue (the replayed SetInputGain and friends)
  // must carry it, and the awaited round trip's reply span keeps it.
  size_t replayed = 0;
  for (const TraceEvent& ev : client_events) {
    if (KindOf(ev) == TraceKind::kClientEnqueue && ev.corr == original &&
        ev.arg != static_cast<uint8_t>(Opcode::kGetTime)) {
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u) << "no replayed request reused the in-flight ID";
  EXPECT_TRUE(HasKindWithCorr(client_events, TraceKind::kClientReply, original));

  // Fresh traffic after the heal mints new IDs.
  ASSERT_TRUE(conn->GetTime(0).ok());
  client_events.clear();
  conn->client_trace().Drain(&client_events);
  const auto fresh = EnqueueCorrs(client_events, Opcode::kGetTime);
  ASSERT_FALSE(fresh.empty());
  EXPECT_NE(fresh.back(), original);
}

// The merge pipeline: client ring + server window on one clock, one
// budget row per awaited request, components summing exactly to the
// client-observed total (the acceptance bar is "within 5%"; telescoping
// makes it exact).
TEST_F(CausalShardTest, MergedLatencyBudgetTelescopesExactly) {
  auto conn = ConnectOnShard(2);
  ASSERT_NE(conn, nullptr);
  conn->SetClientTracing(true);
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(conn->GetTime(runner_->codec_id()).ok());  // shard-0 device probes
  }
  auto window = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(window.ok());
  TraceWire merged = window.take();
  std::vector<TraceEvent> client_events;
  conn->client_trace().Drain(&client_events);
  ASSERT_FALSE(client_events.empty());

  MergeClientServerTrace(&merged, std::move(client_events));
  const auto rows = ComputeLatencyBudget(merged);
  ASSERT_GE(rows.size(), 6u);

  for (const LatencyBudgetRow& row : rows) {
    const int64_t sum = row.client_queue_us + row.wire_us + row.poll_wake_us +
                        row.dispatch_us + row.egress_us;
    EXPECT_EQ(sum, row.total_us) << "corr 0x" << std::hex << row.corr;
    EXPECT_GE(row.total_us, 0);
    EXPECT_EQ(row.mailbox_us, 0);
    EXPECT_EQ(row.mix_us, 0);
  }

  // The merged JSON renders with flow arrows and embeds the budget.
  const std::string json = FormatMergedTraceJson(merged, rows);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("latency_budget_us"), std::string::npos);
  EXPECT_FALSE(FormatLatencyBudget(rows).empty());
}

// Clock alignment in isolation: shift a synthetic client ring by a known
// skew and check the estimator recovers it through the corr-matched pair.
TEST(MergeClientServerTraceTest, RecoversAKnownClockSkew) {
  constexpr int64_t kSkew = 5'000'000;  // client clock 5 s behind the server
  TraceWire server;
  TraceEvent req;
  req.kind = static_cast<uint8_t>(TraceKind::kRequest);
  req.conn = 1;
  req.host_us = 1'000'100;
  req.dur_us = 30;
  req.corr = 0xABC;
  server.events.push_back(req);

  std::vector<TraceEvent> client;
  TraceEvent reply;
  reply.kind = static_cast<uint8_t>(TraceKind::kClientReply);
  reply.host_us = static_cast<uint64_t>(1'000'000 - kSkew);  // enqueue, client clock
  reply.dur_us = 230;  // server span sits inside with 100us legs each way
  reply.corr = 0xABC;
  client.push_back(reply);

  const int64_t offset = MergeClientServerTrace(&server, client);
  // Midpoint estimator: true skew recovered exactly when the span nests
  // symmetrically (the synthetic case here).
  EXPECT_EQ(offset, kSkew);
  ASSERT_EQ(server.events.size(), 2u);
  // Events come back sorted on the merged clock.
  EXPECT_LE(server.events[0].host_us, server.events[1].host_us);
}

// The generation-gated ring keeps the hot-path contract: enabling through
// a shared gate, recording (including the self-recorded kTraceStart on a
// fresh generation), and wrap-around drop counting allocate nothing.
TEST(CausalZeroAllocTest, GatedRecordPathDoesNotAllocate) {
  std::atomic<uint64_t> gate{0};
  TraceRing ring(64);  // the ring's one allocation happens here
  ring.AttachGenerationGate(&gate);
  ring.Enable(true);

  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(TraceKind::kRequest);
  ev.corr = 0x1234;

  g_alloc_count = 0;
  g_alloc_armed = true;
  for (int window = 0; window < 4; ++window) {
    for (int i = 0; i < 200; ++i) {  // 200 > capacity: the drop path runs too
      ev.host_us = static_cast<uint64_t>(i);
      ring.Record(ev);
    }
    ring.Enable(false);  // flip the generation so the next window re-stamps
    ring.Enable(true);
  }
  // One last small window that fits in the ring, so its start marker
  // survives the wrap for the drain check below.
  for (int i = 0; i < 8; ++i) {
    ring.Record(ev);
  }
  g_alloc_armed = false;

  EXPECT_EQ(g_alloc_count, 0u) << "the gated record path allocated";
  EXPECT_GT(ring.recorded(), 0u);
  EXPECT_GT(ring.dropped(), 0u);  // the wrap really happened inside the armed region

  std::vector<TraceEvent> drained;
  ring.Drain(&drained);
  ASSERT_FALSE(drained.empty());
  // The ring self-recorded a start marker carrying the live generation.
  bool start_seen = false;
  for (const TraceEvent& e : drained) {
    if (KindOf(e) == TraceKind::kTraceStart) {
      start_seen = true;
      EXPECT_EQ(e.value & 1, 1u) << "capture generations are odd";
    }
  }
  EXPECT_TRUE(start_seen);
  ring.AttachGenerationGate(nullptr);
}

// Flight recorder round trip: arm via the environment, snapshot a live
// server with the SIGUSR2 entry point, and decode the dump with the
// post-mortem loader.
TEST(FlightRecorderTest, DumpRoundTripsThroughLoader) {
  // PID-unique: the plain and _shard4 ctest variants run concurrently.
  const std::string path = ::testing::TempDir() + "/causal_flight." +
                           std::to_string(::getpid()) + ".dump";
  ::setenv("AF_FLIGHT_RECORDER", path.c_str(), 1);

  ServerRunner::Config config;
  config.realtime = false;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  ASSERT_TRUE(FlightRecorderArmed());
  ::unsetenv("AF_FLIGHT_RECORDER");

  auto conn_result = runner->ConnectInProcess();
  ASSERT_TRUE(conn_result.ok());
  auto conn = conn_result.take();
  conn->SetClientTracing(true);
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(conn->GetTime(0).ok());
  }

  // Close the window before snapshotting: a real crash dump reads rings
  // while writers are live and tolerates the torn records (the loader
  // drops them), but the round-trip check wants a quiesced, complete dump
  // — and keeps TSan meaningful for the rest of the battery.
  ASSERT_TRUE(conn->GetTrace(kTraceFlagDisable).ok());
  FlightRecorderDumpNow();  // what the SIGUSR2 handler runs

  auto dump = LoadFlightRecorderDump(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_FALSE(dump.value().trace.events.empty());
  EXPECT_FALSE(dump.value().counters_text.empty());
  EXPECT_NE(dump.value().counters_text.find("requests_dispatched"),
            std::string::npos);
  // The dumped window decodes into the normal renderers, corr included.
  bool corr_seen = false;
  for (const TraceEvent& ev : dump.value().trace.events) {
    ASSERT_GE(ev.kind, 1u);
    ASSERT_LE(ev.kind, static_cast<uint8_t>(TraceKind::kTraceGap));
    corr_seen = corr_seen || ev.corr != 0;
  }
  EXPECT_TRUE(corr_seen) << "no dumped record carried a correlation ID";
  EXPECT_FALSE(FormatTraceText(dump.value().trace).empty());
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, LoaderRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/causal_garbage." +
                           std::to_string(::getpid()) + ".dump";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a flight dump";
  fwrite(junk, 1, sizeof(junk), f);
  fclose(f);
  EXPECT_FALSE(LoadFlightRecorderDump(path).ok());
  EXPECT_FALSE(LoadFlightRecorderDump(path + ".missing").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace af
