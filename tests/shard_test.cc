// The sharded server (PR 6): the per-shard inbox, a four-shard server
// exercised through the public client API, the listeners that pick each
// connection's shard, and the device lock under real concurrency.
//
// Every request runs on its connection's home shard; a request for a
// device another shard owns takes that shard's device lock. The server
// tests pin clients to specific shards (AdoptClientOnShard) so requests to
// the shard-0-owned CODEC run against another shard's device, events fan
// out across shards, faults land on such connections, a shard thread is
// killed and restarted, and stats/trace aggregate at reply time.
//
// The bridge tests drive all their parties from one thread, so no two
// shards ever touch a device at the same instant there. The fan-in test
// here does: one client thread per shard, all mixing into one CODEC while
// its update runs, checked against an arrival-order-free oracle. A global
// operator-new hook, counting on shard threads only, pins that a play
// against another shard's device allocates exactly like a local one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/audio_context.h"
#include "client/connection.h"
#include "clients/server_runner.h"
#include "dsp/mix.h"
#include "proto/stats.h"
#include "proto/trace_wire.h"
#include "server/shard.h"
#include "transport/fault_stream.h"
#include "transport/stream.h"

// --- allocation counting on shard threads -----------------------------------

namespace {
std::atomic<bool> g_count_shard_allocs{false};
std::atomic<size_t> g_shard_allocs{0};
thread_local bool t_shard_thread = false;

void* CountedAlloc(std::size_t n) {
  if (t_shard_thread && g_count_shard_allocs.load(std::memory_order_relaxed)) {
    g_shard_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace af {
namespace {

// Runs fn on `shard`'s loop thread and waits for it.
void RunOnShard(AFServer& server, uint32_t shard, std::function<void()> fn) {
  std::promise<void> done;
  server.PostToShard(shard, [&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

// --- the inbox ----------------------------------------------------------------

// Producer threads post sequence-numbered messages into one shard's inbox;
// each producer's messages must run in order, none lost, and the shard's
// posted and drained counters must agree once a trailing barrier has run.
TEST(ShardInboxTest, FifoPerProducer) {
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 2;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  AFServer& server = runner->server();
  Shard* target = server.shard(1);
  RunOnShard(server, 1, [] {});  // the shard is up and its inbox idle
  const uint64_t posted_before = target->metrics().cross_shard_posted.Value();

  constexpr size_t kProducers = 4;
  constexpr uint64_t kPerProducer = 2000;
  // Touched only on shard 1's thread, inside the posted messages.
  std::vector<uint64_t> next_expected(kProducers, 0);
  bool order_ok = true;
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937_64 rng(0xF00D + p);
      for (uint64_t seq = 0; seq < kPerProducer; ++seq) {
        server.PostToShard(1, [&, p, seq] {
          order_ok = order_ok && next_expected[p] == seq;
          next_expected[p] = seq + 1;
        });
        if ((rng() & 0x3F) == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  // Posted after every producer's last message, so it runs after them.
  RunOnShard(server, 1, [] {});

  EXPECT_TRUE(order_ok);
  for (size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer) << "producer " << p;
  }
  EXPECT_EQ(target->metrics().cross_shard_posted.Value() - posted_before,
            kProducers * kPerProducer + 1);
  EXPECT_EQ(target->metrics().cross_shard_posted.Value(),
            target->metrics().cross_shard_drained.Value());
  EXPECT_GE(target->metrics().mailbox_depth_hw.Value(), 1);
}

// --- four-shard server tests ------------------------------------------------

class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.realtime = false;
    config.server.num_shards = 4;
    runner_ = ServerRunner::Start(std::move(config));
    ASSERT_NE(runner_, nullptr);
    ASSERT_EQ(runner_->server().num_shards(), 4u);
  }

  // Connects a client whose server end is pinned to `shard`.
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

TEST_F(ShardServerTest, RoundRobinAdoptSpreadsAcrossShards) {
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (int i = 0; i < 8; ++i) {
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    conns.push_back(conn.take());
    conns.back()->Sync();
  }
  EXPECT_EQ(runner_->server().client_count(), 8u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(runner_->server().shard(s)->client_count(), 2u) << "shard " << s;
  }
  // Every client works no matter which shard it landed on; the CODEC lives
  // on shard 0, so six of these round-trips cross shards.
  for (auto& conn : conns) {
    EXPECT_TRUE(conn->GetTime(runner_->codec_id()).ok());
  }
}

// Device requests against another shard's device run on the home shard
// under the owner's device lock: nothing is posted anywhere, and the home
// shard counts them as cross-shard device requests.
TEST_F(ShardServerTest, CrossShardPlaysPostNothing) {
  auto conn = ConnectOnShard(2);
  ASSERT_NE(conn, nullptr);
  conn->Sync();  // adopted: the adoption's inbox message is behind us
  const auto total_posted = [&] {
    uint64_t n = 0;
    for (uint32_t s = 0; s < 4; ++s) {
      n += runner_->server().shard(s)->metrics().cross_shard_posted.Value();
    }
    return n;
  };
  const uint64_t posted_before = total_posted();

  const DeviceId dev = runner_->codec_id();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn->GetTime(dev).ok());
  }
  // Play through an AC to cover the suspension-capable path as well.
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  auto ac = conn->CreateAC(dev, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  std::vector<uint8_t> tone(160, 0xFF);
  EXPECT_TRUE(ac.value()->PlaySamples(now.value() + 400, tone).ok());

  EXPECT_EQ(total_posted(), posted_before);
  EXPECT_GE(runner_->server().shard(2)->metrics().cross_shard_plays.Value(), 8u);
  EXPECT_EQ(runner_->server().shard(0)->metrics().cross_shard_plays.Value(), 0u);
}

TEST_F(ShardServerTest, EventsCrossShards) {
  auto watcher = ConnectOnShard(3);
  auto changer = ConnectOnShard(1);
  ASSERT_NE(watcher, nullptr);
  ASSERT_NE(changer, nullptr);
  watcher->SelectEvents(0, kPropertyChangeMask);
  watcher->Sync();

  const uint8_t payload[] = {'s', 'h', 'a', 'r', 'd'};
  changer->ChangeProperty(0, kAtomLAST_NUMBER_DIALED, kAtomSTRING, 8,
                          PropertyMode::kReplace, payload);
  changer->Sync();

  // The change runs on shard 1 (the changer's home), the watcher lives on
  // shard 3: the event must cross shard 3's inbox to arrive.
  AEvent event;
  ASSERT_TRUE(watcher->NextEvent(&event).ok());
  EXPECT_EQ(event.type, EventType::kPropertyChange);
  EXPECT_EQ(event.w0, kAtomLAST_NUMBER_DIALED);
  EXPECT_EQ(runner_->server().shard(1)->metrics().cross_shard_events.Value(), 3u);
}

// Shard 1 is stopped while a storm of property changes on shard 0 posts
// one event per change into its inbox. Nothing may be lost: once the shard
// restarts, its watcher receives every event.
TEST_F(ShardServerTest, StoppedShardLosesNoInboxMessages) {
  auto watcher = ConnectOnShard(1);
  auto stormer = ConnectOnShard(0);
  ASSERT_NE(watcher, nullptr);
  ASSERT_NE(stormer, nullptr);
  watcher->SelectEvents(0, kPropertyChangeMask);
  watcher->Sync();
  stormer->Sync();

  Shard* stopped = runner_->server().shard(1);
  ASSERT_TRUE(runner_->server().StopShard(1));
  const uint64_t posted_before = stopped->metrics().cross_shard_posted.Value();
  constexpr size_t kStorm = 300;
  const uint8_t payload[] = {'s', 't', 'o', 'r', 'm'};
  for (size_t i = 0; i < kStorm; ++i) {
    stormer->ChangeProperty(0, kAtomLAST_NUMBER_DIALED, kAtomSTRING, 8,
                            PropertyMode::kReplace, payload);
  }
  stormer->Sync();
  EXPECT_EQ(stopped->metrics().cross_shard_posted.Value() - posted_before, kStorm);
  EXPECT_LT(stopped->metrics().cross_shard_drained.Value(),
            stopped->metrics().cross_shard_posted.Value());

  ASSERT_TRUE(runner_->server().RestartShard(1));
  for (size_t i = 0; i < kStorm; ++i) {
    AEvent event;
    ASSERT_TRUE(watcher->NextEvent(&event).ok()) << "event " << i;
    ASSERT_EQ(event.type, EventType::kPropertyChange) << "event " << i;
  }
  watcher->Sync();
  EXPECT_EQ(watcher->EventsQueued(AFAudioConn::QueuedMode::kAfterReading), 0);
  EXPECT_EQ(stopped->metrics().cross_shard_posted.Value(),
            stopped->metrics().cross_shard_drained.Value());
}

TEST_F(ShardServerTest, FaultedCrossShardConnectionSurvives) {
  // Server-side read faults on a shard-1 client whose every device request
  // runs against shard 0's device: chunked reads and short delays land
  // between the device lock's acquisitions.
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(3);
  faults->DelayReadAt(64, 200);
  faults->DelayReadAt(256, 200);
  auto conn = ConnectOnShard(1, faults);
  ASSERT_NE(conn, nullptr);
  const DeviceId dev = runner_->codec_id();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(conn->GetTime(dev).ok()) << "iteration " << i;
  }
  conn->Sync();
}

TEST_F(ShardServerTest, StopAndRestartShardThread) {
  auto pinned = ConnectOnShard(1);
  ASSERT_NE(pinned, nullptr);
  ASSERT_TRUE(pinned->GetTime(runner_->codec_id()).ok());

  ASSERT_TRUE(runner_->server().StopShard(1));
  EXPECT_FALSE(runner_->server().StopShard(0));  // shard 0 is not killable

  // The rest of the server keeps serving while shard 1 is down.
  auto other = ConnectOnShard(0);
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(other->GetTime(runner_->codec_id()).ok());

  ASSERT_TRUE(runner_->server().RestartShard(1));
  EXPECT_FALSE(runner_->server().RestartShard(1));  // already running

  // The pinned client's connection state survived the thread swap.
  EXPECT_TRUE(pinned->GetTime(runner_->codec_id()).ok());
  pinned->Sync();
}

TEST_F(ShardServerTest, StatsAggregateAcrossShards) {
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (uint32_t s = 0; s < 4; ++s) {
    auto conn = ConnectOnShard(s);
    ASSERT_NE(conn, nullptr);
    ASSERT_TRUE(conn->GetTime(runner_->codec_id()).ok());
    conns.push_back(std::move(conn));
  }

  auto stats_result = conns[1]->GetServerStats();
  ASSERT_TRUE(stats_result.ok()) << stats_result.status().ToString();
  const ServerStatsWire& stats = stats_result.value();

  ASSERT_EQ(stats.counters.size(), kNumServerCounters);
  EXPECT_EQ(stats.counters[ServerCounterSlot("clients_accepted")], 4u);
  EXPECT_EQ(stats.counters[ServerCounterSlot("shards")], 4u);
  EXPECT_GT(stats.counters[ServerCounterSlot("cross_shard_posted")], 0u);
  EXPECT_GT(stats.counters[ServerCounterSlot("cross_shard_drained")], 0u);

  // The per-shard slices sum back to the aggregate for pure counters.
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t accepted = 0, dispatched = 0;
  for (const ShardStatsWire& sh : stats.shards) {
    EXPECT_EQ(sh.index, &sh - stats.shards.data());
    ASSERT_EQ(sh.counters.size(), kNumServerCounters);
    accepted += sh.counters[ServerCounterSlot("clients_accepted")];
    dispatched += sh.counters[ServerCounterSlot("requests_dispatched")];
    EXPECT_EQ(sh.counters[ServerCounterSlot("clients_accepted")], 1u);
  }
  EXPECT_EQ(accepted, stats.counters[ServerCounterSlot("clients_accepted")]);
  EXPECT_EQ(dispatched, stats.counters[ServerCounterSlot("requests_dispatched")]);

  // Every slot merges by its kind: the gauge-max slots aggregate to the
  // largest slice; counters and the watched_fds gauge to the slices' sum.
  const std::set<std::string> gauge_max = {"poller_backend", "mailbox_depth_hw",
                                           "shards",         "oplog_acked",
                                           "repl_overflows", "failovers_promoted"};
  for (size_t i = 0; i < kNumServerCounters; ++i) {
    uint64_t sum = 0, max = 0;
    for (const ShardStatsWire& sh : stats.shards) {
      sum += sh.counters[i];
      max = std::max(max, sh.counters[i]);
    }
    const bool is_max = gauge_max.count(kServerCounterNames[i]) > 0;
    EXPECT_EQ(stats.counters[i], is_max ? max : sum) << kServerCounterNames[i];
  }
  for (const ShardStatsWire& sh : stats.shards) {
    EXPECT_EQ(sh.counters[ServerCounterSlot("shards")], 4u) << "shard " << sh.index;
    EXPECT_EQ(sh.counters[ServerCounterSlot("poller_backend")], 1u) << "shard " << sh.index;
  }
}

TEST_F(ShardServerTest, TraceAggregatesAcrossShards) {
  auto near = ConnectOnShard(0);
  auto far = ConnectOnShard(2);
  ASSERT_NE(near, nullptr);
  ASSERT_NE(far, nullptr);
  ASSERT_TRUE(far->GetTrace(kTraceFlagEnable).ok());
  ASSERT_TRUE(near->GetTime(runner_->codec_id()).ok());
  ASSERT_TRUE(far->GetTime(runner_->codec_id()).ok());

  auto trace = far->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  // Request records from both clients must appear in the one merged
  // stream; client numbers stride by shard count, so two clients on
  // different shards always carry distinct numbers.
  std::set<uint32_t> request_conns;
  for (const TraceEvent& ev : trace.value().events) {
    if (ev.kind == static_cast<uint8_t>(TraceKind::kRequest) && ev.conn != 0) {
      request_conns.insert(ev.conn);
    }
  }
  EXPECT_GE(request_conns.size(), 2u);
}

TEST_F(ShardServerTest, TraceWindowsShareOneGeneration) {
  // PR 9 regression: GetTrace(enable) used to flip each shard's private
  // flag as the enable request reached it, so shards opened their windows
  // at different instants and the merged stream mixed captures that never
  // overlapped. The shared generation gate opens every ring at one atomic
  // instant; each ring stamps a kTraceStart carrying the generation, so a
  // gathered window can prove all four shards captured the same one.
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (uint32_t s = 0; s < 4; ++s) {
    auto conn = ConnectOnShard(s);
    ASSERT_NE(conn, nullptr);
    conns.push_back(std::move(conn));
  }
  // A shard records a reply's flush instant just after the write, so the
  // client can move on first. Let every shard finish its setup-reply
  // iteration: a flush recorded after the first window opened would stamp
  // that shard's start marker into the enabling fetch's window instead.
  for (uint32_t s = 0; s < 4; ++s) {
    RunOnShard(runner_->server(), s, [] {});
  }

  auto window_generations = [&]() -> std::map<uint64_t, std::set<uint16_t>> {
    EXPECT_TRUE(conns[0]->GetTrace(kTraceFlagEnable).ok());
    // Traffic from every shard: each home shard records its own client's
    // read, dispatch, and device work.
    for (auto& conn : conns) {
      EXPECT_TRUE(conn->GetTime(runner_->codec_id()).ok());
    }
    auto trace = conns[0]->GetTrace(kTraceFlagDisable);
    EXPECT_TRUE(trace.ok());
    std::map<uint64_t, std::set<uint16_t>> gens;
    if (!trace.ok()) {
      return gens;
    }
    for (const TraceEvent& ev : trace.value().events) {
      if (ev.kind == static_cast<uint8_t>(TraceKind::kTraceStart)) {
        gens[ev.value].insert(ev.shard);
      }
    }
    return gens;
  };

  const auto first = window_generations();
  ASSERT_EQ(first.size(), 1u) << "shards captured under different generations";
  EXPECT_EQ(first.begin()->first & 1, 1u) << "capture generations are odd";
  EXPECT_EQ(first.begin()->second.size(), 4u)
      << "not every shard stamped the window's start";

  // The next window is a fresh generation — exactly one enable/disable
  // cycle later — again shared by all four shards.
  const auto second = window_generations();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.begin()->first, first.begin()->first + 2);
  EXPECT_EQ(second.begin()->second.size(), 4u);
}

// --- listeners pick the shard -----------------------------------------------

std::vector<uint64_t> AcceptedPerShard(AFServer& server) {
  std::vector<uint64_t> accepted;
  for (size_t s = 0; s < server.num_shards(); ++s) {
    accepted.push_back(server.shard(s)->metrics().clients_accepted.Value());
  }
  return accepted;
}

// The one UNIX listener lives on shard 0, which hands its connections out
// round-robin: eight clients land two to a shard.
TEST(ShardListenerTest, UnixListenerHandsOffRoundRobin) {
  const std::string path = "/tmp/.AF-shard-test-" + std::to_string(::getpid());
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 4;
  config.unix_path = path;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);

  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (int i = 0; i < 8; ++i) {
    auto stream = ConnectUnix(path);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    auto conn = AFAudioConn::FromStream(stream.take(), "(unix)");
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conns.push_back(conn.take());
  }
  // The setup reply comes from the home shard, so every adoption is done.
  EXPECT_EQ(AcceptedPerShard(runner->server()), (std::vector<uint64_t>{2, 2, 2, 2}));
  for (auto& conn : conns) {
    EXPECT_TRUE(conn->GetTime(runner->codec_id()).ok());
  }
}

// Every shard has its own SO_REUSEPORT TCP listener and adopts what it
// accepts. The kernel picks the listener, so only the total is fixed.
TEST(ShardListenerTest, TcpListenersAcceptOnTheirOwnShards) {
  constexpr uint16_t kPort = 17951;
  constexpr size_t kConns = 16;
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 4;
  config.tcp_port = kPort;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);

  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (size_t i = 0; i < kConns; ++i) {
    auto stream = ConnectTcp("127.0.0.1", kPort);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    auto conn = AFAudioConn::FromStream(stream.take(), "(tcp)");
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    EXPECT_TRUE(conn.value()->GetTime(runner->codec_id()).ok()) << "connection " << i;
    conns.push_back(conn.take());
  }
  const std::vector<uint64_t> accepted = AcceptedPerShard(runner->server());
  EXPECT_EQ(std::accumulate(accepted.begin(), accepted.end(), uint64_t{0}), kConns);
  EXPECT_EQ(runner->server().client_count(), kConns);
}

// --- the device lock under real concurrency --------------------------------

// Mu-law bytes that mixing into silence leaves unchanged, so a region reads
// back the same whether its play was copied in or mixed over silence.
std::vector<uint8_t> SilenceStableBlock(std::mt19937& rng, size_t frames) {
  std::vector<uint8_t> raw(frames);
  for (uint8_t& b : raw) {
    b = static_cast<uint8_t>(rng());
  }
  std::vector<uint8_t> block(frames, 0xFF);
  MixMulawBlock(block, raw);
  return block;
}

// Three client threads, one per shard, play at once into the shard-0 CODEC
// while shard 0 runs its update over an advancing clock. Each round's
// update window is split into three disjoint slices, one per thread, so
// the buffer the device ends up with does not depend on arrival order.
TEST(ConcurrentFanInTest, ThreeShardsMixIntoOneDeviceWithoutLoss) {
  constexpr uint32_t kShards = 3;
  constexpr size_t kRounds = 200;
  constexpr size_t kBlock = 40;     // frames per play
  constexpr ATime kLead = 1024;     // first slice starts one hw ring ahead
  constexpr ATime kMaxAdvance = 512;  // clock drift during the run, < kLead

  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = kShards;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  AFServer& server = runner->server();
  const DeviceId dev = runner->codec_id();
  auto clock = runner->manual_clock();
  const auto locked_update = [&] {
    runner->RunOnLoop([&] {
      std::lock_guard<std::mutex> lock(server.device_mutex(dev));
      runner->codec()->Update();
    });
  };
  locked_update();
  while (clock->Now() < 8000) {
    clock->Advance(256);
    locked_update();
  }
  const ATime t0 = static_cast<ATime>(clock->Now());

  std::mt19937 rng(0xFA41);
  std::vector<std::vector<uint8_t>> blocks(kShards * kRounds);
  std::vector<uint8_t> oracle;
  for (auto& b : blocks) {
    b = SilenceStableBlock(rng, kBlock);
    std::vector<uint8_t> again(kBlock, 0xFF);
    MixMulawBlock(again, b);
    ASSERT_EQ(again, b);
    oracle.insert(oracle.end(), b.begin(), b.end());
  }

  std::vector<std::unique_ptr<AFAudioConn>> conns;
  std::vector<AC*> acs;
  for (uint32_t s = 0; s < kShards; ++s) {
    auto conn = runner->ConnectInProcessOnShard(s);
    ASSERT_TRUE(conn.ok());
    conns.push_back(conn.take());
    ACAttributes attrs;
    attrs.encoding = AEncodeType::kMu255;
    auto ac = conns.back()->CreateAC(dev, kACEncodingType, attrs);
    ASSERT_TRUE(ac.ok());
    acs.push_back(ac.value());
  }
  const DeviceMetrics& m = runner->codec()->metrics();
  const uint64_t mixed_before = m.mixed_writes.Value();
  const uint64_t discarded_before = m.play_discarded_frames.Value();
  const uint64_t underrun_before = m.play_underrun_samples.Value();

  std::atomic<bool> go{false};
  std::atomic<size_t> running{kShards};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> players;
  for (uint32_t s = 0; s < kShards; ++s) {
    players.emplace_back([&, s] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t slot = r * kShards + s;
        const ATime start = t0 + kLead + static_cast<ATime>(slot * kBlock);
        if (!acs[s]->PlaySamples(start, blocks[slot]).ok()) {
          failures.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  go.store(true);
  // The owner's update, racing the plays, over a clock that keeps moving:
  // it copies buffered play data out to the hardware ring while the
  // players write into the same buffer.
  size_t updates = 0;
  while (running.load() > 0) {
    if (static_cast<ATime>(clock->Now()) - t0 < kMaxAdvance) {
      clock->Advance(2);
    }
    locked_update();
    ++updates;
  }
  for (auto& t : players) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(updates, 0u);

  std::vector<uint8_t> got(oracle.size());
  runner->RunOnLoop([&] {
    std::lock_guard<std::mutex> lock(server.device_mutex(dev));
    runner->codec()->play_buffer().Read(t0 + kLead, got);
  });
  EXPECT_TRUE(got == oracle) << "the mixed buffer differs from the oracle";
  EXPECT_EQ(m.mixed_writes.Value() - mixed_before, kShards * kRounds);
  EXPECT_EQ(m.play_discarded_frames.Value(), discarded_before);
  EXPECT_EQ(m.play_underrun_samples.Value(), underrun_before);
  EXPECT_GT(server.shard(1)->metrics().cross_shard_plays.Value(), 0u);
  EXPECT_GT(server.shard(2)->metrics().cross_shard_plays.Value(), 0u);
}

// A play against another shard's device takes a lock where a local one
// does not, and nothing else: it must allocate exactly as often. Counted
// on shard threads only (the client library allocates on its own thread).
TEST(ShardAllocTest, CrossShardPlayAllocatesLikeALocalOne) {
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 2;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  AFServer& server = runner->server();
  for (uint32_t s = 0; s < 2; ++s) {
    RunOnShard(server, s, [] { t_shard_thread = true; });
  }

  const DeviceId dev = runner->codec_id();
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  std::vector<AC*> acs;
  for (uint32_t s = 0; s < 2; ++s) {
    auto conn = runner->ConnectInProcessOnShard(s);
    ASSERT_TRUE(conn.ok());
    conns.push_back(conn.take());
    ACAttributes attrs;
    attrs.encoding = AEncodeType::kMu255;
    auto ac = conns.back()->CreateAC(dev, kACEncodingType, attrs);
    ASSERT_TRUE(ac.ok());
    acs.push_back(ac.value());
  }
  auto now = conns[0]->GetTime(dev);
  ASSERT_TRUE(now.ok());
  const std::vector<uint8_t> block(160, 0xD5);
  const auto play = [&](AC* ac, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(ac->PlaySamples(now.value() + 2000 + static_cast<ATime>(i % 8) * 160,
                                  block)
                      .ok());
    }
  };
  const auto count = [&](AC* ac) {
    g_shard_allocs.store(0);
    g_count_shard_allocs.store(true);
    play(ac, 200);
    g_count_shard_allocs.store(false);
    return g_shard_allocs.load();
  };
  play(acs[0], 64);  // warm-up: buffers, arenas, and egress pools reach size
  play(acs[1], 64);
  // The owner's periodic update allocates on its first runs (the task
  // queue's batch, the arena's staging slot); let two pass so the windows
  // below see request work only.
  const Counter& updates = runner->codec()->metrics().updates;
  const uint64_t updates_seen = updates.Value();
  while (updates.Value() < updates_seen + 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const size_t remote = count(acs[1]);
  const size_t local = count(acs[0]);
  EXPECT_EQ(remote, local) << "shard-1 plays into the shard-0 CODEC allocated " << remote
                           << " times, shard-0 plays " << local;
}

TEST(ShardAllocTest, PipelinedBurstsPastTheFairnessCapAllocateNothing) {
  // Each burst is four fairness caps of NoOps in one write, then a Sync:
  // the shard serves a cap per sweep and carries the rest over to its
  // backlog sweep, loop iteration after loop iteration. None of that may
  // allocate once the connection's buffers have reached size.
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 1;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  RunOnShard(runner->server(), 0, [] { t_shard_thread = true; });
  auto conn = runner->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  const int burst = 4 * runner->server().options().max_requests_per_sweep;
  const uint64_t iterations_before = runner->server().metrics().loop_iterations.Value();
  const auto bursts = [&](int n) {
    for (int b = 0; b < n; ++b) {
      for (int i = 0; i < burst; ++i) {
        conn.value()->NoOp();
      }
      conn.value()->Sync();
    }
  };
  bursts(20);  // warm-up: buffers reach size
  // The periodic device updates allocate on their first runs (see above).
  const Counter& updates = runner->codec()->metrics().updates;
  const uint64_t updates_seen = updates.Value();
  while (updates.Value() < updates_seen + 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  g_shard_allocs.store(0);
  g_count_shard_allocs.store(true);
  bursts(100);
  g_count_shard_allocs.store(false);
  EXPECT_EQ(g_shard_allocs.load(), 0u);
  // A loop iteration serves at most two caps (the read, then the backlog
  // sweep), so every burst spanned several iterations.
  EXPECT_GE(runner->server().metrics().loop_iterations.Value() - iterations_before, 120u * 2);
}

// The shard spins before a wait only while some client's next request is
// due within the spin budget. A client pacing its round trips 2 ms apart
// is predicted milliseconds away at every wait, so it never makes the
// shard spin. That holds only if every wake is one of its requests, after
// which the prediction moves on: so the server has no device, whose update
// task would wake the loop at times of its own, and the client connects
// over TCP, where reading a reply raises no write-space edge (on a loaded
// host either wake can land right at a predicted arrival).
TEST(ShardSpinTest, PacedClientNeverMakesItsShardSpin) {
  constexpr uint16_t kPort = 17952;
  ServerRunner::Config config;
  config.with_codec = false;
  config.tcp_port = kPort;
  config.server.num_shards = 1;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  auto conn = AFAudioConn::Open("127.0.0.1:" + std::to_string(kPort - kAudioFileBasePort));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const ServerMetrics& metrics = runner->server().metrics();
  const uint64_t spins_before = metrics.spin_waits.Value();
  const uint64_t dispatched_before = metrics.requests_dispatched.Value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(conn.value()->GetServerStats().ok()) << "round trip " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(metrics.spin_waits.Value() - spins_before, 0u);
  EXPECT_EQ(metrics.requests_dispatched.Value() - dispatched_before, 50u);
}

}  // namespace
}  // namespace af
