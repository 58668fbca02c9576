// The client library's receive path: replies framed in place in the
// shared receive buffer, a blocking wait that is a read(2), and a round
// trip that allocates nothing.
//
// * ClientAllocTest counts operator-new calls on the client thread only
//   across steady-state round trips against an in-process server.
// * ClientSignalTest interrupts blocking and non-blocking waits with a
//   signal whose handler lacks SA_RESTART; the connection must survive.
// * ClientFlowTest pipelines past the server's egress guard and both
//   socket buffers in one Flush, which must read while it waits to write.
// * ClientFramingTest drives a connection whose reads run through a
//   FaultStream against a scripted peer, so every byte the "server" sends
//   is known: each view AwaitReply hands out is compared byte for byte
//   with the unit the peer wrote, under byte-at-a-time delivery, replies
//   larger than a read chunk, events and errors ahead of the reply,
//   kWouldBlock bursts, and reads that straddle the buffer's compaction.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "client/audio_context.h"
#include "client/connection.h"
#include "clients/server_runner.h"
#include "proto/events.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "server/client_conn.h"
#include "transport/fault_stream.h"
#include "transport/stream.h"

// --- allocation counting on the client thread -------------------------------

namespace {
std::atomic<bool> g_count_client_allocs{false};
std::atomic<size_t> g_client_allocs{0};
thread_local bool t_client_thread = false;

void* CountedAlloc(std::size_t n) {
  if (t_client_thread && g_count_client_allocs.load(std::memory_order_relaxed)) {
    g_client_allocs.fetch_add(1, std::memory_order_relaxed);
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

// --- allocation-free round trips -------------------------------------------

// Runs fn n times with the client-thread counter armed; returns the count.
template <typename Fn>
size_t CountAllocs(int n, Fn&& fn) {
  t_client_thread = true;
  g_client_allocs.store(0);
  g_count_client_allocs.store(true);
  for (int i = 0; i < n; ++i) {
    fn(i);
  }
  g_count_client_allocs.store(false);
  t_client_thread = false;
  return g_client_allocs.load();
}

TEST(ClientAllocTest, SteadyStateRoundTripsAllocateNothing) {
  ServerRunner::Config config;
  config.realtime = false;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  auto conn = runner->ConnectInProcess();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  AFAudioConn& c = *conn.value();
  const DeviceId dev = runner->codec_id();
  ACAttributes attrs;
  attrs.encoding = AEncodeType::kMu255;
  auto made = c.CreateAC(dev, kACEncodingType, attrs);
  ASSERT_TRUE(made.ok());
  AC* ac = made.value();

  // A first non-blocking record marks the AC recording; then 4 s of
  // history accumulate on the manual clock, which stays frozen after.
  std::vector<uint8_t> record(2 * kDefaultChunkBytes);
  ASSERT_TRUE(ac->RecordSamples(0, std::span<uint8_t>(record).first(8), false).ok());
  runner->RunOnLoop([&] { runner->codec()->Update(); });
  auto clock = runner->manual_clock();
  while (clock->Now() < 4 * 8000) {
    clock->Advance(800);
    runner->RunOnLoop([&] { runner->codec()->Update(); });
  }
  auto now = c.GetTime(dev);
  ASSERT_TRUE(now.ok());
  const ATime t = now.value();
  const std::vector<uint8_t> block(256, 0xD5);

  // perfbench's op: the public steps, with the decode.
  const auto raw_play = [&](int i) {
    PlaySamplesReq req;
    req.ac = ac->id();
    req.start_time = t + 1000 + static_cast<ATime>(i % 16) * 256;
    req.nbytes = static_cast<uint32_t>(block.size());
    req.data = block;
    const uint16_t seq = c.QueueRequest(Opcode::kPlaySamples, req);
    c.Flush();
    auto reply = c.AwaitReply(seq);
    PlaySamplesReply decoded;
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(PlaySamplesReply::Decode(reply.value(), c.order(), &decoded));
    ASSERT_EQ(decoded.time, t);
  };
  const auto ac_play = [&](int i) {
    auto r = ac->PlaySamples(t + 1000 + static_cast<ATime>(i % 16) * 256, block);
    ASSERT_TRUE(r.ok());
  };
  const auto get_time = [&](int) {
    auto r = c.GetTime(dev);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), t);
  };
  // Two non-blocking 8 KiB chunks of history into the caller's buffer.
  const auto ac_record = [&](int) {
    auto r = ac->RecordSamples(t - static_cast<ATime>(record.size()), record, false);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().actual_bytes, record.size());
  };

  for (const bool tracing : {false, true}) {
    c.SetClientTracing(tracing);
    for (int i = 0; i < 100; ++i) {  // warm-up: buffers reach their size
      raw_play(i);
      ac_play(i);
      get_time(i);
      ac_record(i);
    }
    const char* mode = tracing ? "tracing on" : "tracing off";
    EXPECT_EQ(CountAllocs(1000, raw_play), 0u) << "Queue/Flush/Await/Decode play, " << mode;
    EXPECT_EQ(CountAllocs(1000, ac_play), 0u) << "AC::PlaySamples, " << mode;
    EXPECT_EQ(CountAllocs(1000, get_time), 0u) << "GetTime, " << mode;
    EXPECT_EQ(CountAllocs(1000, ac_record), 0u) << "AC::RecordSamples, " << mode;
  }
  EXPECT_FALSE(c.broken());
}

// --- signals during waits ------------------------------------------------------

void NoOpHandler(int) {}

// Installs a no-op SIGUSR2 handler without SA_RESTART (so a poll(2) or
// read(2) it interrupts fails with EINTR) for the test's lifetime.
class ScopedSigusr2 {
 public:
  ScopedSigusr2() {
    struct sigaction sa = {};
    sa.sa_handler = NoOpHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGUSR2, &sa, &old_);
  }
  ~ScopedSigusr2() { sigaction(SIGUSR2, &old_, nullptr); }
  ScopedSigusr2(const ScopedSigusr2&) = delete;
  ScopedSigusr2& operator=(const ScopedSigusr2&) = delete;

 private:
  struct sigaction old_ = {};
};

TEST(ClientSignalTest, SignalDuringBlockingRecordKeepsConnection) {
  ScopedSigusr2 handler;
  ServerRunner::Config config;
  config.realtime = true;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  auto conn = runner->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  AFAudioConn& c = *conn.value();
  bool io_error = false;
  c.SetIOErrorHandler([&](AFAudioConn&) { io_error = true; });
  ACAttributes attrs;
  attrs.encoding = AEncodeType::kMu255;
  auto ac = c.CreateAC(runner->codec_id(), kACEncodingType, attrs);
  ASSERT_TRUE(ac.ok());
  auto now = c.GetTime(runner->codec_id());
  ASSERT_TRUE(now.ok());

  // 1600 mu-law bytes from now: a 200 ms blocking record, interrupted
  // 50 ms in.
  const pthread_t client = pthread_self();
  std::thread signaller([client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pthread_kill(client, SIGUSR2);
  });
  std::vector<uint8_t> buf(1600);
  auto r = ac.value()->RecordSamples(now.value(), buf, /*block=*/true);
  signaller.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().actual_bytes, buf.size());
  EXPECT_FALSE(c.broken());
  EXPECT_FALSE(io_error);

  // Pending's zero-timeout poll under a signal storm.
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load()) {
      pthread_kill(client, SIGUSR2);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (std::chrono::steady_clock::now() < until) {
    EXPECT_EQ(c.Pending(), 0);
  }
  stop.store(true);
  storm.join();
  EXPECT_FALSE(c.broken());
  EXPECT_FALSE(io_error);
  EXPECT_TRUE(c.GetTime(runner->codec_id()).ok());
}

// --- reading while waiting to write ------------------------------------------

TEST(ClientFlowTest, FlushPastTheEgressGuardAndBothSocketBuffersCompletes) {
  // The client queues enough InternAtom lookups that their replies pass
  // the server's egress guard plus both socket buffers twice over, and the
  // requests themselves outgrow what the server reads before its guard
  // engages. Then it awaits the last reply, which flushes them all. The
  // server stops reading once it holds kOutHighWater of unsent replies, so
  // a Flush that waited for POLLOUT alone would wait forever; this one
  // reads the replies meanwhile (so here the guard need not even engage).
  // A watchdog shuts the socket down if the flush has not finished after
  // 30 s, which fails the await.
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 1;
  auto runner = ServerRunner::Start(std::move(config));
  ASSERT_NE(runner, nullptr);
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(getsockopt(pair.value().first.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  const int client_fd = pair.value().first.fd();
  runner->server().AdoptClient(std::move(pair.value().second));
  auto made = AFAudioConn::FromStream(std::move(pair.value().first));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  AFAudioConn& c = *made.value();
  c.SetIOErrorHandler([](AFAudioConn&) {});

  const size_t replies =
      2 * (ClientConn::kOutHighWater + 2 * static_cast<size_t>(sndbuf)) / kReplyBaseBytes;
  InternAtomReq req;
  req.only_if_exists = 1;
  req.name = std::string(100, 'q');
  uint16_t last = 0;
  for (size_t i = 0; i < replies; ++i) {
    last = c.QueueRequest(Opcode::kInternAtom, req);
  }

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; })) {
      ::shutdown(client_fd, SHUT_RDWR);
    }
  });
  auto reply = c.AwaitReply(last);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  watchdog.join();
  ASSERT_TRUE(reply.ok()) << "the flush deadlocked against the egress guard";
  InternAtomReply decoded;
  ASSERT_TRUE(InternAtomReply::Decode(reply.value(), c.order(), &decoded));
  EXPECT_EQ(decoded.atom, kNoAtom);
}

// --- in-place framing against a scripted peer ------------------------------

using Bytes = std::vector<uint8_t>;

// A server end that answers the handshake with a one-device setup reply
// and then writes a byte script from its own thread, so a script larger
// than the socket buffer still drains. Requests are read and discarded on
// another thread (unread, many small ones would fill the socket buffer).
class ScriptedPeer {
 public:
  // Connects a client whose reads run through `faults`; read offsets in
  // the schedule count from the first byte of SetupBytes().
  explicit ScriptedPeer(std::shared_ptr<FaultSchedule> faults) {
    auto pair = CreateStreamPair();
    EXPECT_TRUE(pair.ok());
    peer_ = std::move(pair.value().second);
    EXPECT_TRUE(peer_.WriteAll(SetupBytes().data(), SetupBytes().size()).ok());
    auto conn = AFAudioConn::FromStream(std::move(pair.value().first), std::move(faults));
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = conn.take();
    conn_->SetErrorHandler([this](AFAudioConn&, const ErrorPacket& e) {
      foreign_errors_.push_back(e);
    });
    drain_ = std::thread([this] {
      uint8_t sink[4096];
      while (peer_.Read(sink, sizeof(sink)).status == IoStatus::kOk) {
      }
    });
  }
  ~ScriptedPeer() {
    conn_.reset();  // the drain sees EOF; a writer blocked on a full socket, EPIPE
    drain_.join();
    if (writer_.joinable()) {
      writer_.join();
    }
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  static const Bytes& SetupBytes() {
    static const Bytes bytes = [] {
      SetupReply reply;
      reply.success = true;
      reply.vendor = "scripted";
      reply.resource_id_base = 1u << 20;
      reply.resource_id_mask = 0xFFFFFu;
      reply.devices.resize(1);
      return reply.Encode(HostWireOrder());
    }();
    return bytes;
  }

  void Play(Bytes script) {
    writer_ = std::thread([this, s = std::move(script)] {
      (void)peer_.WriteAll(s.data(), s.size());
    });
  }

  AFAudioConn& conn() { return *conn_; }
  const std::vector<ErrorPacket>& foreign_errors() const { return foreign_errors_; }

 private:
  FdStream peer_;
  std::unique_ptr<AFAudioConn> conn_;
  std::thread drain_;
  std::thread writer_;
  std::vector<ErrorPacket> foreign_errors_;
};

Bytes PropertyReply(uint16_t seq, size_t n, uint8_t fill) {
  GetPropertyReply reply;
  reply.type = 31;
  reply.format = 8;
  reply.data.resize(n);
  for (size_t i = 0; i < n; ++i) {
    reply.data[i] = static_cast<uint8_t>(fill + i * 7);
  }
  WireWriter w(HostWireOrder());
  reply.Encode(w, seq);
  return w.Take();
}

Bytes TimeReply(uint16_t seq, ATime t) {
  GetTimeReply reply;
  reply.time = t;
  WireWriter w(HostWireOrder());
  reply.Encode(w, seq);
  return w.Take();
}

Bytes Event(uint32_t tag) {
  AEvent ev;
  ev.type = EventType::kPropertyChange;
  ev.w0 = tag;
  WireWriter w(HostWireOrder());
  ev.Encode(w);
  return w.Take();
}

Bytes Error(uint16_t seq, AfError code, Opcode op) {
  ErrorPacket e;
  e.code = code;
  e.seq = seq;
  e.opcode = op;
  WireWriter w(HostWireOrder());
  e.Encode(w);
  return w.Take();
}

void Append(Bytes* script, const Bytes& unit) {
  script->insert(script->end(), unit.begin(), unit.end());
}

// Queues one reply-bearing request; the peer never parses it.
uint16_t Ask(AFAudioConn& c) { return c.QueueRequest(Opcode::kGetTime, GetTimeReq{}); }

// Awaits seq and checks the view byte for byte against the unit sent.
void ExpectReply(AFAudioConn& c, uint16_t seq, const Bytes& sent, const std::string& what) {
  auto reply = c.AwaitReply(seq);
  ASSERT_TRUE(reply.ok()) << what << ": " << reply.status().ToString();
  EXPECT_EQ(Bytes(reply.value().begin(), reply.value().end()), sent) << what;
}

// A run of replies of mixed sizes (32 bytes up to ~3 KiB).
std::vector<Bytes> MixedReplies(uint16_t first_seq, int n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Bytes> units;
  for (int i = 0; i < n; ++i) {
    const uint16_t seq = static_cast<uint16_t>(first_seq + i);
    units.push_back(rng() % 3 == 0 ? TimeReply(seq, rng())
                                   : PropertyReply(seq, rng() % 3000, static_cast<uint8_t>(i)));
  }
  return units;
}

TEST(ClientFramingTest, ByteAtATimeDelivery) {
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(1);
  ScriptedPeer peer(faults);
  const std::vector<Bytes> units = MixedReplies(1, 24, 11);
  Bytes script;
  for (const Bytes& u : units) {
    Append(&script, u);
  }
  peer.Play(script);
  for (size_t i = 0; i < units.size(); ++i) {
    ExpectReply(peer.conn(), Ask(peer.conn()), units[i], "reply " + std::to_string(i));
  }
  EXPECT_GE(faults->faults_applied(), script.size() / 2);
}

TEST(ClientFramingTest, ReplyLargerThanAReadChunk) {
  ScriptedPeer peer(nullptr);
  const Bytes big = PropertyReply(1, 200 * 1024, 3);
  ASSERT_GT(big.size(), 12 * RecvBuffer::kReadChunk);
  const Bytes bigger = PropertyReply(2, 230 * 1024, 9);
  const Bytes small = TimeReply(3, 77);
  Bytes script = big;
  Append(&script, bigger);
  Append(&script, small);
  peer.Play(script);
  ExpectReply(peer.conn(), Ask(peer.conn()), big, "200 KiB property reply");
  // The public call decodes the same framing into an owned copy.
  auto got = peer.conn().GetProperty(0, 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  GetPropertyReply want;
  ASSERT_TRUE(GetPropertyReply::Decode(bigger, HostWireOrder(), &want));
  EXPECT_EQ(got.value().data, want.data);
  ExpectReply(peer.conn(), Ask(peer.conn()), small, "time reply after the big ones");
}

TEST(ClientFramingTest, EventsAndForeignErrorsAheadOfTheReply) {
  ScriptedPeer peer(nullptr);
  AFAudioConn& c = peer.conn();
  const uint16_t failing = c.QueueRequest(Opcode::kSetInputGain, SetGainReq{});
  const uint16_t awaited = Ask(c);
  const Bytes reply = PropertyReply(awaited, 100, 5);
  Bytes script;
  Append(&script, Event(1));
  Append(&script, Error(failing, AfError::kBadValue, Opcode::kSetInputGain));
  Append(&script, Event(2));
  Append(&script, Event(3));
  Append(&script, reply);
  Append(&script, Event(4));
  peer.Play(script);

  ExpectReply(c, awaited, reply, "reply behind events and an error");
  ASSERT_EQ(peer.foreign_errors().size(), 1u);
  EXPECT_EQ(peer.foreign_errors()[0].seq, failing);
  EXPECT_EQ(peer.foreign_errors()[0].code, AfError::kBadValue);
  // Events queue in arrival order; the one behind the reply arrives on
  // the next blocking wait.
  for (uint32_t tag = 1; tag <= 4; ++tag) {
    AEvent ev;
    ASSERT_TRUE(c.NextEvent(&ev).ok());
    EXPECT_EQ(ev.type, EventType::kPropertyChange);
    EXPECT_EQ(ev.w0, tag);
  }
}

TEST(ClientFramingTest, AwaitedRequestFails) {
  ScriptedPeer peer(nullptr);
  AFAudioConn& c = peer.conn();
  const uint16_t first = Ask(c);
  const uint16_t second = Ask(c);
  const Bytes reply = TimeReply(second, 1234);
  Bytes script = Error(first, AfError::kBadDevice, Opcode::kGetTime);
  Append(&script, reply);
  peer.Play(script);

  auto failed = c.AwaitReply(first);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), AfError::kBadDevice);
  EXPECT_TRUE(peer.foreign_errors().empty()) << "the awaited error went to the handler";
  ExpectReply(c, second, reply, "reply after the failed request");
  EXPECT_FALSE(c.broken());
}

TEST(ClientFramingTest, WouldBlockBursts) {
  const std::vector<Bytes> units = MixedReplies(1, 12, 23);
  auto faults = std::make_shared<FaultSchedule>();
  // Bursts at the first byte of a unit, inside a header, and deep inside
  // an extra-data block.
  uint64_t at = ScriptedPeer::SetupBytes().size();
  for (size_t i = 0; i < units.size(); ++i) {
    faults->WouldBlockReadAt(at + (i % 3 == 0 ? 0 : i % 3 == 1 ? 5 : units[i].size() / 2),
                             1 + static_cast<int>(i % 3));
    at += units[i].size();
  }
  faults->SetMaxReadChunk(700);
  ScriptedPeer peer(faults);
  Bytes script;
  for (const Bytes& u : units) {
    Append(&script, u);
  }
  peer.Play(script);
  for (size_t i = 0; i < units.size(); ++i) {
    ExpectReply(peer.conn(), Ask(peer.conn()), units[i], "reply " + std::to_string(i));
  }
  EXPECT_NE(faults->TraceString().find("wouldblock"), std::string::npos)
      << faults->TraceString();
}

// Every fill finds a partial packet at the head (the library reads only
// when the head packet is incomplete), so each compaction moves one that
// straddles the read boundary; 1,200 mixed replies cross the buffer's
// compaction point many times over.
TEST(ClientFramingTest, PacketsStraddleTheCompactionPoint) {
  const std::vector<Bytes> units = MixedReplies(1, 1200, 41);
  FaultSchedule::RandomProfile profile;
  profile.p_short = 0.5;
  profile.short_max = 5000;
  profile.p_would_block = 0.05;
  profile.would_block_max = 2;
  profile.p_delay = 0.0;
  auto faults = FaultSchedule::Random(41, profile);
  ScriptedPeer peer(faults);
  Bytes script;
  for (const Bytes& u : units) {
    Append(&script, u);
  }
  ASSERT_GT(script.size(), 40 * RecvBuffer::kReadChunk);
  peer.Play(script);
  for (size_t i = 0; i < units.size(); ++i) {
    ExpectReply(peer.conn(), Ask(peer.conn()), units[i], "reply " + std::to_string(i));
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopped at reply " << i << "; seed 41 trace: " << faults->TraceString();
    }
  }
}

}  // namespace
}  // namespace af
