// Transport layer: stream pairs, listeners, server-name parsing, the
// poller, and the datagram channels (real UDP and simulated-lossy).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <numeric>
#include <thread>

#include "transport/datagram.h"
#include "transport/fault_stream.h"
#include "transport/listener.h"
#include "transport/poller.h"
#include "transport/stream.h"

namespace af {
namespace {

TEST(ServerNameTest, Parsing) {
  auto tcp = ParseServerName("myhost:2");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, ServerAddr::Kind::kTcp);
  EXPECT_EQ(tcp->host, "myhost");
  EXPECT_EQ(tcp->display, 2);
  EXPECT_EQ(tcp->TcpPort(), kAudioFileBasePort + 2);

  auto local = ParseServerName(":0");
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->kind, ServerAddr::Kind::kUnix);
  EXPECT_EQ(local->UnixPath(), "/tmp/.AF-unix/AF0");

  auto unix_name = ParseServerName("unix:3");
  ASSERT_TRUE(unix_name.has_value());
  EXPECT_EQ(unix_name->kind, ServerAddr::Kind::kUnix);
  EXPECT_EQ(unix_name->display, 3);

  EXPECT_FALSE(ParseServerName("no-colon").has_value());
  EXPECT_FALSE(ParseServerName("host:abc").has_value());
}

TEST(ServerNameTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseServerName("").has_value());          // nothing at all
  EXPECT_FALSE(ParseServerName(":").has_value());         // colon, no display
  EXPECT_FALSE(ParseServerName("host:").has_value());     // host, no display
  EXPECT_FALSE(ParseServerName("unix:abc").has_value());  // non-numeric
  EXPECT_FALSE(ParseServerName("host:2x").has_value());   // trailing junk
  EXPECT_FALSE(ParseServerName("host:-1").has_value());   // negative display
  // Huge display numbers must fail rather than wrap the 16-bit TCP port.
  EXPECT_FALSE(ParseServerName("host:99999999999999999999").has_value());
  EXPECT_FALSE(ParseServerName("host:65536").has_value());
  const int max_display = 65535 - kAudioFileBasePort;
  EXPECT_FALSE(ParseServerName("host:" + std::to_string(max_display + 1)).has_value());
  // The largest display whose port still fits is accepted.
  auto edge = ParseServerName("host:" + std::to_string(max_display));
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->TcpPort(), 65535);
}

TEST(StreamTest, PairRoundTrip) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  const char msg[] = "hello audio";
  ASSERT_TRUE(a.WriteAll(msg, sizeof(msg)).ok());
  char buf[sizeof(msg)] = {};
  ASSERT_TRUE(b.ReadAll(buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, "hello audio");
}

TEST(StreamTest, ReadAfterCloseReportsClosed) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  a.Close();
  char buf[4];
  const IoResult r = b.Read(buf, sizeof(buf));
  EXPECT_EQ(r.status, IoStatus::kClosed);
}

TEST(StreamTest, NonBlockingReadWouldBlock) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ASSERT_TRUE(b.SetNonBlocking(true).ok());
  char buf[4];
  EXPECT_EQ(b.Read(buf, sizeof(buf)).status, IoStatus::kWouldBlock);
  (void)a;
}

TEST(StreamTest, PartialReadReturnsWhatIsBuffered) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ASSERT_TRUE(a.WriteAll("abc", 3).ok());
  char buf[16] = {};
  const IoResult r = b.Read(buf, sizeof(buf));
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 3u);  // kOk with fewer bytes than asked
}

TEST(StreamTest, WriteToClosedPeerReportsClosed) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  b.Close();
  const char byte = 'x';
  // EPIPE must surface as kClosed (and must not raise SIGPIPE).
  EXPECT_EQ(a.Write(&byte, 1).status, IoStatus::kClosed);
}

TEST(StreamTest, NonBlockingWriteFillsBufferThenWouldBlock) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ASSERT_TRUE(a.SetNonBlocking(true).ok());
  std::vector<uint8_t> chunk(4096, 0x55);
  IoStatus status = IoStatus::kOk;
  // Nobody reads from b, so the socket buffer must eventually fill.
  for (int i = 0; i < 10000 && status == IoStatus::kOk; ++i) {
    status = a.Write(chunk.data(), chunk.size()).status;
  }
  EXPECT_EQ(status, IoStatus::kWouldBlock);
  // Draining the peer makes the stream writable again.
  ASSERT_TRUE(b.SetNonBlocking(true).ok());
  std::vector<uint8_t> sink(1 << 16);
  while (b.Read(sink.data(), sink.size()).status == IoStatus::kOk) {
  }
  const IoResult r = a.Write(chunk.data(), chunk.size());
  EXPECT_EQ(r.status, IoStatus::kOk);
  (void)b;
}

TEST(StreamTest, BadFdReportsError) {
  // A stream whose fd the kernel no longer recognises must report kError,
  // not kClosed: the distinction separates peer teardown from local bugs.
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ::close(a.fd());  // yank the descriptor out from under the stream
  char buf[4];
  EXPECT_EQ(a.Read(buf, sizeof(buf)).status, IoStatus::kError);
  EXPECT_EQ(a.Write(buf, sizeof(buf)).status, IoStatus::kError);
  (void)b;
}

// --- scatter-gather writes ---------------------------------------------------

TEST(StreamTest, WritevGathersAcrossBuffers) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  uint8_t part1[] = {'h', 'e', 'l'};
  uint8_t part2[] = {'l', 'o'};
  uint8_t part3[] = {'!', '!'};
  struct iovec iov[3] = {
      {part1, sizeof(part1)}, {part2, sizeof(part2)}, {part3, sizeof(part3)}};
  const IoResult r = a.Writev(iov, 3);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 7u);
  char buf[8] = {};
  ASSERT_TRUE(b.ReadAll(buf, 7).ok());
  EXPECT_STREQ(buf, "hello!!");
}

TEST(StreamTest, WritevToClosedPeerReportsClosed) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  b.Close();
  uint8_t byte = 'x';
  struct iovec iov = {&byte, 1};
  // EPIPE must surface as kClosed without raising SIGPIPE, exactly like
  // the plain Write path.
  EXPECT_EQ(a.Writev(&iov, 1).status, IoStatus::kClosed);
}

TEST(StreamTest, WritevNonBlockingReportsWouldBlock) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ASSERT_TRUE(a.SetNonBlocking(true).ok());
  std::vector<uint8_t> chunk(4096, 0x5A);
  struct iovec iov = {chunk.data(), chunk.size()};
  IoStatus status = IoStatus::kOk;
  for (int i = 0; i < 10000 && status == IoStatus::kOk; ++i) {
    struct iovec attempt = iov;
    status = a.Writev(&attempt, 1).status;
  }
  EXPECT_EQ(status, IoStatus::kWouldBlock);
  (void)b;
}

TEST(StreamTest, BlockingLoopsWaitOnNonBlockingFds) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ASSERT_TRUE(a.SetNonBlocking(true).ok());
  ASSERT_TRUE(b.SetNonBlocking(true).ok());
  // Far beyond the socket buffer, so both loops meet kWouldBlock and must
  // wait for their fd instead of failing.
  std::vector<uint8_t> sent(512 * 1024);
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<uint8_t>(i * 13);
  }
  std::vector<uint8_t> received(sent.size());
  std::thread reader(
      [&b, &received] { EXPECT_TRUE(b.ReadAll(received.data(), received.size()).ok()); });
  EXPECT_TRUE(a.WriteAll(sent.data(), sent.size()).ok());
  reader.join();
  EXPECT_EQ(received, sent);
}

// --- scatter-gather under fault injection ------------------------------------

TEST(FaultStreamTest, WritevSplitsAtScriptedOffsetMidIovec) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto faults = std::make_shared<FaultSchedule>();
  faults->SplitWriteAt(6);  // inside the second iovec
  FaultStream a(std::move(pair.value().first), faults);
  FdStream& b = pair.value().second;

  uint8_t part1[] = {0, 1, 2, 3};
  uint8_t part2[] = {4, 5, 6, 7};
  struct iovec iov[2] = {{part1, sizeof(part1)}, {part2, sizeof(part2)}};
  // The chain runs iovec by iovec through the scripted write path: entry
  // one passes whole (4 bytes), entry two is split at absolute offset 6
  // (2 of its 4 bytes), and the chain stops at the short entry.
  const IoResult r = a.Writev(iov, 2);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 6u);
  EXPECT_EQ(faults->faults_applied(), 1u);

  uint8_t buf[8] = {};
  ASSERT_TRUE(b.ReadAll(buf, 6).ok());
  EXPECT_EQ(buf[5], 5);
}

// The chain {part1, part2} from byte `sent` onward, as FlushOutput builds
// it from its head segment and offset.
size_t ChainFrom(std::span<uint8_t> part1, std::span<uint8_t> part2, size_t sent,
                 struct iovec* iov) {
  size_t iovcnt = 0;
  if (sent < part1.size()) {
    iov[iovcnt++] = {part1.data() + sent, part1.size() - sent};
    sent = part1.size();
  }
  iov[iovcnt++] = {part2.data() + (sent - part1.size()), part2.size() - (sent - part1.size())};
  return iovcnt;
}

TEST(FaultStreamTest, WritevResumesAcrossInjectedStalls) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto faults = std::make_shared<FaultSchedule>();
  // A split, then a would-block burst landing mid-chain, then another
  // split. Each Writev stops at the next split or stall; the caller
  // resumes from the byte count, as ClientConn::FlushOutput does.
  faults->SplitWriteAt(3);
  faults->WouldBlockWriteAt(5, 2);
  faults->SplitWriteAt(9);
  FaultStream a(std::move(pair.value().first), faults);
  FdStream& b = pair.value().second;

  uint8_t part1[] = {10, 11, 12, 13, 14};
  uint8_t part2[] = {15, 16, 17, 18, 19, 20};
  const size_t total = sizeof(part1) + sizeof(part2);
  std::vector<size_t> stops;
  int stalls = 0;
  for (size_t sent = 0; sent < total;) {
    struct iovec iov[2];
    const IoResult r = a.Writev(iov, ChainFrom(part1, part2, sent, iov));
    if (r.status == IoStatus::kWouldBlock) {
      ++stalls;
      continue;
    }
    ASSERT_EQ(r.status, IoStatus::kOk);
    sent += r.bytes;
    stops.push_back(sent);
  }
  // The first stall ends the call at 5 as a partial write; the second has
  // no progress to report and surfaces as kWouldBlock.
  EXPECT_EQ(stops, (std::vector<size_t>{3, 5, 9, 11}));
  EXPECT_EQ(stalls, 1);
  EXPECT_GE(faults->faults_applied(), 3u);

  uint8_t buf[11] = {};
  ASSERT_TRUE(b.ReadAll(buf, sizeof(buf)).ok());
  for (size_t i = 0; i < sizeof(buf); ++i) {
    EXPECT_EQ(buf[i], 10 + i) << "byte " << i;
  }
}

TEST(FaultStreamTest, WritevStopsAtScriptedCut) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto faults = std::make_shared<FaultSchedule>();
  faults->CutWriteAt(5);  // peer "goes away" mid-second-iovec
  FaultStream a(std::move(pair.value().first), faults);

  uint8_t part1[] = {1, 2, 3};
  uint8_t part2[] = {4, 5, 6, 7};
  struct iovec iov[2];
  // The first call stops at the cut; resuming from its byte count meets
  // the cut and reports the peer gone.
  IoResult r = a.Writev(iov, ChainFrom(part1, part2, 0, iov));
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 5u);
  r = a.Writev(iov, ChainFrom(part1, part2, r.bytes, iov));
  EXPECT_EQ(r.status, IoStatus::kClosed);
  // The bytes before the cut were accepted; the peer can read exactly 5.
  uint8_t buf[8] = {};
  r = pair.value().second.Read(buf, sizeof(buf));
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 5u);
}

TEST(FaultStreamTest, WritevWithoutScheduleIsPassThrough) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FaultStream a(std::move(pair.value().first));
  uint8_t part1[] = {'a', 'b'};
  uint8_t part2[] = {'c'};
  struct iovec iov[2] = {{part1, sizeof(part1)}, {part2, sizeof(part2)}};
  const IoResult r = a.Writev(iov, 2);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 3u);
  char buf[4] = {};
  ASSERT_TRUE(pair.value().second.ReadAll(buf, 3).ok());
  EXPECT_STREQ(buf, "abc");
}

TEST(ListenerTest, TcpAcceptAndConnect) {
  auto listener = Listener::ListenTcp(17891);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread connector([] {
    auto stream = ConnectTcp("127.0.0.1", 17891);
    ASSERT_TRUE(stream.ok());
    const char byte = 'x';
    stream.value().WriteAll(&byte, 1);
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  auto& [stream, peer] = accepted.value();
  EXPECT_EQ(peer.family, 0);  // IPv4
  EXPECT_EQ(peer.ToString(), "127.0.0.1");
  char byte = 0;
  ASSERT_TRUE(stream.ReadAll(&byte, 1).ok());
  EXPECT_EQ(byte, 'x');
  connector.join();
}

TEST(ListenerTest, UnixAcceptAndConnect) {
  const std::string path = "/tmp/.AF-unix-test/AFtest";
  auto listener = Listener::ListenUnix(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread connector([&path] {
    auto stream = ConnectUnix(path);
    ASSERT_TRUE(stream.ok());
    const char byte = 'u';
    stream.value().WriteAll(&byte, 1);
  });
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted.value().second.IsLocal());
  char byte = 0;
  ASSERT_TRUE(accepted.value().first.ReadAll(&byte, 1).ok());
  EXPECT_EQ(byte, 'u');
  connector.join();
}

TEST(PollerTest, DetectsReadable) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  Poller poller;
  poller.Watch(b.fd(), true, false);
  EXPECT_TRUE(poller.Wait(0).empty());
  const char byte = '!';
  a.WriteAll(&byte, 1);
  const auto events = poller.Wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, b.fd());
  EXPECT_TRUE(events[0].readable);
  poller.Unwatch(b.fd());
  EXPECT_EQ(poller.watched(), 0u);
}

TEST(SimDatagramTest, LosslessDelivery) {
  auto [a, b] = SimDatagramChannel::CreatePair();
  const std::vector<uint8_t> packet = {1, 2, 3};
  a->Send(packet);
  a->Send({packet.data(), 2});
  EXPECT_TRUE(b->HasPending());
  EXPECT_EQ(b->Receive(), packet);
  EXPECT_EQ(b->Receive().size(), 2u);
  EXPECT_FALSE(b->HasPending());
  EXPECT_TRUE(b->Receive().empty());

  b->Send(packet);
  EXPECT_EQ(a->Receive(), packet);
}

TEST(SimDatagramTest, LossIsDeterministicFromSeed) {
  auto CountDelivered = [](uint32_t seed) {
    auto [a, b] = SimDatagramChannel::CreatePair();
    a->SetLossRate(0.3);
    a->SetSeed(seed);
    int delivered = 0;
    for (int i = 0; i < 1000; ++i) {
      a->Send(std::vector<uint8_t>{static_cast<uint8_t>(i)});
      if (b->HasPending()) {
        b->Receive();
        ++delivered;
      }
    }
    return delivered;
  };
  const int run1 = CountDelivered(42);
  const int run2 = CountDelivered(42);
  EXPECT_EQ(run1, run2);
  // About 70% should get through.
  EXPECT_NEAR(run1, 700, 60);
}

TEST(UdpChannelTest, PairRoundTrip) {
  auto pair = UdpChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto& [a, b] = pair.value();
  const std::vector<uint8_t> packet = {9, 8, 7, 6};
  a->Send(packet);
  // UDP over loopback is effectively synchronous, but poll briefly anyway.
  for (int i = 0; i < 100 && !b->HasPending(); ++i) {
    usleep(1000);
  }
  ASSERT_TRUE(b->HasPending());
  EXPECT_EQ(b->Receive(), packet);
}

}  // namespace
}  // namespace af
