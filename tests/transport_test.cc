// Transport layer: stream pairs, listeners, server-name parsing, the
// poller, and the datagram channels (real UDP and simulated-lossy).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "transport/datagram.h"
#include "transport/fault_stream.h"
#include "transport/listener.h"
#include "transport/poller.h"
#include "transport/recv_buffer.h"
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

// Writes bytes valued from `first` upward into the buffer's tail.
void FillTail(RecvBuffer& buf, size_t n, uint8_t first) {
  const std::span<uint8_t> tail = buf.Tail();
  ASSERT_GE(tail.size(), n);
  for (size_t i = 0; i < n; ++i) {
    tail[i] = static_cast<uint8_t>(first + i);
  }
  buf.Commit(n);
}

TEST(RecvBufferTest, ConsumeMovesNoBytesAndRewindsWhenEmpty) {
  RecvBuffer buf;
  EXPECT_EQ(buf.size(), 0u);
  const uint8_t* base = buf.Tail().data();
  EXPECT_GE(buf.Tail().size(), RecvBuffer::kReadChunk);
  FillTail(buf, 100, 0);
  const std::span<const uint8_t> view = buf.Buffered();
  buf.Consume(40);
  // The old view still reads the same bytes; the new one starts 40 in.
  EXPECT_EQ(view.data(), base);
  EXPECT_EQ(view[39], 39);
  EXPECT_EQ(buf.Buffered().data(), base + 40);
  EXPECT_EQ(buf.Buffered().size(), 60u);
  buf.Consume(60);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.Tail().data(), base) << "an emptied buffer rewinds to the front";
}

TEST(RecvBufferTest, CompactsOnlyWhenLessThanAReadChunkIsFree) {
  constexpr size_t kChunk = RecvBuffer::kReadChunk;
  RecvBuffer buf;
  // Grow to two chunks: a partial packet at the front of a full first
  // chunk leaves less than a chunk free in total, so the next fill grows.
  FillTail(buf, kChunk, 0);
  buf.Consume(kChunk - 10);
  FillTail(buf, 1, 0);  // fill: 10 live, 16 KiB capacity -> grows
  buf.Consume(buf.size());
  const size_t capacity = buf.Tail().size();  // empty: the whole storage
  EXPECT_GE(capacity, 2 * kChunk);

  // Walk the tail to within a chunk of the end with a packet straddling
  // the last read: the fill must compact (not grow) and keep its bytes.
  FillTail(buf, capacity - kChunk + 1, 1);
  buf.Consume(capacity - kChunk + 1 - 300);  // a 300-byte partial packet stays
  const std::span<const uint8_t> live = buf.Buffered();
  const std::vector<uint8_t> before(live.begin(), live.end());
  ASSERT_EQ(buf.Tail().size(), capacity - 300) << "compacted to the front, not grown";
  const std::span<const uint8_t> moved = buf.Buffered();
  EXPECT_EQ(std::vector<uint8_t>(moved.begin(), moved.end()), before);
  // With enough free space at the tail, a fill moves nothing.
  const uint8_t* head = buf.Buffered().data();
  FillTail(buf, 1000, 7);
  EXPECT_EQ(buf.Buffered().data(), head);
}

TEST(RecvBufferTest, GrowsPastTheLargestLiveMessage) {
  RecvBuffer buf;
  // A 200 KiB message arriving in read-chunk pieces: the buffer grows and
  // every byte survives each move.
  constexpr size_t kMessage = 200 * 1024;
  size_t have = 0;
  while (have < kMessage) {
    const size_t n = std::min(RecvBuffer::kReadChunk, kMessage - have);
    const std::span<uint8_t> tail = buf.Tail();
    ASSERT_GE(tail.size(), RecvBuffer::kReadChunk);
    for (size_t i = 0; i < n; ++i) {
      tail[i] = static_cast<uint8_t>((have + i) * 13);
    }
    buf.Commit(n);
    have += n;
  }
  ASSERT_EQ(buf.size(), kMessage);
  const std::span<const uint8_t> all = buf.Buffered();
  for (size_t i = 0; i < kMessage; ++i) {
    ASSERT_EQ(all[i], static_cast<uint8_t>(i * 13)) << "byte " << i;
  }
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
  poller.Watch(b.fd(), 7, Poller::kRead);
  EXPECT_TRUE(poller.Wait(0).empty());
  const char byte = '!';
  a.WriteAll(&byte, 1);
  const auto events = poller.Wait(1000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tag, 7u);
  EXPECT_TRUE(events[0].readable);
  poller.Unwatch(b.fd());
  EXPECT_EQ(poller.watched(), 0u);
}

// The server's pre-wake. An AF_UNIX end registered edge-triggered for
// read and write reports its initial write space once and then nothing,
// not even after it writes; when the peer reads what it wrote, the freed
// buffer space raises a write edge on it. Registered without kWrite, the
// same end reports nothing.
TEST(PollerTest, PeerReadingRaisesTheWriteSpaceEdge) {
  for (const bool with_write : {true, false}) {
    SCOPED_TRACE(with_write ? "read|write|edge" : "read|edge");
    auto pair = CreateStreamPair();
    ASSERT_TRUE(pair.ok());
    auto& [a, b] = pair.value();
    Poller poller;
    poller.Watch(a.fd(), 1, Poller::kRead | Poller::kEdgeTriggered |
                                (with_write ? Poller::kWrite : 0u));
    poller.Wait(0);  // the initial edge, if any
    EXPECT_TRUE(poller.Wait(0).empty());

    const char msg[32] = "a reply";
    ASSERT_TRUE(a.WriteAll(msg, sizeof(msg)).ok());
    EXPECT_TRUE(poller.Wait(0).empty());

    char got[sizeof(msg)];
    ASSERT_TRUE(b.ReadAll(got, sizeof(got)).ok());
    const auto& events = poller.Wait(0);
    if (with_write) {
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].tag, 1u);
      EXPECT_TRUE(events[0].writable);
      EXPECT_FALSE(events[0].readable);
    } else {
      EXPECT_TRUE(events.empty());
    }
    EXPECT_TRUE(poller.Wait(0).empty());
  }
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
