// Robustness: garbage on the wire. A server shared by every desktop
// application must shrug off malformed clients - bad setup prefixes,
// random request streams, truncated requests - while other clients keep
// getting service. All teardown waits are deterministic (a server-drained
// barrier, never a sleep), and the random streams additionally run through
// a seeded FaultStream so the garbage arrives shortened and stalled too.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "proto/decode.h"
#include "proto/events.h"
#include "proto/oplog.h"
#include "proto/stats.h"
#include "torture_util.h"
#include "transport/fault_stream.h"

namespace af {
namespace {

// Fixed seed corpus for the FaultStream walks each round of garbage rides
// through; failures print the seed so they replay exactly.
constexpr uint64_t kFuzzFaultSeedBase = 0xAF5EED;

class FuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.realtime = false;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    conn_ = conn.take();
  }

  // A raw connection adopted by the server, bypassing the client library;
  // the server's side runs through `faults` (null = clean transport).
  FdStream RawConnection(std::shared_ptr<FaultSchedule> faults = nullptr) {
    auto pair = CreateStreamPair();
    EXPECT_TRUE(pair.ok());
    runner_->server().AdoptClient(std::move(pair.value().second), std::move(faults));
    return std::move(pair.value().first);
  }

  // Blocks (deterministically) until the hostile client is torn down and
  // only the bystander remains.
  void DrainToBystander(const std::string& context) {
    const size_t clients = torture::DrainToClientCount(*runner_, 1);
    EXPECT_EQ(clients, 1u) << context;
  }

  // The bystander client must still be served.
  void ExpectServerAlive() {
    auto t = conn_->GetTime(0);
    EXPECT_TRUE(t.ok());
  }

  std::unique_ptr<ServerRunner> runner_;
  std::unique_ptr<AFAudioConn> conn_;
};

TEST_F(FuzzTest, GarbageSetupPrefix) {
  for (const uint8_t first : {0x00, 0xFF, 0x41, 0x6D}) {
    FdStream raw = RawConnection();
    std::vector<uint8_t> garbage(64, first);
    raw.WriteAll(garbage.data(), garbage.size());
    raw.Close();
    DrainToBystander("garbage setup first byte " + std::to_string(first));
    ExpectServerAlive();
  }
}

TEST_F(FuzzTest, RandomRequestStreamsAfterValidSetup) {
  std::mt19937 rng(0xFEED);
  for (int round = 0; round < 16; ++round) {
    // The garbage rides through a seeded fault walk: shortened, stalled,
    // and reordered into every possible framing misalignment.
    const uint64_t fault_seed = kFuzzFaultSeedBase + static_cast<uint64_t>(round);
    FaultSchedule::RandomProfile profile;
    profile.p_short = 0.4;
    profile.p_would_block = 0.25;
    profile.p_delay = 0.0;  // nothing in this test should ever wait
    auto faults = FaultSchedule::Random(fault_seed, profile);
    FdStream raw = RawConnection(faults);
    // Valid setup first, so the fuzz hits the dispatcher, not the
    // handshake.
    ASSERT_TRUE(torture::RawSetup(raw));

    // Then a burst of random bytes shaped vaguely like requests: random
    // opcode, plausible length, random body.
    std::vector<uint8_t> burst;
    for (int i = 0; i < 40; ++i) {
      const uint8_t opcode = static_cast<uint8_t>(rng() % 48);  // some invalid
      const uint16_t words = static_cast<uint16_t>(rng() % 24 + 1);
      WireWriter w;
      w.U8(opcode);
      w.U8(static_cast<uint8_t>(rng()));
      w.U16(words);
      for (int j = 1; j < words; ++j) {
        w.U32(static_cast<uint32_t>(rng()));
      }
      burst.insert(burst.end(), w.data().begin(), w.data().end());
    }
    raw.WriteAll(burst.data(), burst.size());
    raw.Close();
    DrainToBystander("fuzz round " + std::to_string(round) + " fault seed " +
                     std::to_string(fault_seed) + "; trace: " + faults->TraceString());
    ExpectServerAlive();
  }
}

TEST_F(FuzzTest, TruncatedRequestThenDisconnect) {
  FdStream raw = RawConnection();
  SetupRequest setup;
  const auto setup_bytes = setup.Encode();
  ASSERT_TRUE(raw.WriteAll(setup_bytes.data(), setup_bytes.size()).ok());
  // Announce a 1000-word request but send only the header and a fragment.
  WireWriter w;
  w.U8(static_cast<uint8_t>(Opcode::kPlaySamples));
  w.U8(0);
  w.U16(1000);
  w.U32(0x12345678);
  raw.WriteAll(w.data().data(), w.size());
  raw.Close();  // mid-request disconnect
  DrainToBystander("truncated request then disconnect");
  ExpectServerAlive();
}

TEST_F(FuzzTest, OversizedNbytesFieldInPlay) {
  // nbytes claiming more data than the request carries must yield a
  // BadLength error, not a read past the request.
  FdStream raw = RawConnection();
  ASSERT_TRUE(torture::RawSetup(raw));

  WireWriter w;
  const size_t header = BeginRequest(w, Opcode::kPlaySamples);
  w.U32(0x100000);   // some AC id
  w.U32(0);          // start time
  w.U32(999999);     // nbytes far beyond the actual request size
  w.U32(0);          // flags
  w.U32(0xABCD);     // a token amount of "data"
  EndRequest(w, header);
  ASSERT_TRUE(raw.WriteAll(w.data().data(), w.size()).ok());

  uint8_t unit[kReplyBaseBytes];
  ASSERT_TRUE(raw.ReadAll(unit, sizeof(unit)).ok());
  ErrorPacket error;
  ASSERT_TRUE(ErrorPacket::Decode(unit, HostWireOrder(), &error));
  EXPECT_EQ(error.code, AfError::kBadLength);
  ExpectServerAlive();
}

// --- decoder fuzz budget ------------------------------------------------------
//
// The decoders alone, no server. Every AF_REQUESTS row round-trips random
// field values; random and truncated input then goes through every body
// decoder, the asniff line and stream decoders, and the stats, trace,
// op-log, setup and event decoders. Seeds and counts are fixed, so a
// failure replays exactly. Nothing may crash or hang; the sanitizer builds
// are the memory oracle.

constexpr uint32_t kDecoderFuzzSeed = 0xDEC0DE;
constexpr int kRoundsPerRequest = 64;
constexpr int kStreamRounds = 256;
constexpr int kBlockRounds = 500;
constexpr size_t kMaxFieldBytes = 64;  // longest random string or vector

using Rng = std::mt19937;

std::vector<uint8_t> RandomBytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> out(rng() % (max_len + 1));
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng());
  }
  return out;
}

// Random values for every field of a body, walked from its own field list.
// `play` backs a counted-bytes field, whose count field is set to match.
template <typename T>
void RandomFields(Rng& rng, T* body, std::vector<uint8_t>* play);

template <typename M>
void RandomValue(Rng& rng, M* v, std::vector<uint8_t>* play) {
  if constexpr (std::is_same_v<M, std::string>) {
    const std::vector<uint8_t> bytes = RandomBytes(rng, kMaxFieldBytes);
    v->assign(bytes.begin(), bytes.end());
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    *v = RandomBytes(rng, kMaxFieldBytes);
  } else if constexpr (HasFields<M>) {
    RandomFields(rng, v, play);
  } else {
    *v = static_cast<M>(rng());
  }
}

template <typename T, typename M>
void RandomRow(Rng& rng, T* body, std::vector<uint8_t>* play, const FieldRow<T, M>& row) {
  RandomValue(rng, &(body->*row.member), play);
}

template <typename T>
void RandomRow(Rng& rng, T* body, std::vector<uint8_t>* play,
               const CountedBytesRow<T>& row) {
  *play = RandomBytes(rng, kMaxFieldBytes);
  body->*row.member = *play;
  body->*row.count = static_cast<uint32_t>(play->size());
}

template <typename T>
void RandomFields(Rng& rng, T* body, std::vector<uint8_t>* play) {
  std::apply([&](const auto&... row) { (RandomRow(rng, body, play, row), ...); },
             T::Fields());
}

template <typename Body>
std::vector<uint8_t> Framed(Opcode op, const Body& body, WireOrder order) {
  WireWriter w(order);
  const size_t header = BeginRequest(w, op);
  body.Encode(w);
  EndRequest(w, header);
  return w.Take();
}

// A framed request of a random opcode with random field values.
std::vector<uint8_t> RandomRequest(Rng& rng, WireOrder order) {
  const auto op = static_cast<Opcode>(kMinOpcode + rng() % (kMaxOpcode - kMinOpcode + 1));
  std::vector<uint8_t> play;
  switch (op) {
#define AF_RANDOM_REQUEST(value, name, type) \
  case Opcode::k##name: {                    \
    type body;                               \
    RandomFields(rng, &body, &play);         \
    return Framed(op, body, order);          \
  }
    AF_REQUESTS(AF_RANDOM_REQUEST)
#undef AF_RANDOM_REQUEST
  }
  return {};
}

// msg is a request framed under op, possibly cut short or with a random
// body. Body::Decode must not crash, and DecodeRequestLine must name op and
// mark the line <truncated> exactly when Body::Decode rejects the body.
template <typename Body>
bool DecodersAgree(Opcode op, std::span<const uint8_t> msg, WireOrder order) {
  WireReader r(msg.subspan(kRequestHeaderBytes), order);
  Body body;
  const bool whole = Body::Decode(r, &body);
  const std::string line = DecodeRequestLine(msg, order);
  return line.rfind(OpcodeName(op), 0) == 0 &&
         (line.find("<truncated>") == std::string::npos) == whole;
}

template <typename Body>
void FuzzRequestRow(Opcode op) {
  Rng rng(kDecoderFuzzSeed + static_cast<uint32_t>(op));
  for (int round = 0; round < kRoundsPerRequest; ++round) {
    Body body;
    std::vector<uint8_t> play;
    RandomFields(rng, &body, &play);
    for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
      const std::vector<uint8_t> msg = Framed(op, body, order);
      const std::span<const uint8_t> view(msg);
      WireReader r(view.subspan(kRequestHeaderBytes), order);
      Body decoded;
      ASSERT_TRUE(Body::Decode(r, &decoded)) << OpcodeName(op) << " round " << round;
      EXPECT_EQ(Framed(op, decoded, order), msg) << OpcodeName(op) << " round " << round;
      EXPECT_TRUE(DecodersAgree<Body>(op, view, order)) << OpcodeName(op) << " round " << round;
      for (size_t cut = kRequestHeaderBytes; cut < msg.size(); ++cut) {
        EXPECT_TRUE(DecodersAgree<Body>(op, view.first(cut), order))
            << OpcodeName(op) << " round " << round << " cut " << cut;
      }
      std::vector<uint8_t> junk(msg.begin(), msg.begin() + kRequestHeaderBytes);
      const std::vector<uint8_t> tail = RandomBytes(rng, 2 * kMaxFieldBytes);
      junk.insert(junk.end(), tail.begin(), tail.end());
      EXPECT_TRUE(DecodersAgree<Body>(op, junk, order))
          << OpcodeName(op) << " round " << round << " random body";
    }
  }
}

TEST(DecoderFuzzTest, EveryRequestRoundTripsAndSurvivesDamage) {
#define AF_FUZZ_REQUEST(value, name, body) FuzzRequestRow<body>(Opcode::k##name);
  AF_REQUESTS(AF_FUZZ_REQUEST)
#undef AF_FUZZ_REQUEST
}

// Valid input damaged one of three ways: bytes flipped, cut short, or
// followed by random bytes.
std::vector<uint8_t> Damage(Rng& rng, std::vector<uint8_t> bytes) {
  switch (rng() % 3) {
    case 0:
      for (int flips = 1 + rng() % 4; flips > 0 && !bytes.empty(); --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
      }
      break;
    case 1:
      bytes.resize(rng() % (bytes.size() + 1));
      break;
    default: {
      const std::vector<uint8_t> tail = RandomBytes(rng, 96);
      bytes.insert(bytes.end(), tail.begin(), tail.end());
      break;
    }
  }
  return bytes;
}

// Feeds a stream in random-sized pieces; every message must come out as
// one non-empty line, plus one line if the stream was declared dead.
void FeedInPieces(Rng& rng, StreamDecoder& dec, const std::vector<uint8_t>& stream) {
  size_t lines = 0;
  bool empty_line = false;
  const auto sink = [&](const std::string& line) {
    ++lines;
    empty_line |= line.empty();
  };
  for (size_t at = 0; at < stream.size();) {
    const size_t n = std::min<size_t>(1 + rng() % 48, stream.size() - at);
    dec.Feed(std::span<const uint8_t>(stream).subspan(at, n), sink);
    at += n;
  }
  EXPECT_FALSE(empty_line);
  EXPECT_EQ(lines, dec.messages() + (dec.saw_error() ? 1 : 0));
}

TEST(DecoderFuzzTest, StreamDecodersSurviveDamagedTraffic) {
  Rng rng(kDecoderFuzzSeed);
  for (int round = 0; round < kStreamRounds; ++round) {
    const WireOrder order = rng() % 2 == 0 ? WireOrder::kLittle : WireOrder::kBig;

    // Client to server: a setup, then requests, some of them damaged.
    SetupRequest setup;
    setup.order = order;
    std::vector<uint8_t> up = setup.Encode();
    for (int i = 0; i < 8; ++i) {
      std::vector<uint8_t> req = RandomRequest(rng, order);
      if (rng() % 4 == 0) {
        req = Damage(rng, std::move(req));
      }
      up.insert(up.end(), req.begin(), req.end());
    }
    StreamDecoder client(StreamDecoder::Dir::kClientToServer);
    FeedInPieces(rng, client, up);
    EXPECT_TRUE(client.have_order()) << "round " << round;
    EXPECT_EQ(client.order(), order) << "round " << round;

    // Server to client: a setup reply, then errors, replies and events,
    // some of them damaged.
    SetupReply reply;
    reply.success = true;
    reply.vendor = "fuzz";
    reply.devices.resize(1 + rng() % 3);
    std::vector<uint8_t> down = reply.Encode(order);
    for (int i = 0; i < 8; ++i) {
      WireWriter w(order);
      switch (rng() % 4) {
        case 0: {
          ErrorPacket err;
          err.code = static_cast<AfError>(rng() % 16);
          err.opcode = static_cast<Opcode>(rng());
          err.Encode(w);
          break;
        }
        case 1: {
          RecordSamplesReply rec;
          rec.data = RandomBytes(rng, kMaxFieldBytes);
          rec.actual_bytes = static_cast<uint32_t>(rec.data.size());
          rec.Encode(w, static_cast<uint16_t>(rng()));
          break;
        }
        case 2: {
          AEvent ev;
          ev.type = static_cast<EventType>(kMinEventType + rng() % 5);
          ev.device = rng() % 4;
          ev.Encode(w);
          break;
        }
        default: {
          std::vector<uint8_t> unit = RandomBytes(rng, 2 * kReplyBaseBytes);
          w.Bytes(unit);
          break;
        }
      }
      std::vector<uint8_t> unit = w.Take();
      if (rng() % 4 == 0) {
        unit = Damage(rng, std::move(unit));
      }
      down.insert(down.end(), unit.begin(), unit.end());
    }
    StreamDecoder server(StreamDecoder::Dir::kServerToClient);
    server.SetOrder(order);
    FeedInPieces(rng, server, down);
  }
}

TEST(DecoderFuzzTest, BlockDecodersSurviveDamagedBlocks) {
  Rng rng(kDecoderFuzzSeed);
  for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
    // One valid block of every kind, checked whole, then damaged.
    ServerStatsWire stats;
    stats.counters.assign(kNumServerCounters, 7);
    stats.errors_by_code.assign(4, 1);
    stats.hist_buckets = 4;
    stats.opcodes.resize(kMaxOpcode + 1);
    stats.opcodes[5].buckets = {1, 2, 3, 4};
    stats.devices.resize(2);
    stats.devices[1].counters.assign(3, 9);
    stats.shards.resize(2);
    WireWriter stats_w(order);
    stats.Encode(stats_w, 1);

    TraceWire trace;
    trace.events.resize(3);
    trace.events[1].corr = 0x1234;
    WireWriter trace_w(order);
    trace.Encode(trace_w, 2);

    WireWriter hello_w(order);
    EncodeOplogHello(hello_w);
    OplogRecord rec;
    rec.seq = 5;
    rec.type = static_cast<uint16_t>(OplogType::kACCreate);
    rec.attrs.encoding = AEncodeType::kLin16;
    WireWriter rec_w(order);
    EncodeOplogRecord(rec_w, rec);
    WireWriter ack_w(order);
    EncodeOplogAck(ack_w, 99);

    SetupRequest setup;
    setup.order = order;
    setup.auth_name = "MIT-MAGIC";
    const std::vector<uint8_t> setup_bytes = setup.Encode();
    SetupReply reply;
    reply.success = true;
    reply.vendor = "fuzz";
    reply.devices.resize(2);
    const std::vector<uint8_t> reply_bytes = reply.Encode(order);

    AEvent event;
    event.type = EventType::kPropertyChange;
    WireWriter event_w(order);
    event.Encode(event_w);

    const auto decode_stats = [order](std::span<const uint8_t> b) {
      ServerStatsWire out;
      return ServerStatsWire::Decode(b, order, &out);
    };
    const auto decode_trace = [order](std::span<const uint8_t> b) {
      TraceWire out;
      return TraceWire::Decode(b, order, &out);
    };
    const auto decode_hello = [](std::span<const uint8_t> b) {
      return DecodeOplogHello(b).has_value();
    };
    const auto decode_record = [order](std::span<const uint8_t> b) {
      OplogRecord out;
      return DecodeOplogRecord(b, order, kOplogRecordBytes, &out);
    };
    const auto decode_ack = [order](std::span<const uint8_t> b) {
      return DecodeOplogAck(b, order).has_value();
    };
    const auto decode_setup = [](std::span<const uint8_t> b) {
      SetupRequest out;
      uint16_t name_len = 0;
      uint16_t data_len = 0;
      return SetupRequest::DecodeFixed(b, &out, &name_len, &data_len);
    };
    const auto decode_reply = [order](std::span<const uint8_t> b) {
      bool success = false;
      uint32_t words = 0;
      SetupReply out;
      return SetupReply::DecodeFixed(b, order, &success, &words) &&
             b.size() >= SetupReply::kFixedBytes &&
             SetupReply::DecodeVariable(b.subspan(SetupReply::kFixedBytes), order, success,
                                        &out);
    };
    const auto decode_event = [order](std::span<const uint8_t> b) {
      AEvent out;
      return AEvent::Decode(b, order, &out);
    };

    const std::vector<std::pair<std::vector<uint8_t>, std::function<bool(std::span<const uint8_t>)>>>
        blocks = {
            {stats_w.Take(), decode_stats}, {trace_w.Take(), decode_trace},
            {hello_w.Take(), decode_hello}, {rec_w.Take(), decode_record},
            {ack_w.Take(), decode_ack},     {setup_bytes, decode_setup},
            {reply_bytes, decode_reply},    {event_w.Take(), decode_event},
        };
    for (size_t kind = 0; kind < blocks.size(); ++kind) {
      const auto& [bytes, decode] = blocks[kind];
      ASSERT_TRUE(decode(bytes)) << "block " << kind;
      for (int round = 0; round < kBlockRounds; ++round) {
        decode(Damage(rng, bytes));
        decode(RandomBytes(rng, bytes.size() + 32));
      }
    }
  }
}

// Every per-type reply decoder, fed its valid unit whole, cut short at
// every length, damaged, replaced by random bytes, and with each 32-bit
// word of the fixed part overwritten by a lying length. Each unit is
// decoded from a heap copy of exactly its size: a view into a larger
// buffer (the client decodes views into its receive buffer) would keep an
// over-read inside the allocation, where ASan cannot see it.
constexpr int kReplyRounds = 200;
constexpr uint32_t kLyingLengths[] = {0,       1,          7,          0x100,      0xFFFF,
                                      0x10000, 0x3FFFFFFF, 0x40000001, 0x7FFFFFFF, 0xFFFFFFFF};

template <typename Reply>
bool DecodeExactCopy(std::span<const uint8_t> unit, WireOrder order) {
  const std::vector<uint8_t> exact(unit.begin(), unit.end());
  Reply out;
  return Reply::Decode(exact, order, &out);
}

struct ReplyCase {
  const char* name;
  std::vector<uint8_t> unit;
  bool (*decode)(std::span<const uint8_t>, WireOrder);
};

template <typename Reply>
ReplyCase MakeReplyCase(const char* name, const Reply& reply, WireOrder order) {
  WireWriter w(order);
  reply.Encode(w, 0x1234);
  return {name, w.Take(), &DecodeExactCopy<Reply>};
}

std::vector<ReplyCase> EveryReplyUnit(Rng& rng, WireOrder order) {
  GetTimeReply time;  // also PlaySamplesReply
  time.time = 0x01020304;
  ResyncTimeReply resync;
  resync.server_time = 9;
  resync.promoted_watermark = 7;
  resync.promoted = 1;
  RecordSamplesReply record;
  record.data = RandomBytes(rng, kMaxFieldBytes);
  record.data.push_back(1);  // odd lengths exercise the pad
  record.actual_bytes = static_cast<uint32_t>(record.data.size());
  QueryPhoneReply phone;
  phone.off_hook = 1;
  QueryGainReply gain;
  gain.gain_db = -6;
  InternAtomReply atom;
  atom.atom = 77;
  GetAtomNameReply atom_name;
  atom_name.name = "FUZZ_ATOM_NAME";
  GetPropertyReply property;
  property.type = 31;
  property.format = 8;
  property.data = RandomBytes(rng, kMaxFieldBytes);
  property.data.push_back(2);
  ListPropertiesReply properties;
  properties.atoms = {1, 2, 3, 40, 500};
  ListHostsReply hosts;
  hosts.enabled = 1;
  hosts.hosts = {{0, {127, 0, 0, 1}}, {1, std::vector<uint8_t>(16, 0xFE)}, {2, {}}};
  return {
      MakeReplyCase("GetTimeReply", time, order),
      MakeReplyCase("ResyncTimeReply", resync, order),
      MakeReplyCase("RecordSamplesReply", record, order),
      MakeReplyCase("QueryPhoneReply", phone, order),
      MakeReplyCase("QueryGainReply", gain, order),
      MakeReplyCase("InternAtomReply", atom, order),
      MakeReplyCase("GetAtomNameReply", atom_name, order),
      MakeReplyCase("GetPropertyReply", property, order),
      MakeReplyCase("ListPropertiesReply", properties, order),
      MakeReplyCase("ListHostsReply", hosts, order),
      MakeReplyCase("EmptyReply", EmptyReply{}, order),
  };
}

TEST(DecoderFuzzTest, EveryReplyDecoderSurvivesDamage) {
  Rng rng(kDecoderFuzzSeed);
  for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
    for (const ReplyCase& c : EveryReplyUnit(rng, order)) {
      const std::span<const uint8_t> unit(c.unit);
      ASSERT_TRUE(c.decode(unit, order)) << c.name;
      for (size_t cut = 0; cut < unit.size(); ++cut) {
        const bool whole = c.decode(unit.first(cut), order);
        EXPECT_TRUE(cut >= kReplyBaseBytes || !whole) << c.name << " accepted " << cut << " bytes";
      }
      for (size_t word = 4; word < kReplyBaseBytes; word += 4) {
        for (const uint32_t lie : kLyingLengths) {
          WireWriter w(order);
          w.Bytes(unit);
          w.PatchU32(word, lie);
          const std::vector<uint8_t> lying = w.Take();
          c.decode(lying, order);
          c.decode(std::span<const uint8_t>(lying).first(kReplyBaseBytes), order);
        }
      }
      for (int round = 0; round < kReplyRounds; ++round) {
        c.decode(Damage(rng, c.unit), order);
        std::vector<uint8_t> random = RandomBytes(rng, c.unit.size() + 32);
        if (!random.empty() && rng() % 2 == 0) {
          random[0] = kReplyPacketType;  // past the type check, into the body
        }
        c.decode(random, order);
      }
    }
  }
}

}  // namespace
}  // namespace af
