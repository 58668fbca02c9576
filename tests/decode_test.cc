// The wire decoder (proto/decode.h) against the torture corpus: every
// opcode's canonical request must decode to its name; every truncation and
// every single-byte corruption of every request must come back as a string
// instead of a crash. The streaming decoder is fed whole conversations one
// byte at a time to prove the framing holds at every boundary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "proto/decode.h"
#include "proto/events.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/trace_wire.h"
#include "torture_util.h"

namespace af {
namespace {

using torture::CanonicalRequest;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(DecodeRequestTest, EveryOpcodeDecodesToItsName) {
  for (uint8_t opi = kMinOpcode; opi <= kMaxOpcode; ++opi) {
    const Opcode op = static_cast<Opcode>(opi);
    const auto req = CanonicalRequest(op);
    const std::string line = DecodeRequestLine(req, HostWireOrder());
    EXPECT_TRUE(Contains(line, OpcodeName(op)))
        << "opcode " << int(opi) << ": " << line;
    EXPECT_FALSE(Contains(line, "<truncated>"))
        << "opcode " << int(opi) << ": " << line;
  }
}

TEST(DecodeRequestTest, KnownBodiesRenderTheirFields) {
  // Spot-check a few decoded lines so the body decoders are provably
  // wired, not just non-crashing.
  const auto play = CanonicalRequest(Opcode::kPlaySamples);
  EXPECT_TRUE(Contains(DecodeRequestLine(play, HostWireOrder()), "nbytes=32"));
  const auto dial = CanonicalRequest(Opcode::kDialPhone);
  EXPECT_TRUE(Contains(DecodeRequestLine(dial, HostWireOrder()), "5551212"));
  const auto atom = CanonicalRequest(Opcode::kInternAtom);
  EXPECT_TRUE(Contains(DecodeRequestLine(atom, HostWireOrder()), "TORTURE"));
  const auto trace = CanonicalRequest(Opcode::kGetTrace);
  EXPECT_TRUE(Contains(DecodeRequestLine(trace, HostWireOrder()), "flags=0x0"));
}

TEST(DecodeRequestTest, TruncationAtEveryByteNeverCrashes) {
  for (uint8_t opi = kMinOpcode; opi <= kMaxOpcode; ++opi) {
    const auto req = CanonicalRequest(static_cast<Opcode>(opi));
    for (size_t cut = 0; cut < req.size(); ++cut) {
      const std::string line = DecodeRequestLine(
          std::span<const uint8_t>(req.data(), cut), HostWireOrder());
      EXPECT_FALSE(line.empty()) << "opcode " << int(opi) << " cut " << cut;
      if (cut < kRequestHeaderBytes) {
        EXPECT_TRUE(Contains(line, "<truncated header>"))
            << "opcode " << int(opi) << " cut " << cut << ": " << line;
      }
    }
  }
}

TEST(DecodeRequestTest, EverySingleByteCorruptionNeverCrashes) {
  for (uint8_t opi = kMinOpcode; opi <= kMaxOpcode; ++opi) {
    const auto req = CanonicalRequest(static_cast<Opcode>(opi));
    for (size_t at = 0; at < req.size(); ++at) {
      for (const uint8_t mask : {uint8_t{0xFF}, uint8_t{0x80}, uint8_t{0x01}}) {
        std::vector<uint8_t> bad = req;
        bad[at] ^= mask;
        const std::string line = DecodeRequestLine(bad, HostWireOrder());
        EXPECT_FALSE(line.empty())
            << "opcode " << int(opi) << " byte " << at << " mask " << int(mask);
      }
    }
  }
}

TEST(DecodeRequestTest, UnknownOpcodeIsLabelled) {
  WireWriter w;
  w.U8(200);  // far outside [kMinOpcode, kMaxOpcode]
  w.U8(0);
  w.U16(1);
  const std::string line = DecodeRequestLine(w.data(), HostWireOrder());
  EXPECT_TRUE(Contains(line, "<unknown>")) << line;
}

TEST(DecodeServerTest, ErrorReplyAndEventLinesDecode) {
  // Error unit.
  {
    ErrorPacket err;
    err.code = AfError::kBadValue;
    err.seq = 12;
    err.opcode = Opcode::kPlaySamples;
    err.value = 9;
    WireWriter w;
    err.Encode(w);
    const std::string line = DecodeServerLine(w.data(), HostWireOrder());
    EXPECT_TRUE(Contains(line, "Error")) << line;
    EXPECT_TRUE(Contains(line, "seq=12")) << line;
    EXPECT_TRUE(Contains(line, OpcodeName(Opcode::kPlaySamples))) << line;
  }
  // Reply unit with extra data (a trace snapshot is a handy real reply).
  {
    TraceWire t;
    t.host_now_us = 5;
    WireWriter w;
    t.Encode(w, 34);
    const std::string line = DecodeServerLine(w.data(), HostWireOrder());
    EXPECT_TRUE(Contains(line, "Reply seq=34")) << line;
    EXPECT_FALSE(Contains(line, "<truncated>")) << line;
    // The same unit cut mid-extra-data is flagged, not trusted.
    const std::string cut = DecodeServerLine(
        std::span<const uint8_t>(w.data().data(), kReplyBaseBytes + 2),
        HostWireOrder());
    EXPECT_TRUE(Contains(cut, "<truncated>")) << cut;
  }
  // Event unit.
  {
    AEvent ev;
    ev.type = EventType::kPhoneRing;
    ev.detail = 1;
    ev.device = 2;
    ev.dev_time = 8000;
    WireWriter w;
    ev.Encode(w);
    const std::string line = DecodeServerLine(w.data(), HostWireOrder());
    EXPECT_TRUE(Contains(line, "Event")) << line;
    EXPECT_TRUE(Contains(line, "dev=2")) << line;
  }
  // Unknown packet type.
  {
    std::vector<uint8_t> junk(kReplyBaseBytes, 0);
    junk[0] = 99;
    EXPECT_TRUE(Contains(DecodeServerLine(junk, HostWireOrder()), "<unknown packet"));
  }
  EXPECT_EQ(DecodeServerLine({}, HostWireOrder()), "<empty>");
}

TEST(DecodeSetupTest, SetupLinesRoundTrip) {
  SetupRequest setup;
  const auto bytes = setup.Encode();
  const std::string line = DecodeSetupRequestLine(bytes);
  EXPECT_TRUE(Contains(line, "Setup")) << line;
  EXPECT_FALSE(Contains(line, "<truncated>")) << line;
  for (size_t cut = 0; cut < SetupRequest::kFixedBytes; ++cut) {
    EXPECT_TRUE(Contains(
        DecodeSetupRequestLine(std::span<const uint8_t>(bytes.data(), cut)),
        "<truncated>"));
  }

  SetupReply reply;
  reply.success = true;
  reply.vendor = "decode-test";
  const auto reply_bytes = reply.Encode(HostWireOrder());
  const std::string rline = DecodeSetupReplyLine(reply_bytes, HostWireOrder());
  EXPECT_TRUE(Contains(rline, "SetupReply ok")) << rline;
  EXPECT_TRUE(Contains(rline, "decode-test")) << rline;
}

// --- StreamDecoder ----------------------------------------------------------

// Feeds `stream` to `dec` one byte at a time, collecting decoded lines.
std::vector<std::string> FeedByByte(StreamDecoder& dec,
                                    const std::vector<uint8_t>& stream) {
  std::vector<std::string> lines;
  const auto sink = [&](const std::string& line) { lines.push_back(line); };
  for (size_t i = 0; i < stream.size(); ++i) {
    dec.Feed(std::span<const uint8_t>(stream.data() + i, 1), sink);
  }
  return lines;
}

TEST(StreamDecoderTest, FramesAWholeConversationFedByteByByte) {
  SetupRequest setup;
  std::vector<uint8_t> stream = setup.Encode();
  size_t expected = 1;  // the setup itself
  for (uint8_t opi = kMinOpcode; opi <= kMaxOpcode; ++opi) {
    const auto req = CanonicalRequest(static_cast<Opcode>(opi));
    stream.insert(stream.end(), req.begin(), req.end());
    ++expected;
  }
  StreamDecoder dec(StreamDecoder::Dir::kClientToServer);
  const auto lines = FeedByByte(dec, stream);
  EXPECT_FALSE(dec.saw_error());
  EXPECT_EQ(dec.messages(), expected);
  ASSERT_EQ(lines.size(), expected);
  EXPECT_TRUE(Contains(lines[0], "Setup"));
  // The byte order was learned from the setup mark.
  EXPECT_TRUE(dec.have_order());
  EXPECT_EQ(dec.order(), setup.order);
  // No line may be a truncation artifact: framing found every boundary.
  for (const std::string& line : lines) {
    EXPECT_FALSE(Contains(line, "<truncated>")) << line;
  }
}

TEST(StreamDecoderTest, FramesServerDirectionUnits) {
  SetupReply reply;
  reply.success = true;
  std::vector<uint8_t> stream = reply.Encode(HostWireOrder());

  ErrorPacket err;
  err.seq = 2;
  WireWriter w;
  err.Encode(w);
  TraceWire trace;
  trace.Encode(w, 3);
  AEvent ev;
  ev.type = EventType::kPhoneDTMF;
  ev.Encode(w);
  stream.insert(stream.end(), w.data().begin(), w.data().end());

  StreamDecoder dec(StreamDecoder::Dir::kServerToClient);
  dec.SetOrder(HostWireOrder());
  const auto lines = FeedByByte(dec, stream);
  EXPECT_FALSE(dec.saw_error());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_TRUE(Contains(lines[0], "SetupReply ok")) << lines[0];
  EXPECT_TRUE(Contains(lines[1], "Error")) << lines[1];
  EXPECT_TRUE(Contains(lines[2], "Reply seq=3")) << lines[2];
  EXPECT_TRUE(Contains(lines[3], "Event")) << lines[3];
}

TEST(StreamDecoderTest, UnknownServerPacketTypeIsABareUnit) {
  // The client library frames a type byte it does not know as a bare
  // 32-byte unit and drops it. asniff frames it the same way, names it, and
  // keeps decoding what follows.
  SetupReply reply;
  reply.success = true;
  std::vector<uint8_t> stream = reply.Encode(HostWireOrder());
  std::vector<uint8_t> unknown(kReplyBaseBytes, 0);
  unknown[0] = 99;
  stream.insert(stream.end(), unknown.begin(), unknown.end());
  WireWriter w;
  AEvent ev;
  ev.type = EventType::kPhoneRing;
  ev.Encode(w);
  stream.insert(stream.end(), w.data().begin(), w.data().end());

  StreamDecoder dec(StreamDecoder::Dir::kServerToClient);
  dec.SetOrder(HostWireOrder());
  const auto lines = FeedByByte(dec, stream);
  EXPECT_FALSE(dec.saw_error());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(Contains(lines[0], "SetupReply ok")) << lines[0];
  EXPECT_EQ(lines[1], "<unknown packet type 99>");
  EXPECT_TRUE(Contains(lines[2], "Event PhoneRing")) << lines[2];
}

TEST(StreamDecoderTest, UndecodableStreamReportsOnceAndStops) {
  SetupRequest setup;
  std::vector<uint8_t> stream = setup.Encode();
  // A request announcing zero length can never frame; the decoder must
  // declare the stream dead rather than loop or crash.
  stream.insert(stream.end(), {5, 0, 0, 0});
  stream.insert(stream.end(), 64, 0xAA);  // junk after the breakage
  StreamDecoder dec(StreamDecoder::Dir::kClientToServer);
  const auto lines = FeedByByte(dec, stream);
  EXPECT_TRUE(dec.saw_error());
  EXPECT_EQ(dec.messages(), 1u);  // only the setup decoded
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(Contains(lines[1], "undecodable")) << lines[1];
}

}  // namespace
}  // namespace af
