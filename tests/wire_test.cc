// Wire protocol round trips: every request and reply in both byte orders,
// the setup handshake, events, atoms, and malformed-input behavior.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "proto/atoms.h"
#include "proto/events.h"
#include "proto/framing.h"
#include "proto/oplog.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/trace_wire.h"
#include "proto/wire.h"

namespace af {
namespace {

class WireOrderTest : public ::testing::TestWithParam<WireOrder> {
 protected:
  WireOrder order() const { return GetParam(); }

  // Encodes a request with framing, decodes the header and body back.
  template <typename Req>
  Req RoundTrip(Opcode op, const Req& req) {
    WireWriter w(order());
    const size_t header = BeginRequest(w, op);
    req.Encode(w);
    EndRequest(w, header);

    WireReader r(w.data(), order());
    RequestHeader decoded_header;
    EXPECT_TRUE(DecodeRequestHeader(r, &decoded_header));
    EXPECT_EQ(decoded_header.opcode, op);
    EXPECT_EQ(FrameClientMessage(w.data(), /*setup_done=*/true, order()), w.size());
    Req out;
    EXPECT_TRUE(Req::Decode(r, &out));
    return out;
  }
};

TEST_P(WireOrderTest, PrimitiveRoundTrips) {
  WireWriter w(order());
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.PaddedString("hello");
  // 19 fixed bytes + "hello" = 24, already 4-aligned so no extra pad.
  EXPECT_EQ(w.size(), 24u);

  WireReader r(w.data(), order());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.PaddedString(5), "hello");
  EXPECT_TRUE(r.ok());
}

TEST_P(WireOrderTest, ReaderBoundsChecking) {
  WireWriter w(order());
  w.U16(7);
  WireReader r(w.data(), order());
  EXPECT_EQ(r.U16(), 7);
  r.U32();  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // sticky failure returns zeroes
}

TEST_P(WireOrderTest, SelectEvents) {
  SelectEventsReq req;
  req.device = 3;
  req.mask = kPhoneRingMask | kPropertyChangeMask;
  const auto out = RoundTrip(Opcode::kSelectEvents, req);
  EXPECT_EQ(out.device, 3u);
  EXPECT_EQ(out.mask, req.mask);
}

TEST_P(WireOrderTest, CreateAC) {
  CreateACReq req;
  req.ac = 0x100007;
  req.device = 1;
  req.value_mask = kACPlayGain | kACEncodingType;
  req.attrs.play_gain_db = -12;
  req.attrs.encoding = AEncodeType::kLin16;
  req.attrs.channels = 2;
  const auto out = RoundTrip(Opcode::kCreateAC, req);
  EXPECT_EQ(out.ac, req.ac);
  EXPECT_EQ(out.attrs.play_gain_db, -12);
  EXPECT_EQ(out.attrs.encoding, AEncodeType::kLin16);
  EXPECT_EQ(out.attrs.channels, 2u);
}

TEST_P(WireOrderTest, PlaySamplesCarriesData) {
  std::vector<uint8_t> samples(1000);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<uint8_t>(i * 7);
  }
  PlaySamplesReq req;
  req.ac = 0x100001;
  req.start_time = 0xFFFFFFF0u;  // near the wrap
  req.nbytes = static_cast<uint32_t>(samples.size());
  req.flags = kPlaySuppressReply;
  req.data = samples;

  // The decoded request's data is a view into the wire buffer, so (as in
  // the server's dispatcher) the buffer must outlive the decoded struct.
  WireWriter w(order());
  const size_t header = BeginRequest(w, Opcode::kPlaySamples);
  req.Encode(w);
  EndRequest(w, header);

  WireReader r(w.data(), order());
  RequestHeader decoded_header;
  ASSERT_TRUE(DecodeRequestHeader(r, &decoded_header));
  PlaySamplesReq out;
  ASSERT_TRUE(PlaySamplesReq::Decode(r, &out));
  EXPECT_EQ(out.start_time, req.start_time);
  EXPECT_EQ(out.nbytes, req.nbytes);
  EXPECT_EQ(out.flags, kPlaySuppressReply);
  ASSERT_EQ(out.data.size(), samples.size());
  EXPECT_TRUE(std::equal(samples.begin(), samples.end(), out.data.begin()));
}

TEST_P(WireOrderTest, RecordSamples) {
  RecordSamplesReq req;
  req.ac = 0x100002;
  req.start_time = 12345;
  req.nbytes = 8192;
  req.flags = kRecordNoBlock;
  const auto out = RoundTrip(Opcode::kRecordSamples, req);
  EXPECT_EQ(out.nbytes, 8192u);
  EXPECT_EQ(out.flags, kRecordNoBlock);
}

TEST_P(WireOrderTest, StringRequests) {
  InternAtomReq intern;
  intern.only_if_exists = 1;
  intern.name = "MY_PROPERTY";
  EXPECT_EQ(RoundTrip(Opcode::kInternAtom, intern).name, "MY_PROPERTY");

  DialPhoneReq dial;
  dial.device = 1;
  dial.number = "18005551212";
  EXPECT_EQ(RoundTrip(Opcode::kDialPhone, dial).number, "18005551212");

  QueryExtensionReq ext;
  ext.name = "NOT-YET";
  EXPECT_EQ(RoundTrip(Opcode::kQueryExtension, ext).name, "NOT-YET");
}

TEST_P(WireOrderTest, ChangeProperty) {
  ChangePropertyReq req;
  req.device = 0;
  req.property = kAtomLAST_NUMBER_DIALED;
  req.type = kAtomSTRING;
  req.format = 8;
  req.mode = PropertyMode::kAppend;
  req.data = {'5', '5', '5'};
  const auto out = RoundTrip(Opcode::kChangeProperty, req);
  EXPECT_EQ(out.mode, PropertyMode::kAppend);
  EXPECT_EQ(out.data, req.data);
}

TEST_P(WireOrderTest, HostRequests) {
  ChangeHostsReq req;
  req.mode = HostChangeMode::kDelete;
  req.family = 0;
  req.address = {192, 168, 1, 5};
  const auto out = RoundTrip(Opcode::kChangeHosts, req);
  EXPECT_EQ(out.mode, HostChangeMode::kDelete);
  EXPECT_EQ(out.address, req.address);
}

TEST_P(WireOrderTest, Replies) {
  WireWriter w(order());
  GetTimeReply time_reply;
  time_reply.time = 0xCAFEBABEu;
  time_reply.Encode(w, 77);
  ASSERT_EQ(w.size(), kReplyBaseBytes);
  ReplyHeader header;
  ASSERT_TRUE(PeekReplyHeader(w.data(), order(), &header));
  EXPECT_EQ(header.seq, 77);
  GetTimeReply decoded;
  ASSERT_TRUE(GetTimeReply::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.time, 0xCAFEBABEu);
}

TEST_P(WireOrderTest, RecordReplyWithData) {
  WireWriter w(order());
  RecordSamplesReply reply;
  reply.time = 999;
  reply.data = {1, 2, 3, 4, 5, 6, 7};
  reply.Encode(w, 5);
  EXPECT_EQ(w.size(), kReplyBaseBytes + 8);  // 7 bytes padded to 8

  RecordSamplesReply decoded;
  ASSERT_TRUE(RecordSamplesReply::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.time, 999u);
  EXPECT_EQ(decoded.data, reply.data);
}

TEST_P(WireOrderTest, ListHostsReply) {
  WireWriter w(order());
  ListHostsReply reply;
  reply.enabled = 1;
  reply.hosts.push_back({0, {10, 0, 0, 1}});
  reply.hosts.push_back({1, std::vector<uint8_t>(16, 0xFE)});
  reply.Encode(w, 3);

  ListHostsReply decoded;
  ASSERT_TRUE(ListHostsReply::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.enabled, 1u);
  ASSERT_EQ(decoded.hosts.size(), 2u);
  EXPECT_EQ(decoded.hosts[0].address, (std::vector<uint8_t>{10, 0, 0, 1}));
  EXPECT_EQ(decoded.hosts[1].address.size(), 16u);
}

TEST_P(WireOrderTest, ErrorPacket) {
  WireWriter w(order());
  ErrorPacket error;
  error.code = AfError::kBadDevice;
  error.seq = 42;
  error.opcode = Opcode::kGetTime;
  error.value = 9;
  error.Encode(w);
  ASSERT_EQ(w.size(), kReplyBaseBytes);

  ErrorPacket decoded;
  ASSERT_TRUE(ErrorPacket::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.code, AfError::kBadDevice);
  EXPECT_EQ(decoded.seq, 42);
  EXPECT_EQ(decoded.opcode, Opcode::kGetTime);
  EXPECT_EQ(decoded.value, 9u);
}

TEST_P(WireOrderTest, EventRoundTrip) {
  WireWriter w(order());
  AEvent event;
  event.type = EventType::kPhoneDTMF;
  event.detail = '7';
  event.seq = 300;
  event.device = 2;
  event.dev_time = 0x80000001u;
  event.host_time_us = 1234567890123ull;
  event.w0 = '7';
  event.Encode(w);
  ASSERT_EQ(w.size(), kReplyBaseBytes);

  AEvent decoded;
  ASSERT_TRUE(AEvent::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.type, EventType::kPhoneDTMF);
  EXPECT_EQ(decoded.detail, '7');
  EXPECT_EQ(decoded.dev_time, 0x80000001u);
  EXPECT_EQ(decoded.host_time_us, 1234567890123ull);
}

TEST_P(WireOrderTest, SetupHandshake) {
  SetupRequest request;
  request.order = order();
  request.auth_name = "MIT-MAGIC";
  request.auth_data = "xyzzy";
  const auto bytes = request.Encode();

  // The 12-byte prefix, then "MIT-MAGIC" padded to 12 bytes and "xyzzy" to 8.
  EXPECT_EQ(bytes.size(), 32u);
  EXPECT_EQ(FrameClientMessage(bytes, /*setup_done=*/false, order()), bytes.size());
  SetupRequest decoded;
  ASSERT_TRUE(SetupRequest::Decode(bytes, &decoded));
  EXPECT_EQ(decoded.order, order());
  EXPECT_EQ(decoded.auth_name, "MIT-MAGIC");
  EXPECT_EQ(decoded.auth_data, "xyzzy");

  SetupReply reply;
  reply.success = true;
  reply.resource_id_base = 0x100000;
  reply.resource_id_mask = 0xFFFFF;
  reply.vendor = "AudioFile test";
  DeviceDesc dev;
  dev.index = 0;
  dev.type = DevType::kCodec;
  dev.play_buffer_samples = 32768;
  dev.inputs_from_phone = 1;
  reply.devices.push_back(dev);
  const auto reply_bytes = reply.Encode(order());

  EXPECT_EQ(FrameServerMessage(reply_bytes, /*setup_done=*/false, order()), reply_bytes.size());
  SetupReply decoded_reply;
  ASSERT_TRUE(SetupReply::Decode(reply_bytes, order(), &decoded_reply));
  EXPECT_TRUE(decoded_reply.success);
  EXPECT_EQ(decoded_reply.vendor, "AudioFile test");
  ASSERT_EQ(decoded_reply.devices.size(), 1u);
  EXPECT_EQ(decoded_reply.devices[0].play_buffer_samples, 32768u);
  EXPECT_EQ(decoded_reply.devices[0].inputs_from_phone, 1u);
  EXPECT_NEAR(decoded_reply.devices[0].BufferSeconds(), 4.096, 0.001);
}

TEST_P(WireOrderTest, SetupFailureReply) {
  SetupReply reply;
  reply.success = false;
  reply.failure_reason = "host not authorized to connect";
  const auto bytes = reply.Encode(order());
  EXPECT_EQ(FrameServerMessage(bytes, /*setup_done=*/false, order()), bytes.size());
  SetupReply decoded;
  decoded.success = true;
  ASSERT_TRUE(SetupReply::Decode(bytes, order(), &decoded));
  EXPECT_FALSE(decoded.success);
  EXPECT_EQ(decoded.failure_reason, "host not authorized to connect");
}

INSTANTIATE_TEST_SUITE_P(BothOrders, WireOrderTest,
                         ::testing::Values(WireOrder::kLittle, WireOrder::kBig));

// --- byte golden for every request --------------------------------------------

// One instance of every request body, every field a distinct non-default
// value, framed under its opcode. The literals pin the wire bytes in both
// byte orders, so a swapped field, a changed count or a changed pad fails.
struct RequestGolden {
  Opcode op;
  std::function<void(WireWriter&)> body;
  const char* little;
  const char* big;
};

template <typename Req>
std::function<void(WireWriter&)> Body(Req req) {
  return [req](WireWriter& w) { req.Encode(w); };
}

ACAttributes GoldenAttrs() {
  ACAttributes a;
  a.play_gain_db = -20;
  a.record_gain_db = -7;
  a.preempt = 1;
  a.big_endian_data = 1;
  a.encoding = AEncodeType::kLin16;
  a.channels = 2;
  return a;
}

std::vector<RequestGolden> RequestGoldens() {
  static const uint8_t kPlayBlock[7] = {0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7};
  SelectEventsReq select;
  select.device = 3;
  select.mask = 0x1f;
  CreateACReq create;
  create.ac = 0x100001;
  create.device = 3;
  create.value_mask = 0x3f;
  create.attrs = GoldenAttrs();
  ChangeACAttributesReq change_ac;
  change_ac.ac = 0x100002;
  change_ac.value_mask = 0x11;
  change_ac.attrs = GoldenAttrs();
  FreeACReq free_ac;
  free_ac.ac = 0x100003;
  PlaySamplesReq play;
  play.ac = 0x100004;
  play.start_time = 0xfffffff0u;
  play.nbytes = sizeof(kPlayBlock);
  play.flags = kPlaySuppressReply | kPlayBigEndianData;
  play.data = kPlayBlock;
  RecordSamplesReq record;
  record.ac = 0x100005;
  record.start_time = 0x12345678;
  record.nbytes = 0x2000;
  record.flags = kRecordNoBlock | kRecordBigEndianData;
  GetTimeReq get_time;
  get_time.device = 3;
  QueryPhoneReq query_phone;
  query_phone.device = 3;
  PassThroughReq pass;
  pass.device_a = 3;
  pass.device_b = 5;
  HookSwitchReq hook;
  hook.device = 3;
  hook.off_hook = 1;
  FlashHookReq flash;
  flash.device = 3;
  flash.duration_ms = 250;
  GainControlReq gain_control;
  gain_control.device = 3;
  DialPhoneReq dial;
  dial.device = 3;
  dial.number = "5551212";
  SetGainReq set_gain;
  set_gain.device = 3;
  set_gain.gain_db = -20;
  QueryGainReq query_gain;
  query_gain.device = 3;
  IOEnableReq io;
  io.device = 3;
  io.mask = 0x1f;
  SetAccessControlReq access;
  access.enabled = 1;
  ChangeHostsReq hosts;
  hosts.mode = HostChangeMode::kDelete;
  hosts.family = 1;
  hosts.address = {10, 0, 0, 1, 2};
  InternAtomReq intern;
  intern.only_if_exists = 1;
  intern.name = "TORTURE!";
  GetAtomNameReq atom_name;
  atom_name.atom = 42;
  ChangePropertyReq change_prop;
  change_prop.device = 3;
  change_prop.property = 7;
  change_prop.type = 31;
  change_prop.format = 16;
  change_prop.mode = PropertyMode::kAppend;
  change_prop.data = {0xd1, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6};
  DeletePropertyReq delete_prop;
  delete_prop.device = 3;
  delete_prop.property = 9;
  GetPropertyReq get_prop;
  get_prop.device = 3;
  get_prop.property = 7;
  get_prop.type = 31;
  get_prop.long_offset = 2;
  get_prop.long_length = 100;
  get_prop.do_delete = 1;
  ListPropertiesReq list_props;
  list_props.device = 3;
  QueryExtensionReq query_ext;
  query_ext.name = "X-EXT";
  KillClientReq kill;
  kill.resource = 0x100009;
  GetTraceReq trace;
  trace.flags = kTraceFlagEnable | kTraceFlagDisable;
  ResyncTimeReq resync;
  resync.device = 3;
  resync.client_watermark = 48000;

  return {
      {Opcode::kSelectEvents, Body(select),
       "01000300 03000000 1f000000",
       "01000003 00000003 0000001f"},
      {Opcode::kCreateAC, Body(create),
       "02000a00 01001000 03000000 3f000000 ecffffff f9ffffff 01000000 01000000 02000000 02000000",
       "0200000a 00100001 00000003 0000003f ffffffec fffffff9 00000001 00000001 00000002 00000002"},
      {Opcode::kChangeACAttributes, Body(change_ac),
       "03000900 02001000 11000000 ecffffff f9ffffff 01000000 01000000 02000000 02000000",
       "03000009 00100002 00000011 ffffffec fffffff9 00000001 00000001 00000002 00000002"},
      {Opcode::kFreeAC, Body(free_ac), "04000200 03001000", "04000002 00100003"},
      {Opcode::kPlaySamples, Body(play),
       "05000700 04001000 f0ffffff 07000000 03000000 a1a2a3a4 a5a6a700",
       "05000007 00100004 fffffff0 00000007 00000003 a1a2a3a4 a5a6a700"},
      {Opcode::kRecordSamples, Body(record),
       "06000500 05001000 78563412 00200000 03000000",
       "06000005 00100005 12345678 00002000 00000003"},
      {Opcode::kGetTime, Body(get_time), "07000200 03000000", "07000002 00000003"},
      {Opcode::kQueryPhone, Body(query_phone), "08000200 03000000", "08000002 00000003"},
      {Opcode::kEnablePassThrough, Body(pass),
       "09000300 03000000 05000000",
       "09000003 00000003 00000005"},
      {Opcode::kDisablePassThrough, Body(pass),
       "0a000300 03000000 05000000",
       "0a000003 00000003 00000005"},
      {Opcode::kHookSwitch, Body(hook), "0b000300 03000000 01000000", "0b000003 00000003 00000001"},
      {Opcode::kFlashHook, Body(flash), "0c000300 03000000 fa000000", "0c000003 00000003 000000fa"},
      {Opcode::kEnableGainControl, Body(gain_control), "0d000200 03000000", "0d000002 00000003"},
      {Opcode::kDisableGainControl, Body(gain_control), "0e000200 03000000", "0e000002 00000003"},
      {Opcode::kDialPhone, Body(dial),
       "0f000500 03000000 07000000 35353531 32313200",
       "0f000005 00000003 00000007 35353531 32313200"},
      {Opcode::kSetInputGain, Body(set_gain),
       "10000300 03000000 ecffffff",
       "10000003 00000003 ffffffec"},
      {Opcode::kSetOutputGain, Body(set_gain),
       "11000300 03000000 ecffffff",
       "11000003 00000003 ffffffec"},
      {Opcode::kQueryInputGain, Body(query_gain), "12000200 03000000", "12000002 00000003"},
      {Opcode::kQueryOutputGain, Body(query_gain), "13000200 03000000", "13000002 00000003"},
      {Opcode::kEnableInput, Body(io), "14000300 03000000 1f000000", "14000003 00000003 0000001f"},
      {Opcode::kEnableOutput, Body(io), "15000300 03000000 1f000000", "15000003 00000003 0000001f"},
      {Opcode::kDisableInput, Body(io), "16000300 03000000 1f000000", "16000003 00000003 0000001f"},
      {Opcode::kDisableOutput, Body(io),
       "17000300 03000000 1f000000",
       "17000003 00000003 0000001f"},
      {Opcode::kSetAccessControl, Body(access), "18000200 01000000", "18000002 00000001"},
      {Opcode::kChangeHosts, Body(hosts),
       "19000600 01000000 01000000 05000000 0a000001 02000000",
       "19000006 00000001 00000001 00000005 0a000001 02000000"},
      {Opcode::kListHosts, Body(EmptyReq{}), "1a000100", "1a000001"},
      {Opcode::kInternAtom, Body(intern),
       "1b000500 01000000 08000000 544f5254 55524521",
       "1b000005 00000001 00000008 544f5254 55524521"},
      {Opcode::kGetAtomName, Body(atom_name), "1c000200 2a000000", "1c000002 0000002a"},
      {Opcode::kChangeProperty, Body(change_prop),
       "1d000900 03000000 07000000 1f000000 10000000 02000000 06000000 d1d2d3d4 d5d60000",
       "1d000009 00000003 00000007 0000001f 00000010 00000002 00000006 d1d2d3d4 d5d60000"},
      {Opcode::kDeleteProperty, Body(delete_prop),
       "1e000300 03000000 09000000",
       "1e000003 00000003 00000009"},
      {Opcode::kGetProperty, Body(get_prop),
       "1f000700 03000000 07000000 1f000000 02000000 64000000 01000000",
       "1f000007 00000003 00000007 0000001f 00000002 00000064 00000001"},
      {Opcode::kListProperties, Body(list_props), "20000200 03000000", "20000002 00000003"},
      {Opcode::kNoOperation, Body(EmptyReq{}), "21000100", "21000001"},
      {Opcode::kSyncConnection, Body(EmptyReq{}), "22000100", "22000001"},
      {Opcode::kQueryExtension, Body(query_ext),
       "23000400 05000000 582d4558 54000000",
       "23000004 00000005 582d4558 54000000"},
      {Opcode::kListExtensions, Body(EmptyReq{}), "24000100", "24000001"},
      {Opcode::kKillClient, Body(kill), "25000200 09001000", "25000002 00100009"},
      {Opcode::kGetServerStats, Body(EmptyReq{}), "26000100", "26000001"},
      {Opcode::kGetTrace, Body(trace), "27000200 03000000", "27000002 00000003"},
      {Opcode::kResyncTime, Body(resync),
       "28000300 03000000 80bb0000",
       "28000003 00000003 0000bb80"},
  };
}

// Lowercase hex with a space between 32-bit words.
std::string WordsHex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0 && i % 4 == 0) {
      out.push_back(' ');
    }
    std::snprintf(buf, sizeof(buf), "%02x", bytes[i]);
    out += buf;
  }
  return out;
}

TEST(RequestGoldenTest, EveryRequestInBothOrders) {
  const auto goldens = RequestGoldens();
  ASSERT_EQ(goldens.size(), size_t{kMaxOpcode - kMinOpcode + 1});
  for (size_t i = 0; i < goldens.size(); ++i) {
    const RequestGolden& g = goldens[i];
    EXPECT_EQ(static_cast<size_t>(g.op), kMinOpcode + i) << "rows follow the opcodes";
    for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
      WireWriter w(order);
      const size_t header = BeginRequest(w, g.op);
      g.body(w);
      EndRequest(w, header);
      EXPECT_EQ(WordsHex(w.data()), order == WireOrder::kLittle ? g.little : g.big)
          << OpcodeName(g.op) << (order == WireOrder::kLittle ? " little" : " big");
    }
  }
}

// --- byte goldens for every server-to-client unit and fixed block ------------

// One instance of every reply, the error packet, one event per type, the
// op-log frames and the setup replies, every field a distinct value and
// every extra-data field of odd length. `encode` writes the unit in the
// given order; `reencode` decodes bytes back and encodes what it got, so
// the decoder must read the same layout the literals pin.
struct UnitGolden {
  std::string name;
  std::function<std::vector<uint8_t>(WireOrder)> encode;
  std::function<std::vector<uint8_t>(std::span<const uint8_t>, WireOrder)> reencode;
  const char* little;
  const char* big;
};

constexpr uint16_t kGoldenSeq = 0x0a0b;

template <typename Reply>
UnitGolden ReplyGolden(const char* name, Reply reply, const char* little, const char* big) {
  return {name,
          [reply](WireOrder order) {
            WireWriter w(order);
            reply.Encode(w, kGoldenSeq);
            return w.Take();
          },
          [](std::span<const uint8_t> bytes, WireOrder order) {
            Reply out;
            WireWriter w(order);
            if (Reply::Decode(bytes, order, &out)) {
              out.Encode(w, kGoldenSeq);
            }
            return w.Take();
          },
          little, big};
}

UnitGolden EventGolden(AEvent event, const char* little, const char* big) {
  return {std::string("AEvent ") + EventTypeName(event.type),
          [event](WireOrder order) {
            WireWriter w(order);
            event.Encode(w);
            return w.Take();
          },
          [](std::span<const uint8_t> bytes, WireOrder order) {
            AEvent out;
            WireWriter w(order);
            if (AEvent::Decode(bytes, order, &out)) {
              out.Encode(w);
            }
            return w.Take();
          },
          little, big};
}

UnitGolden SetupReplyGolden(const char* name, SetupReply reply, const char* little,
                            const char* big) {
  return {name, [reply](WireOrder order) { return reply.Encode(order); },
          [](std::span<const uint8_t> bytes, WireOrder order) {
            SetupReply out;
            if (FrameServerMessage(bytes, /*setup_done=*/false, order) != bytes.size() ||
                !SetupReply::Decode(bytes, order, &out)) {
              return std::vector<uint8_t>{};
            }
            return out.Encode(order);
          },
          little, big};
}

OplogRecord GoldenOplogRecord() {
  OplogRecord rec;
  rec.seq = 0x0102030405060708ull;
  rec.type = static_cast<uint16_t>(OplogType::kACCreate);
  rec.flags = 0x0405;
  rec.client = 6;
  rec.device = 7;
  rec.ac = 0x100008;
  rec.value_mask = 0x3f;
  rec.attrs = GoldenAttrs();
  rec.value = 0x1112131415161718ull;
  rec.corr = 0x2122232425262728ull;
  return rec;
}

DeviceDesc GoldenDevice(uint32_t index, DevType type) {
  DeviceDesc d;
  d.index = index;
  d.type = type;
  d.play_sample_rate = 8000 + index;
  d.play_buffer_samples = 0x8000 + index;
  d.play_nchannels = 1 + index;
  d.play_encoding = AEncodeType::kLin16;
  d.rec_sample_rate = 16000 + index;
  d.rec_buffer_samples = 0x4000 + index;
  d.rec_nchannels = 2 + index;
  d.rec_encoding = AEncodeType::kAlaw;
  d.number_of_inputs = 3 + index;
  d.number_of_outputs = 4 + index;
  d.inputs_from_phone = 5 + index;
  d.outputs_to_phone = 6 + index;
  return d;
}

std::vector<UnitGolden> UnitGoldens() {
  GetTimeReply time;  // also PlaySamplesReply
  time.time = 0x01020304;
  ResyncTimeReply resync;
  resync.server_time = 0x11223344;
  resync.promoted_watermark = 0x55667788;
  resync.promoted = 1;
  RecordSamplesReply record;
  record.time = 0x0badf00d;
  record.data = {1, 2, 3, 4, 5, 6, 7};
  QueryPhoneReply phone;
  phone.off_hook = 1;
  phone.loop_current = 2;
  QueryGainReply gain;
  gain.gain_db = -6;
  gain.min_db = -29;
  gain.max_db = 28;
  InternAtomReply atom;
  atom.atom = 0x01234567;
  GetAtomNameReply atom_name;
  atom_name.name = "SPEAKER";
  GetPropertyReply property;
  property.type = 31;
  property.format = 8;
  property.bytes_after = 3;
  property.data = {0xd1, 0xd2, 0xd3, 0xd4, 0xd5};
  ListPropertiesReply properties;
  properties.atoms = {1, 0x20, 0x300};
  ListHostsReply hosts;
  hosts.enabled = 1;
  hosts.hosts = {{0, {10, 0, 0, 1}}, {1, {0xfe, 0x80, 0x01}}};

  std::vector<UnitGolden> goldens = {
      ReplyGolden("GetTimeReply", time,
                  "01000b0a 00000000 04030201 00000000 00000000 00000000 00000000 00000000",
                  "01000a0b 00000000 01020304 00000000 00000000 00000000 00000000 00000000"),
      ReplyGolden("ResyncTimeReply", resync,
                  "01000b0a 00000000 44332211 88776655 01000000 00000000 00000000 00000000",
                  "01000a0b 00000000 11223344 55667788 00000001 00000000 00000000 00000000"),
      ReplyGolden("RecordSamplesReply", record,
                  "01000b0a 02000000 0df0ad0b 07000000 00000000 00000000 00000000 00000000 "
                  "01020304 05060700",
                  "01000a0b 00000002 0badf00d 00000007 00000000 00000000 00000000 00000000 "
                  "01020304 05060700"),
      ReplyGolden("QueryPhoneReply", phone,
                  "01000b0a 00000000 01000000 02000000 00000000 00000000 00000000 00000000",
                  "01000a0b 00000000 00000001 00000002 00000000 00000000 00000000 00000000"),
      ReplyGolden("QueryGainReply", gain,
                  "01000b0a 00000000 faffffff e3ffffff 1c000000 00000000 00000000 00000000",
                  "01000a0b 00000000 fffffffa ffffffe3 0000001c 00000000 00000000 00000000"),
      ReplyGolden("InternAtomReply", atom,
                  "01000b0a 00000000 67452301 00000000 00000000 00000000 00000000 00000000",
                  "01000a0b 00000000 01234567 00000000 00000000 00000000 00000000 00000000"),
      ReplyGolden("GetAtomNameReply", atom_name,
                  "01000b0a 02000000 07000000 00000000 00000000 00000000 00000000 00000000 "
                  "53504541 4b455200",
                  "01000a0b 00000002 00000007 00000000 00000000 00000000 00000000 00000000 "
                  "53504541 4b455200"),
      ReplyGolden("GetPropertyReply", property,
                  "01000b0a 02000000 1f000000 08000000 03000000 05000000 00000000 00000000 "
                  "d1d2d3d4 d5000000",
                  "01000a0b 00000002 0000001f 00000008 00000003 00000005 00000000 00000000 "
                  "d1d2d3d4 d5000000"),
      ReplyGolden("ListPropertiesReply", properties,
                  "01000b0a 03000000 03000000 00000000 00000000 00000000 00000000 00000000 "
                  "01000000 20000000 00030000",
                  "01000a0b 00000003 00000003 00000000 00000000 00000000 00000000 00000000 "
                  "00000001 00000020 00000300"),
      ReplyGolden("ListHostsReply", hosts,
                  "01000b0a 04000000 01000000 02000000 00000000 00000000 00000000 00000000 "
                  "00000400 0a000001 01000300 fe800100",
                  "01000a0b 00000004 00000001 00000002 00000000 00000000 00000000 00000000 "
                  "00000004 0a000001 00010003 fe800100"),
      ReplyGolden("EmptyReply", EmptyReply{},
                  "01000b0a 00000000 00000000 00000000 00000000 00000000 00000000 00000000",
                  "01000a0b 00000000 00000000 00000000 00000000 00000000 00000000 00000000"),
  };

  ErrorPacket error;
  error.code = AfError::kBadDevice;
  error.seq = kGoldenSeq;
  error.opcode = Opcode::kGetTime;
  error.ext = 1;
  error.value = 99;
  goldens.push_back({"ErrorPacket",
                     [error](WireOrder order) {
                       WireWriter w(order);
                       error.Encode(w);
                       return w.Take();
                     },
                     [](std::span<const uint8_t> bytes, WireOrder order) {
                       ErrorPacket out;
                       WireWriter w(order);
                       if (ErrorPacket::Decode(bytes, order, &out)) {
                         out.Encode(w);
                       }
                       return w.Take();
                     },
                     "00030b0a 07010000 63000000 00000000 00000000 00000000 00000000 00000000",
                     "00030a0b 07010000 00000063 00000000 00000000 00000000 00000000 00000000"});

  const struct {
    EventType type;
    const char* little;
    const char* big;
  } kEvents[] = {
      {EventType::kPhoneRing,
       "02320b0a 02000000 01000080 08070605 04030201 11000000 22000000 33000000",
       "02320a0b 00000002 80000001 01020304 05060708 00000011 00000022 00000033"},
      {EventType::kPhoneDTMF,
       "03330b0a 03000000 01000080 08070605 04030201 11000000 22000000 33000000",
       "03330a0b 00000003 80000001 01020304 05060708 00000011 00000022 00000033"},
      {EventType::kPhoneLoop,
       "04340b0a 04000000 01000080 08070605 04030201 11000000 22000000 33000000",
       "04340a0b 00000004 80000001 01020304 05060708 00000011 00000022 00000033"},
      {EventType::kHookSwitch,
       "05350b0a 05000000 01000080 08070605 04030201 11000000 22000000 33000000",
       "05350a0b 00000005 80000001 01020304 05060708 00000011 00000022 00000033"},
      {EventType::kPropertyChange,
       "06360b0a 06000000 01000080 08070605 04030201 11000000 22000000 33000000",
       "06360a0b 00000006 80000001 01020304 05060708 00000011 00000022 00000033"},
  };
  for (const auto& e : kEvents) {
    AEvent ev;
    ev.type = e.type;
    ev.detail = static_cast<uint8_t>(0x30 + static_cast<uint8_t>(e.type));
    ev.seq = kGoldenSeq;
    ev.device = static_cast<uint8_t>(e.type);
    ev.dev_time = 0x80000001u;
    ev.host_time_us = 0x0102030405060708ull;
    ev.w0 = 0x11;
    ev.w1 = 0x22;
    ev.w2 = 0x33;
    goldens.push_back(EventGolden(ev, e.little, e.big));
  }

  goldens.push_back({"OplogHello",
                     [](WireOrder order) {
                       WireWriter w(order);
                       EncodeOplogHello(w);
                       return w.Take();
                     },
                     [](std::span<const uint8_t> bytes, WireOrder order) {
                       const auto hello = DecodeOplogHello(bytes);
                       WireWriter w(order);
                       if (hello.has_value() && hello->order == order &&
                           hello->record_bytes == kOplogRecordBytes) {
                         EncodeOplogHello(w);
                       }
                       return w.Take();
                     },
                     "4c4f4641 016c4800",
                     "41464f4c 01420048"});
  goldens.push_back({"OplogAck",
                     [](WireOrder order) {
                       WireWriter w(order);
                       EncodeOplogAck(w, 0x0102030405060708ull);
                       return w.Take();
                     },
                     [](std::span<const uint8_t> bytes, WireOrder order) {
                       const auto seq = DecodeOplogAck(bytes, order);
                       WireWriter w(order);
                       if (seq.has_value()) {
                         EncodeOplogAck(w, *seq);
                       }
                       return w.Take();
                     },
                     "08070605 04030201",
                     "01020304 05060708"});
  goldens.push_back({"OplogRecord",
                     [](WireOrder order) {
                       WireWriter w(order);
                       EncodeOplogRecord(w, GoldenOplogRecord());
                       return w.Take();
                     },
                     [](std::span<const uint8_t> bytes, WireOrder order) {
                       OplogRecord out;
                       WireWriter w(order);
                       if (DecodeOplogRecord(bytes, order, kOplogRecordBytes, &out)) {
                         EncodeOplogRecord(w, out);
                       }
                       return w.Take();
                     },
                     "08070605 04030201 03000504 06000000 07000000 08001000 3f000000 ecffffff "
                     "f9ffffff 01000000 01000000 02000000 02000000 18171615 14131211 28272625 "
                     "24232221 00000000",
                     "01020304 05060708 00030405 00000006 00000007 00100008 0000003f ffffffec "
                     "fffffff9 00000001 00000001 00000002 00000002 11121314 15161718 21222324 "
                     "25262728 00000000"});

  SetupReply accepted;
  accepted.success = true;
  accepted.resource_id_base = 0x00300000;
  accepted.resource_id_mask = 0x000fffff;
  accepted.vendor = "AF golden";
  accepted.devices = {GoldenDevice(0, DevType::kCodec), GoldenDevice(1, DevType::kPhone)};
  goldens.push_back(SetupReplyGolden(
      "SetupReply accepted", accepted,
      "01000200 00002200 00003000 ffff0f00 09000200 41462067 6f6c6465 6e000000 "
      "00000000 00000000 401f0000 00800000 01000000 02000000 803e0000 00400000 "
      "02000000 01000000 03000000 04000000 05000000 06000000 01000000 02000000 "
      "411f0000 01800000 02000000 02000000 813e0000 01400000 03000000 01000000 "
      "04000000 05000000 06000000 07000000",
      "01000002 00000022 00300000 000fffff 00090200 41462067 6f6c6465 6e000000 "
      "00000000 00000000 00001f40 00008000 00000001 00000002 00003e80 00004000 "
      "00000002 00000001 00000003 00000004 00000005 00000006 00000001 00000002 "
      "00001f41 00008001 00000002 00000002 00003e81 00004001 00000003 00000001 "
      "00000004 00000005 00000006 00000007"));
  SetupReply refused;
  refused.success = false;
  refused.failure_reason = "no access";
  goldens.push_back(SetupReplyGolden(
      "SetupReply refused", refused,
      "00000200 00000400 09000000 6e6f2061 63636573 73000000",
      "00000002 00000004 00000009 6e6f2061 63636573 73000000"));
  return goldens;
}

TEST(UnitGoldenTest, EveryServerUnitInBothOrders) {
  for (const UnitGolden& g : UnitGoldens()) {
    for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
      const char* want = order == WireOrder::kLittle ? g.little : g.big;
      const std::vector<uint8_t> bytes = g.encode(order);
      EXPECT_EQ(WordsHex(bytes), want)
          << g.name << (order == WireOrder::kLittle ? " little" : " big");
      EXPECT_EQ(WordsHex(g.reencode(bytes, order)), want)
          << g.name << (order == WireOrder::kLittle ? " little" : " big") << " re-encoded";
    }
  }
}

// Bytes from WordsHex form (spaces ignored).
std::vector<uint8_t> FromWordsHex(std::string_view hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size();) {
    if (hex[i] == ' ') {
      ++i;
      continue;
    }
    out.push_back(static_cast<uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
    i += 2;
  }
  return out;
}

// A version-1 primary's 64-byte record: every field up to value, then pad;
// the decoder must hand back corr = 0.
TEST(UnitGoldenTest, VersionOneOplogRecordDecodesWithZeroCorr) {
  for (const WireOrder order : {WireOrder::kLittle, WireOrder::kBig}) {
    const std::vector<uint8_t> v1 = FromWordsHex(
        order == WireOrder::kLittle
            ? "08070605 04030201 03000504 06000000 07000000 08001000 3f000000 ecffffff "
              "f9ffffff 01000000 01000000 02000000 02000000 18171615 14131211 00000000"
            : "01020304 05060708 00030405 00000006 00000007 00100008 0000003f ffffffec "
              "fffffff9 00000001 00000001 00000002 00000002 11121314 15161718 00000000");
    ASSERT_EQ(v1.size(), kOplogRecordBytesV1);
    OplogRecord out;
    ASSERT_TRUE(DecodeOplogRecord(v1, order, kOplogRecordBytesV1, &out));
    OplogRecord want = GoldenOplogRecord();
    want.corr = 0;
    WireWriter got_w(order);
    EncodeOplogRecord(got_w, out);
    WireWriter want_w(order);
    EncodeOplogRecord(want_w, want);
    EXPECT_EQ(WordsHex(got_w.data()), WordsHex(want_w.data()));
  }
}

TEST(WireTest, RequestTooLargeIsFatalCheckedByLimit) {
  // The 16-bit length field limits requests to 262144 bytes (Section 5.3).
  EXPECT_EQ(kMaxRequestBytes, 262144u);
}

TEST(AtomTest, BuiltinsArePreloaded) {
  AtomTable atoms;
  EXPECT_EQ(atoms.Intern("STRING", true), kAtomSTRING);
  EXPECT_EQ(atoms.Intern("LAST_NUMBER_DIALED", true), kAtomLAST_NUMBER_DIALED);
  EXPECT_EQ(atoms.NameOf(kAtomTIME).value(), "TIME");
  EXPECT_EQ(atoms.size(), static_cast<size_t>(kLastBuiltinAtom));
}

TEST(AtomTest, InternCreatesAndFinds) {
  AtomTable atoms;
  EXPECT_EQ(atoms.Intern("NEW_THING", true), kNoAtom);
  const Atom a = atoms.Intern("NEW_THING");
  EXPECT_GT(a, kLastBuiltinAtom);
  EXPECT_EQ(atoms.Intern("NEW_THING"), a);
  EXPECT_EQ(atoms.NameOf(a).value(), "NEW_THING");
  EXPECT_FALSE(atoms.NameOf(a + 100).has_value());
}

TEST(SampleTypeTest, Table) {
  EXPECT_EQ(SampleTypeOf(AEncodeType::kMu255).bytes_per_unit, 1u);
  EXPECT_EQ(SampleTypeOf(AEncodeType::kLin16).bytes_per_unit, 2u);
  EXPECT_STREQ(SampleTypeOf(AEncodeType::kLin32).name, "LIN32");
  // ADPCM32: 4 bits per sample, 2 samples per byte.
  EXPECT_EQ(SamplesToBytes(AEncodeType::kAdpcm32, 16, 1), 8u);
  EXPECT_EQ(BytesToSamples(AEncodeType::kLin16, 4000, 2), 1000u);
  EXPECT_EQ(SamplesToBytes(AEncodeType::kLin16, 1000, 2), 4000u);
}

}  // namespace
}  // namespace af
