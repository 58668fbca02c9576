// Server (DIA) behavior through the client library: setup, dispatch,
// errors, audio contexts, atoms/properties with change events, access
// control, and protocol-violation handling.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "server/send_buffer.h"
#include "torture_util.h"

namespace af {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.with_phone = true;
    config.realtime = false;  // time frozen; fine for control-path tests
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = conn.take();
    // Collect protocol errors instead of exiting.
    conn_->SetErrorHandler(
        [this](AFAudioConn&, const ErrorPacket& error) { errors_.push_back(error); });
  }

  std::unique_ptr<ServerRunner> runner_;
  std::unique_ptr<AFAudioConn> conn_;
  std::vector<ErrorPacket> errors_;
};

TEST_F(ServerTest, SetupDescribesDevices) {
  ASSERT_EQ(conn_->devices().size(), 2u);
  EXPECT_EQ(conn_->devices()[0].type, DevType::kCodec);
  EXPECT_EQ(conn_->devices()[1].type, DevType::kPhone);
  EXPECT_EQ(conn_->devices()[1].inputs_from_phone, 1u);
  EXPECT_EQ(conn_->FindDefaultDevice()->index, 0u);
  EXPECT_EQ(conn_->FindDefaultPhoneDevice()->index, 1u);
  EXPECT_FALSE(conn_->vendor().empty());
}

TEST_F(ServerTest, GetTimeRoundTrip) {
  auto t = conn_->GetTime(0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), 0u);  // manual clock frozen at zero
  runner_->manual_clock()->Advance(12345);
  t = conn_->GetTime(0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), 12345u);
}

TEST_F(ServerTest, GetTimeBadDevice) {
  // Errors for awaited (round-trip) requests surface at the caller, not
  // the asynchronous error handler.
  auto t = conn_->GetTime(99);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), AfError::kBadDevice);
  conn_->Sync();
  EXPECT_TRUE(errors_.empty());
}

TEST_F(ServerTest, CreateAndFreeAC) {
  ACAttributes attrs;
  attrs.play_gain_db = -6;
  auto ac = conn_->CreateAC(0, kACPlayGain, attrs);
  ASSERT_TRUE(ac.ok());
  conn_->Sync();
  EXPECT_TRUE(errors_.empty());
  conn_->FreeAC(ac.value());
  conn_->Sync();
  EXPECT_TRUE(errors_.empty());
}

TEST_F(ServerTest, ACWithBadGainIsAcceptedButBadEncodingIsNot) {
  ACAttributes attrs;
  attrs.encoding = AEncodeType::kCelp1016;  // no conversion module
  conn_->CreateAC(0, kACEncodingType, attrs);
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0].code, AfError::kBadMatch);
}

TEST_F(ServerTest, OutOfRangeEncodingIsBadValueForCreateAndChange) {
  ACAttributes attrs;
  attrs.encoding = static_cast<AEncodeType>(99);
  conn_->CreateAC(0, kACEncodingType, attrs);
  auto ac = conn_->CreateAC(0, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  ac.value()->ChangeAttributes(kACEncodingType, attrs);
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 2u);
  EXPECT_EQ(errors_[0].opcode, Opcode::kCreateAC);
  EXPECT_EQ(errors_[0].code, AfError::kBadValue);
  EXPECT_EQ(errors_[0].value, 99u);
  EXPECT_EQ(errors_[1].opcode, Opcode::kChangeACAttributes);
  EXPECT_EQ(errors_[1].code, AfError::kBadValue);
  EXPECT_EQ(errors_[1].value, 99u);
}

TEST_F(ServerTest, ChangeACAttributesValidatesOwnership) {
  ChangeACAttributesReq req;
  req.ac = 0xDEAD;  // nobody's AC
  conn_->QueueRequest(Opcode::kChangeACAttributes, req);
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0].code, AfError::kBadAC);
}

TEST_F(ServerTest, SyncConnectionRoundTrips) {
  conn_->Sync();
  conn_->Sync();
  EXPECT_TRUE(errors_.empty());
}

TEST_F(ServerTest, NotImplementedRequests) {
  QueryExtensionReq req;
  req.name = "shm";
  conn_->QueueRequest(Opcode::kQueryExtension, req);
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0].code, AfError::kNotImplemented);
}

TEST_F(ServerTest, DialPhoneIsObsolete) {
  DialPhoneReq req;
  req.device = 1;
  req.number = "5551212";
  conn_->QueueRequest(Opcode::kDialPhone, req);
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0].code, AfError::kObsolete);
}

TEST_F(ServerTest, AtomsInternAndName) {
  auto atom = conn_->InternAtom("MY_NEW_ATOM");
  ASSERT_TRUE(atom.ok());
  EXPECT_GT(atom.value(), kLastBuiltinAtom);
  auto name = conn_->GetAtomName(atom.value());
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "MY_NEW_ATOM");
  auto again = conn_->InternAtom("MY_NEW_ATOM", /*only_if_exists=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), atom.value());
  auto missing = conn_->InternAtom("NOPE", /*only_if_exists=*/true);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value(), kNoAtom);
}

TEST_F(ServerTest, PropertiesStoreAndNotify) {
  // A second client registers for property-change events.
  auto watcher_result = runner_->ConnectInProcess();
  ASSERT_TRUE(watcher_result.ok());
  auto watcher = watcher_result.take();
  watcher->SelectEvents(0, kPropertyChangeMask);
  watcher->Sync();

  const std::string number = "16175551212";
  conn_->ChangeProperty(0, kAtomLAST_NUMBER_DIALED, kAtomSTRING, 8, PropertyMode::kReplace,
                        std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(number.data()), number.size()));
  conn_->Sync();

  auto prop = conn_->GetProperty(0, kAtomLAST_NUMBER_DIALED);
  ASSERT_TRUE(prop.ok());
  EXPECT_EQ(prop.value().type, kAtomSTRING);
  EXPECT_EQ(std::string(prop.value().data.begin(), prop.value().data.end()), number);
  EXPECT_EQ(prop.value().bytes_after, 0u);

  auto list = conn_->ListProperties(0);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value(), std::vector<Atom>{kAtomLAST_NUMBER_DIALED});

  AEvent event;
  ASSERT_TRUE(watcher->NextEvent(&event).ok());
  EXPECT_EQ(event.type, EventType::kPropertyChange);
  EXPECT_EQ(event.w0, kAtomLAST_NUMBER_DIALED);
  EXPECT_EQ(event.w1, kPropertyNewValue);

  // Append mode and partial reads.
  conn_->ChangeProperty(0, kAtomLAST_NUMBER_DIALED, kAtomSTRING, 8, PropertyMode::kAppend,
                        std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(number.data()), 4));
  auto partial = conn_->GetProperty(0, kAtomLAST_NUMBER_DIALED, kAnyPropertyType, 1, 2);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial.value().data.size(), 8u);  // 2 long words
  EXPECT_GT(partial.value().bytes_after, 0u);

  conn_->DeleteProperty(0, kAtomLAST_NUMBER_DIALED);
  auto gone = conn_->GetProperty(0, kAtomLAST_NUMBER_DIALED);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().type, kNoAtom);
}

TEST_F(ServerTest, PropertyTypeMismatchReturnsMetadataOnly) {
  const uint8_t bytes[4] = {1, 2, 3, 4};
  conn_->ChangeProperty(0, kAtomCOPYRIGHT, kAtomSTRING, 8, PropertyMode::kReplace, bytes);
  auto wrong = conn_->GetProperty(0, kAtomCOPYRIGHT, kAtomINTEGER);
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(wrong.value().type, kAtomSTRING);
  EXPECT_TRUE(wrong.value().data.empty());
  EXPECT_EQ(wrong.value().bytes_after, 4u);
}

TEST_F(ServerTest, AccessControlListEditing) {
  const uint8_t addr[4] = {10, 1, 2, 3};
  conn_->AddHost(0, addr);
  auto hosts = conn_->ListHosts();
  ASSERT_TRUE(hosts.ok());
  EXPECT_EQ(hosts.value().enabled, 0u);
  ASSERT_EQ(hosts.value().hosts.size(), 1u);
  EXPECT_EQ(hosts.value().hosts[0].address, (std::vector<uint8_t>{10, 1, 2, 3}));

  conn_->SetAccessControl(true);
  hosts = conn_->ListHosts();
  ASSERT_TRUE(hosts.ok());
  EXPECT_EQ(hosts.value().enabled, 1u);

  conn_->RemoveHost(0, addr);
  conn_->SetAccessControl(false);
  hosts = conn_->ListHosts();
  ASSERT_TRUE(hosts.ok());
  EXPECT_TRUE(hosts.value().hosts.empty());
}

TEST_F(ServerTest, GainQueriesAndLimits) {
  conn_->SetOutputGain(0, 10);
  auto gain = conn_->QueryOutputGain(0);
  ASSERT_TRUE(gain.ok());
  EXPECT_EQ(gain.value().gain_db, 10);
  EXPECT_EQ(gain.value().min_db, kGainMinDb);
  EXPECT_EQ(gain.value().max_db, kGainMaxDb);

  conn_->SetInputGain(0, 99);  // out of range
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0].code, AfError::kBadValue);
  auto in_gain = conn_->QueryInputGain(0);
  ASSERT_TRUE(in_gain.ok());
  EXPECT_EQ(in_gain.value().gain_db, 0);
}

TEST_F(ServerTest, TelephonyOnNonPhoneDeviceIsBadMatch) {
  conn_->HookSwitch(0, true);
  conn_->Sync();
  ASSERT_EQ(errors_.size(), 1u);
  EXPECT_EQ(errors_[0].code, AfError::kBadMatch);
}

TEST_F(ServerTest, QueryPhoneWorksOnPhoneDevice) {
  auto phone = conn_->QueryPhone(1);
  ASSERT_TRUE(phone.ok());
  EXPECT_EQ(phone.value().off_hook, 0u);
  conn_->HookSwitch(1, true);
  phone = conn_->QueryPhone(1);
  ASSERT_TRUE(phone.ok());
  EXPECT_EQ(phone.value().off_hook, 1u);
}

TEST_F(ServerTest, MultipleClientsCoexist) {
  auto second_result = runner_->ConnectInProcess();
  ASSERT_TRUE(second_result.ok());
  auto second = second_result.take();
  auto t1 = conn_->GetTime(0);
  auto t2 = second->GetTime(0);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t1.value(), t2.value());
}

TEST_F(ServerTest, MalformedRequestClosesConnection) {
  auto victim_result = runner_->ConnectInProcess();
  ASSERT_TRUE(victim_result.ok());
  auto victim = victim_result.take();
  bool io_error = false;
  victim->SetIOErrorHandler([&io_error](AFAudioConn&) { io_error = true; });
  // A zero-length request header is a protocol violation.
  WireWriter& out = victim->out_for_test();
  out.U8(static_cast<uint8_t>(Opcode::kNoOperation));
  out.U8(0);
  out.U16(0);  // length 0: malformed
  victim->Flush();
  // The server must drop the victim but keep serving others.
  AEvent dummy;
  victim->NextEvent(&dummy);  // returns via IO error
  EXPECT_TRUE(io_error);
  auto t = conn_->GetTime(0);
  EXPECT_TRUE(t.ok());
}

TEST_F(ServerTest, BacklogBeyondFairnessCapIsServiced) {
  // Regression: a burst larger than max_requests_per_sweep used to strand
  // the tail of the burst in the input buffer forever, because poll never
  // fires again for an already-drained socket.
  const int burst = runner_->server().options().max_requests_per_sweep * 4;
  for (int i = 0; i < burst; ++i) {
    conn_->NoOp();
  }
  conn_->Sync();  // the reply can only arrive if the whole burst drains
  EXPECT_TRUE(errors_.empty());
}

TEST_F(ServerTest, OppositeEndianClientIsServed) {
  // The library always speaks host order; forge a big-endian client on the
  // wire to exercise the server's swap path (on a little-endian host).
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [client_end, server_end] = pair.value();
  runner_->server().AdoptClient(std::move(server_end));

  const WireOrder order = HostIsLittleEndian() ? WireOrder::kBig : WireOrder::kLittle;
  SetupReply reply;
  ASSERT_TRUE(torture::RawSetup(client_end, &reply, order));
  ASSERT_EQ(reply.devices.size(), 2u);
  EXPECT_EQ(reply.devices[0].play_sample_rate, 8000u);

  // A GetTime round trip in the foreign order.
  runner_->manual_clock()->Set(24680);
  WireWriter w(order);
  GetTimeReq req;
  req.device = 0;
  const size_t header = BeginRequest(w, Opcode::kGetTime);
  req.Encode(w);
  EndRequest(w, header);
  ASSERT_TRUE(client_end.WriteAll(w.data().data(), w.size()).ok());

  uint8_t unit[kReplyBaseBytes];
  ASSERT_TRUE(client_end.ReadAll(unit, sizeof(unit)).ok());
  GetTimeReply time_reply;
  ASSERT_TRUE(GetTimeReply::Decode(unit, order, &time_reply));
  EXPECT_EQ(time_reply.time, 24680u);
}

TEST_F(ServerTest, SuspendedClientDoesNotStallOthers) {
  // A blocking record into the future suspends only its own connection;
  // a second client keeps getting service meanwhile (Section 7.1).
  auto blocked_result = runner_->ConnectInProcess();
  ASSERT_TRUE(blocked_result.ok());
  auto blocked = blocked_result.take();
  auto ac = blocked->CreateAC(0, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());

  std::atomic<bool> record_done{false};
  std::thread blocker([&] {
    std::vector<uint8_t> buf(4000);  // 0.5 s into the future
    ac.value()->RecordSamples(0, buf, /*block=*/true);
    record_done.store(true);
  });

  // Give the record request time to reach the server and suspend.
  SleepMicros(50000);
  EXPECT_FALSE(record_done.load());
  // Other clients stay fully responsive.
  for (int i = 0; i < 50; ++i) {
    auto t = conn_->GetTime(0);
    ASSERT_TRUE(t.ok());
  }
  // Now let device time reach the requested range: the suspended request
  // resumes and completes.
  runner_->manual_clock()->Advance(8000);
  blocker.join();
  EXPECT_TRUE(record_done.load());
}

// --- raw clients with bounded waits --------------------------------------

// One request, in host order.
template <typename Req>
std::vector<uint8_t> EncodeRequest(Opcode op, const Req& req) {
  WireWriter w;
  const size_t header = BeginRequest(w, op);
  req.Encode(w);
  EndRequest(w, header);
  return w.Take();
}

// Waits (bounded) until the counter reads at least n.
bool AwaitCount(const Counter& counter, uint64_t n) {
  for (int i = 0; i < 10000 && counter.Value() < n; ++i) {
    SleepMicros(1000);
  }
  return counter.Value() >= n;
}

TEST_F(ServerTest, RequestsThatArriveWhileSuspendedAreServedOnResume) {
  // A blocking record into the future parks the client. Three GetTime
  // requests arrive while it is parked: the shard meets their edge but
  // may not read a parked client, so they stay in the kernel. Once the
  // record completes, the client may be read again and the three are
  // answered, with no further byte from the client to raise another edge.
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FdStream client = std::move(pair.value().first);
  runner_->server().AdoptClient(std::move(pair.value().second));
  SetupReply setup;
  ASSERT_TRUE(torture::RawSetup(client, &setup));
  const uint32_t base = setup.resource_id_base;

  CreateACReq create;
  create.ac = base | 1;
  GetTimeReq get_time;
  std::vector<uint8_t> bytes = EncodeRequest(Opcode::kCreateAC, create);
  const std::vector<uint8_t> time_request = EncodeRequest(Opcode::kGetTime, get_time);
  bytes.insert(bytes.end(), time_request.begin(), time_request.end());
  ASSERT_TRUE(client.WriteAll(bytes.data(), bytes.size()).ok());
  std::vector<uint8_t> unit;
  GetTimeReply now;
  ASSERT_TRUE(torture::ReadServerMessage(client, /*setup_done=*/true, &unit));
  ASSERT_TRUE(GetTimeReply::Decode(unit, HostWireOrder(), &now));

  RecordSamplesReq record;
  record.ac = create.ac;
  record.start_time = now.time;
  record.nbytes = 400;  // 50 ms of the CODEC, all of it still to come
  const Counter& suspends = runner_->server().metrics().suspends;
  const uint64_t suspends_before = suspends.Value();
  bytes = EncodeRequest(Opcode::kRecordSamples, record);
  ASSERT_TRUE(client.WriteAll(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(AwaitCount(suspends, suspends_before + 1));

  bytes.clear();
  for (int i = 0; i < 3; ++i) {
    bytes.insert(bytes.end(), time_request.begin(), time_request.end());
  }
  const Counter& dispatched = runner_->server().metrics().requests_dispatched;
  const uint64_t dispatched_before = dispatched.Value();
  ASSERT_TRUE(client.WriteAll(bytes.data(), bytes.size()).ok());
  runner_->RunOnLoop([] {});
  runner_->RunOnLoop([] {});
  EXPECT_EQ(dispatched.Value(), dispatched_before) << "a parked client's socket was read";

  // Read nothing until they are served: reading the record's reply would
  // free buffer space and raise a write edge that wakes the shard anyway.
  runner_->manual_clock()->Advance(800);
  ASSERT_TRUE(AwaitCount(dispatched, dispatched_before + 3))
      << "requests that arrived while the client was parked were never read";
  ASSERT_TRUE(torture::ReadServerMessage(client, /*setup_done=*/true, &unit))
      << "the record never completed";
  ReplyHeader header;
  ASSERT_TRUE(PeekReplyHeader(unit, HostWireOrder(), &header));
  EXPECT_EQ(header.seq, 3u);
  for (uint16_t seq = 4; seq <= 6; ++seq) {
    ASSERT_TRUE(torture::ReadServerMessage(client, /*setup_done=*/true, &unit))
        << "request " << seq << " was never served";
    ASSERT_TRUE(PeekReplyHeader(unit, HostWireOrder(), &header));
    EXPECT_EQ(header.seq, seq);
  }
}

TEST_F(ServerTest, LoneRequestIsAnsweredUnderByteAtATimeReadsAndInjectedStalls) {
  // The server reads this client one byte per read and meets kWouldBlock
  // bursts on a socket that is in fact readable, in the setup and inside
  // the request. Neither kind of read proves the socket drained, so the
  // shard keeps reading without waiting for another edge: the client
  // sends its setup, then one request, and only waits.
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(1);
  const uint64_t setup_bytes = SetupRequest().Encode().size();
  for (const uint64_t at : {uint64_t{0}, uint64_t{5}, setup_bytes, setup_bytes + 3,
                            setup_bytes + 7}) {
    faults->WouldBlockReadAt(at, 3);
  }
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FdStream client = std::move(pair.value().first);
  runner_->server().AdoptClient(std::move(pair.value().second), faults);
  ASSERT_TRUE(torture::RawSetup(client)) << faults->TraceString();

  for (uint32_t round = 0; round < 2; ++round) {
    runner_->manual_clock()->Set(1000 + round);
    const std::vector<uint8_t> bytes = EncodeRequest(Opcode::kGetTime, GetTimeReq());
    ASSERT_TRUE(client.WriteAll(bytes.data(), bytes.size()).ok());
    std::vector<uint8_t> unit;
    ASSERT_TRUE(torture::ReadServerMessage(client, /*setup_done=*/true, &unit))
        << "round " << round << ": " << faults->TraceString();
    GetTimeReply reply;
    ASSERT_TRUE(GetTimeReply::Decode(unit, HostWireOrder(), &reply));
    EXPECT_EQ(reply.time, 1000 + round);
  }
  EXPECT_GE(faults->faults_applied(), 15u);
}

TEST_F(ServerTest, StatsCount) {
  conn_->NoOp();
  conn_->Sync();
  runner_->RunOnLoop([this] {
    EXPECT_GT(runner_->server().metrics().requests_dispatched.Value(), 0u);
    EXPECT_EQ(runner_->server().client_count(), 1u);
  });
}

// Request i of a pipelined flood: an InternAtom that only looks its name
// up, so it changes nothing and is always answered with kNoAtom. The name
// spells i and its length varies, so request boundaries land everywhere
// relative to the read chunks and the input high-water mark.
std::string FloodName(size_t i) {
  return "flood-" + std::to_string(i) + std::string(100 + i % 197, 'x');
}

// Flood requests 0, 1, ... until they total at least min_bytes; *count is
// how many.
std::vector<uint8_t> EncodeFlood(size_t min_bytes, size_t* count) {
  WireWriter w;
  size_t n = 0;
  while (w.size() < min_bytes) {
    InternAtomReq req;
    req.only_if_exists = 1;
    req.name = FloodName(n++);
    const size_t header = BeginRequest(w, Opcode::kInternAtom);
    req.Encode(w);
    EndRequest(w, header);
  }
  *count = n;
  return w.Take();
}

TEST(ClientConnTest, NextRequestIsDueOneMeasuredIntervalAfterTheAnswer) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  ClientConn conn(std::move(pair.value().second), PeerAddress{}, 1);
  const uint64_t t = 1'000'000;
  conn.NoteDispatched(t, t + 2);  // the first answer: no interval measured yet
  EXPECT_FALSE(conn.RequestDue(t + 2));
  conn.NoteDispatched(t + 8, t + 9);  // started 6 us after it: next due at t + 15
  EXPECT_TRUE(conn.RequestDue(t + 9));
  EXPECT_TRUE(conn.RequestDue(t + 15 + kSpinBudgetUs));
  EXPECT_FALSE(conn.RequestDue(t + 16 + kSpinBudgetUs));
  conn.NoteDispatched(t + 2009, t + 2010);  // 2 ms later: next due at t + 4010
  EXPECT_FALSE(conn.RequestDue(t + 2010));
  EXPECT_FALSE(conn.RequestDue(t + 3999 - kSpinBudgetUs));
  EXPECT_TRUE(conn.RequestDue(t + 4010 - kSpinBudgetUs));
}

TEST(ClientConnTest, BufferedInputStopsAtTheHighWaterMark) {
  // The flood guard on one connection, driven by hand while the peer
  // pipelines twice the high-water mark of complete requests. Nothing is
  // consumed until the guard engages, so the buffer fills to the mark.
  // Then one request is consumed per read for a few rounds: each fill
  // lands on a buffer just under the mark whose storage has grown past it,
  // so only the read cap keeps the fill from overshooting. Then every
  // complete request is consumed after each read, until EOF. Buffered
  // input reaches the mark and never passes it, and every request arrives
  // intact and in order.
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FdStream peer = std::move(pair.value().first);
  ClientConn conn(std::move(pair.value().second), PeerAddress{}, 1);
  conn.set_state(ClientConn::State::kRunning);  // frame requests, not a setup
  ServerMetrics metrics;
  conn.AttachMetrics(&metrics);

  size_t count = 0;
  const std::vector<uint8_t> flood = EncodeFlood(2 * ClientConn::kInHighWater, &count);
  std::thread writer([&] {
    EXPECT_TRUE(peer.WriteAll(flood.data(), flood.size()).ok());
    peer.Close();
  });

  size_t framed = 0;
  size_t peak = 0;
  bool intact = true;
  // Frames the request at the head, checks it is the next one of the
  // flood, and consumes it.
  const auto take_one = [&] {
    const std::span<const uint8_t> buf = conn.Buffered();
    const size_t total = FrameClientMessage(buf, /*setup_done=*/true, HostWireOrder());
    WireReader head(buf);
    RequestHeader header;
    InternAtomReq req;
    intact = total != kFrameNeedMore && total != kFrameMalformed &&
             DecodeRequestHeader(head, &header) && header.opcode == Opcode::kInternAtom;
    if (intact) {
      WireReader body(buf.subspan(kRequestHeaderBytes, total - kRequestHeaderBytes));
      intact = InternAtomReq::Decode(body, &req) && req.name == FloodName(framed);
    }
    if (intact) {
      conn.Consume(total);
      ++framed;
    }
  };
  constexpr uint64_t kOneAtATimeHits = 4;
  while (intact) {
    if (!conn.ReadAvailable()) {
      ADD_FAILURE() << "read failed after " << framed << " requests";
      break;
    }
    peak = std::max(peak, conn.Buffered().size());
    const uint64_t hits = metrics.highwater_hits.Value();
    if (hits > 0 && hits < kOneAtATimeHits) {
      take_one();
    } else if (hits > 0) {
      while (intact && conn.HasCompleteRequest()) {
        take_one();
      }
    }
    if (conn.saw_eof()) {
      break;
    }
    if (!WaitForFd(conn.fd(), /*for_read=*/true).ok()) {
      ADD_FAILURE() << "poll failed after " << framed << " requests";
      break;
    }
  }
  writer.join();
  EXPECT_TRUE(intact) << "request " << framed << " arrived damaged";
  EXPECT_EQ(framed, count);
  EXPECT_TRUE(conn.Buffered().empty());
  EXPECT_GE(metrics.highwater_hits.Value(), kOneAtATimeHits);
  EXPECT_EQ(peak, ClientConn::kInHighWater);
}

// --- the send buffer under scripted write faults ------------------------------

// A send buffer on one end of a fresh socketpair, holding bytes valued from
// `first` upward, with `faults` on its writes.
struct FaultedSendBuffer {
  FaultedSendBuffer(std::shared_ptr<FaultSchedule> faults, size_t n, uint8_t first) {
    auto pair = CreateStreamPair();
    EXPECT_TRUE(pair.ok());
    stream = FaultStream(std::move(pair.value().first), std::move(faults));
    peer = std::move(pair.value().second);
    for (size_t i = 0; i < n; ++i) {
      buf.out().U8(static_cast<uint8_t>(first + i));
    }
  }
  // Flushes once, appending the running sent count after every write.
  IoStatus Flush() {
    return buf.Flush(stream, [this](size_t bytes) {
      sent += bytes;
      stops.push_back(sent);
    }).status;
  }

  FaultStream stream;
  FdStream peer;
  SendBuffer buf;
  size_t sent = 0;
  std::vector<size_t> stops;
};

TEST(SendBufferTest, FlushResumesAcrossInjectedStalls) {
  // A split, then a would-block burst of two, then another split. Each
  // write stops at the next split or stall; the buffer resumes from its
  // own sent count.
  auto faults = std::make_shared<FaultSchedule>();
  faults->SplitWriteAt(3);
  faults->WouldBlockWriteAt(5, 2);
  faults->SplitWriteAt(9);
  FaultedSendBuffer f(faults, 11, 10);

  EXPECT_EQ(f.Flush(), IoStatus::kWouldBlock);
  EXPECT_EQ(f.buf.unsent(), 6u);
  EXPECT_EQ(f.Flush(), IoStatus::kWouldBlock);  // the burst's second stall
  EXPECT_EQ(f.Flush(), IoStatus::kOk);
  EXPECT_EQ(f.stops, (std::vector<size_t>{3, 5, 9, 11}));
  EXPECT_EQ(f.buf.unsent(), 0u);
  EXPECT_EQ(f.buf.out().size(), 0u);  // a full drain resets the writer
  EXPECT_GE(faults->faults_applied(), 3u);

  uint8_t got[11] = {};
  ASSERT_TRUE(f.peer.ReadAll(got, sizeof(got)).ok());
  for (size_t i = 0; i < sizeof(got); ++i) {
    EXPECT_EQ(got[i], 10 + i) << "byte " << i;
  }
}

TEST(SendBufferTest, FlushStopsAtScriptedCut) {
  // The peer "goes away" at byte 5: the first write stops there, and the
  // next one meets the cut and reports the peer gone.
  auto faults = std::make_shared<FaultSchedule>();
  faults->CutWriteAt(5);
  FaultedSendBuffer f(faults, 7, 1);

  EXPECT_EQ(f.Flush(), IoStatus::kClosed);
  EXPECT_EQ(f.stops, (std::vector<size_t>{5}));
  EXPECT_EQ(f.buf.unsent(), 2u);
  // The bytes before the cut were accepted; the peer can read exactly 5.
  uint8_t got[8] = {};
  const IoResult r = f.peer.Read(got, sizeof(got));
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 5u);
  EXPECT_EQ(got[4], 5);
}

TEST(SendBufferTest, StalledFlushDropsTheSentPrefixOnceItOutweighsTheRest) {
  // The first stall leaves 4 bytes sent and 6 unsent: nothing moves. The
  // second leaves 6 sent and 4 unsent: the sent prefix is dropped, so the
  // writer holds just the unsent rest, and bytes appended after it still
  // leave in order.
  auto faults = std::make_shared<FaultSchedule>();
  faults->WouldBlockWriteAt(4, 1);
  faults->WouldBlockWriteAt(6, 1);
  FaultedSendBuffer f(faults, 10, 0);

  EXPECT_EQ(f.Flush(), IoStatus::kWouldBlock);
  EXPECT_EQ(f.buf.out().size(), 10u);
  EXPECT_EQ(f.Flush(), IoStatus::kWouldBlock);
  EXPECT_EQ(f.buf.unsent(), 4u);
  EXPECT_EQ(f.buf.out().size(), 4u);
  EXPECT_EQ(f.buf.out().data().front(), 6);
  f.buf.out().U8(10);
  EXPECT_EQ(f.Flush(), IoStatus::kOk);

  uint8_t got[11] = {};
  ASSERT_TRUE(f.peer.ReadAll(got, sizeof(got)).ok());
  for (size_t i = 0; i < sizeof(got); ++i) {
    EXPECT_EQ(got[i], i) << "byte " << i;
  }
}

TEST(ServerFloodTest, PipelinedFloodPastTheHighWaterMarkIsServedInFull) {
  // A client pipelines one and a half high-water marks of complete
  // requests and reads no reply until it has written them all. Each batch
  // is written while the server loop is parked in a posted task, and the
  // fairness cap is one request per sweep, so every read takes whole
  // batches while dispatch consumes a few requests between parks: the
  // buffered input climbs to the mark and the flood guard engages, leaving
  // the rest in the kernel. Once the client drains, every request has been
  // answered, in order.
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 1;
  config.server.max_requests_per_sweep = 1;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FdStream client = std::move(pair.value().first);
  runner->server().AdoptClient(std::move(pair.value().second));

  ASSERT_TRUE(torture::RawSetup(client));

  size_t count = 0;
  const std::vector<uint8_t> flood = EncodeFlood(3 * ClientConn::kInHighWater / 2, &count);

  // Park n holds the loop thread until the test has released n parks; it
  // notes the shard's high-water hits so far.
  std::mutex mu;
  std::condition_variable cv;
  int parks = 0;
  int releases = 0;
  uint64_t hits = 0;
  const auto park = [&] {
    std::unique_lock<std::mutex> lock(mu);
    hits = runner->server().metrics().highwater_hits.Value();
    const int n = ++parks;
    cv.notify_all();
    cv.wait(lock, [&] { return releases >= n; });
  };
  constexpr size_t kBatch = 64 * 1024;  // fits in an idle socket's buffer
  constexpr int kMaxParks = 2000;       // a bound, far above the ~20 needed
  ASSERT_TRUE(client.SetNonBlocking(true).ok());
  size_t sent = 0;
  runner->server().PostToShard(0, park);
  for (int n = 1;; ++n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parks >= n; });
    const bool done = hits > 0 || n == kMaxParks;
    if (!done) {
      const IoResult r = client.Write(flood.data() + sent, std::min(kBatch, flood.size() - sent));
      if (r.status == IoStatus::kOk) {
        sent += r.bytes;
      }
      runner->server().PostToShard(0, park);
    }
    ++releases;
    cv.notify_all();
    if (done) {
      break;
    }
  }
  EXPECT_GT(hits, 0u) << "the guard never engaged; " << sent << " bytes sent";
  EXPECT_LT(sent, flood.size());

  ASSERT_TRUE(client.WriteAll(flood.data() + sent, flood.size() - sent).ok());
  for (size_t i = 0; i < count; ++i) {
    uint8_t unit[kReplyBaseBytes];
    ASSERT_TRUE(client.ReadAll(unit, sizeof(unit)).ok()) << "reply " << i;
    ReplyHeader header;
    InternAtomReply reply;
    ASSERT_TRUE(PeekReplyHeader(unit, HostWireOrder(), &header)) << "reply " << i;
    ASSERT_EQ(header.seq, static_cast<uint16_t>(i + 1)) << "reply " << i;
    ASSERT_TRUE(InternAtomReply::Decode(unit, HostWireOrder(), &reply)) << "reply " << i;
    ASSERT_EQ(reply.atom, kNoAtom) << "reply " << i;
  }

  auto conn = runner->ConnectInProcess();
  ASSERT_TRUE(conn.ok());
  auto stats = conn.value()->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().counters[ServerCounterSlot("highwater_hits")], 0u);
  EXPECT_EQ(stats.value().opcodes[static_cast<size_t>(Opcode::kInternAtom)].count, count);
}

// Heap bytes in use: the malloc arenas plus mmapped chunks.
size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(ServerFloodTest, ClientThatNeverReadsIsCappedAndLosesNothing) {
  // A raw client pipelines 512k InternAtom lookups (16 MiB of 32-byte
  // replies) and reads nothing. Once the shard holds kOutHighWater of
  // unsent replies for it, the egress guard stops reading and dispatching
  // it, so the writer stalls in the kernel. What the shard holds for the
  // connection stays inside the budget: its input buffer (at most twice
  // the 1 MiB flood mark) and its send buffer (at most twice the unsent
  // cap), where an uncapped server held every reply. A bystander is
  // served meanwhile. When the client reads, every reply arrives, in
  // order. (Under a sanitizer the allocator keeps its own books, so the
  // heap reads flat.)
  constexpr size_t kRequests = 512 * 1024;
  constexpr size_t kBudgetBytes = 6u << 20;
  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 1;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FdStream client = std::move(pair.value().first);
  runner->server().AdoptClient(std::move(pair.value().second));
  ASSERT_TRUE(torture::RawSetup(client));

  WireWriter w;
  InternAtomReq req;
  req.only_if_exists = 1;
  req.name = "egress";
  for (size_t i = 0; i < kRequests; ++i) {
    const size_t header = BeginRequest(w, Opcode::kInternAtom);
    req.Encode(w);
    EndRequest(w, header);
  }
  const std::vector<uint8_t> flood = w.Take();

  const size_t heap_before = HeapInUse();
  std::thread writer([&] { EXPECT_TRUE(client.WriteAll(flood.data(), flood.size()).ok()); });
  const Counter& hits = runner->server().metrics().egress_highwater_hits;
  ASSERT_TRUE(AwaitCount(hits, 1)) << "the egress guard never engaged";
  runner->RunOnLoop([] {});
  runner->RunOnLoop([] {});
  const size_t heap_after = HeapInUse();
  const size_t growth = heap_after > heap_before ? heap_after - heap_before : 0;
  EXPECT_LT(growth, kBudgetBytes);
  const uint64_t dispatched = runner->server().metrics().requests_dispatched.Value();
  EXPECT_LT(dispatched, kRequests / 4);

  auto bystander = runner->ConnectInProcess();
  ASSERT_TRUE(bystander.ok());
  EXPECT_TRUE(bystander.value()->GetTime(0).ok());

  std::vector<uint8_t> buf(64 * 1024);
  size_t have = 0;
  size_t replies = 0;
  while (replies < kRequests) {
    const IoResult r = client.Read(buf.data() + have, buf.size() - have);
    ASSERT_EQ(r.status, IoStatus::kOk) << "after " << replies << " replies";
    have += r.bytes;
    size_t off = 0;
    for (; have - off >= kReplyBaseBytes; off += kReplyBaseBytes, ++replies) {
      const std::span<const uint8_t> unit(buf.data() + off, kReplyBaseBytes);
      ReplyHeader header;
      InternAtomReply reply;
      ASSERT_TRUE(PeekReplyHeader(unit, HostWireOrder(), &header)) << "reply " << replies;
      ASSERT_EQ(header.seq, static_cast<uint16_t>(replies + 1)) << "reply " << replies;
      ASSERT_TRUE(InternAtomReply::Decode(unit, HostWireOrder(), &reply)) << "reply " << replies;
      ASSERT_EQ(reply.atom, kNoAtom) << "reply " << replies;
    }
    std::memmove(buf.data(), buf.data() + off, have - off);
    have -= off;
  }
  writer.join();
  EXPECT_EQ(have, 0u);
  auto stats = bystander.value()->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().counters[ServerCounterSlot("egress_highwater_hits")], 0u);
}

}  // namespace
}  // namespace af
