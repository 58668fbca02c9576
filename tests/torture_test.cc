// Protocol torture: the server must survive a hostile network.
//
// Truncation sweep: every request opcode, cut after every byte (including
// during the setup handshake); the server must tear the broken client down
// and keep serving a bystander. Seeded random fault walk: a raw client
// whose transport randomly shortens, stalls, delays, corrupts, cuts and
// resets, round after round; each round logs its fault trace so a failure
// reproduces exactly from the printed seed (AF_TORTURE_SEED replays one
// round, AF_TORTURE_ROUNDS tunes the soak depth).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "torture_util.h"
#include "transport/fault_stream.h"

namespace af {
namespace {

using torture::CanonicalRequest;

class TortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.with_phone = true;  // so telephony opcodes hit a real device
    config.realtime = false;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    bystander_ = conn.take();
  }

  // The bystander must still get service after every act of hostility.
  void ExpectServerAlive() {
    auto t = bystander_->GetTime(0);
    EXPECT_TRUE(t.ok());
  }

  // Adopts the server side of a fresh socketpair behind `faults` and
  // returns the raw client side.
  FdStream HostileConnection(std::shared_ptr<FaultSchedule> faults) {
    auto pair = CreateStreamPair();
    EXPECT_TRUE(pair.ok());
    runner_->server().AdoptClient(std::move(pair.value().second), std::move(faults));
    return std::move(pair.value().first);
  }

  std::unique_ptr<ServerRunner> runner_;
  std::unique_ptr<AFAudioConn> bystander_;
};

TEST_F(TortureTest, TruncationSweepEveryOpcode) {
  SetupRequest setup;
  const auto setup_bytes = setup.Encode();
  for (uint8_t op = kMinOpcode; op <= kMaxOpcode; ++op) {
    const auto req = CanonicalRequest(static_cast<Opcode>(op));
    ASSERT_GE(req.size(), kRequestHeaderBytes) << "opcode " << int(op);
    // cut == req.size() is the complete-request-then-EOF case; everything
    // below it is a mid-request truncation.
    for (size_t cut = 0; cut <= req.size(); ++cut) {
      auto faults = std::make_shared<FaultSchedule>();
      faults->CutReadAt(setup_bytes.size() + cut);
      FdStream raw = HostileConnection(faults);
      // Both setup and request go out in full; the server-side FaultStream
      // delivers the setup plus exactly `cut` bytes of the request, then a
      // clean EOF. (The setup reply is never read: liveness, not the
      // handshake, is the assertion here.) A sentinel byte rides along so
      // the kernel buffer is never drained exactly at the cut - the
      // socket stays poll-readable until the injected EOF is observed.
      // One write for the lot: the server may tear the connection down the
      // moment it sees the cut, so a second write could hit EPIPE.
      std::vector<uint8_t> wire(setup_bytes);
      wire.insert(wire.end(), req.begin(), req.end());
      wire.push_back(0);  // sentinel past the cut
      ASSERT_TRUE(raw.WriteAll(wire.data(), wire.size()).ok());
      const size_t clients = torture::DrainToClientCount(*runner_, 1);
      ASSERT_EQ(clients, 1u) << "opcode " << int(op) << " cut at byte " << cut
                             << "; trace: " << faults->TraceString();
    }
    ExpectServerAlive();
  }
}

TEST_F(TortureTest, TruncationSweepSetupHandshake) {
  SetupRequest setup;
  const auto setup_bytes = setup.Encode();
  for (size_t cut = 0; cut < setup_bytes.size(); ++cut) {
    auto faults = std::make_shared<FaultSchedule>();
    faults->CutReadAt(cut);
    FdStream raw = HostileConnection(faults);
    ASSERT_TRUE(raw.WriteAll(setup_bytes.data(), setup_bytes.size()).ok());
    const size_t clients = torture::DrainToClientCount(*runner_, 1);
    ASSERT_EQ(clients, 1u) << "setup cut at byte " << cut;
  }
  ExpectServerAlive();
}

TEST_F(TortureTest, ResetMidRequestLeavesBystanderUnharmed) {
  SetupRequest setup;
  const auto setup_bytes = setup.Encode();
  const auto req = CanonicalRequest(Opcode::kPlaySamples);
  for (const size_t at : {size_t{0}, size_t{2}, kRequestHeaderBytes, req.size() / 2}) {
    auto faults = std::make_shared<FaultSchedule>();
    faults->ResetReadAt(setup_bytes.size() + at);
    FdStream raw = HostileConnection(faults);
    ASSERT_TRUE(raw.WriteAll(setup_bytes.data(), setup_bytes.size()).ok());
    ASSERT_TRUE(raw.WriteAll(req.data(), req.size()).ok());
    const size_t clients = torture::DrainToClientCount(*runner_, 1);
    ASSERT_EQ(clients, 1u) << "reset at request byte " << at;
    ExpectServerAlive();
  }
}

TEST_F(TortureTest, SeededRandomFaultWalkSoak) {
  const int rounds = torture::EnvInt("AF_TORTURE_ROUNDS", 24);
  const uint64_t base_seed =
      static_cast<uint64_t>(torture::EnvInt("AF_TORTURE_SEED", 1993));

  SetupRequest setup;
  const auto setup_bytes = setup.Encode();
  // A burst of benign requests; the schedule mangles them in transit, so
  // the server sees shortened, stalled, delayed, corrupted, cut and reset
  // variants of real traffic.
  std::vector<uint8_t> burst;
  for (int rep = 0; rep < 12; ++rep) {
    for (const Opcode op :
         {Opcode::kGetTime, Opcode::kNoOperation, Opcode::kInternAtom,
          Opcode::kSyncConnection, Opcode::kGetProperty, Opcode::kListProperties,
          Opcode::kListHosts, Opcode::kQueryInputGain}) {
      const auto req = CanonicalRequest(op);
      burst.insert(burst.end(), req.begin(), req.end());
    }
  }

  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(round);
    FaultSchedule::RandomProfile profile;
    profile.p_corrupt = 0.05;
    profile.p_cut = 0.02;
    profile.p_reset = 0.01;
    auto faults = FaultSchedule::Random(seed, profile);
    // Injected latency advances the manual device clock instead of
    // sleeping: the walk stays deterministic and the soak stays fast.
    auto clock = runner_->manual_clock();
    faults->SetLatencyHook([clock](uint64_t usec) {
      clock->Advance(usec * clock->SampleRate() / 1000000 + 1);
    });

    FdStream raw = HostileConnection(faults);
    // Fire-and-forget: replies are never read (they pile into the
    // socketpair buffer or hit EPIPE after the close); transport errors on
    // this side are expected once the schedule cuts or resets the stream.
    (void)raw.WriteAll(setup_bytes.data(), setup_bytes.size());
    (void)raw.WriteAll(burst.data(), burst.size());
    raw.Close();

    const size_t clients = torture::DrainToClientCount(*runner_, 1);
    EXPECT_EQ(clients, 1u) << "replay with AF_TORTURE_SEED=" << seed
                           << " AF_TORTURE_ROUNDS=1; trace: "
                           << faults->TraceString();
    ExpectServerAlive();
  }
}

TEST_F(TortureTest, FloodOfGiantRequestHeadersIsBounded) {
  // A client announcing maximum-length requests and streaming bodies
  // forever must not make the server buffer without bound: the input
  // high-water mark caps what one sweep reads, and teardown on close must
  // still be prompt.
  SetupRequest setup;
  const auto setup_bytes = setup.Encode();
  FdStream raw = HostileConnection(nullptr);
  ASSERT_TRUE(raw.WriteAll(setup_bytes.data(), setup_bytes.size()).ok());
  WireWriter w;
  w.U8(static_cast<uint8_t>(Opcode::kPlaySamples));
  w.U8(0);
  w.U16(0xFFFF);  // 256 KiB request, body never fully sent
  std::vector<uint8_t> chunk(4096, 0xAB);
  ASSERT_TRUE(raw.WriteAll(w.data().data(), w.size()).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(raw.WriteAll(chunk.data(), chunk.size()).ok());
  }
  raw.Close();
  const size_t clients = torture::DrainToClientCount(*runner_, 1);
  EXPECT_EQ(clients, 1u);
  ExpectServerAlive();
}

// --- dispatch golden ------------------------------------------------------------
//
// The dispatcher's answer to every opcode, pinned as literals: its canonical
// request, the same header with an empty body, and (for a body with a device
// field) the canonical body aimed at device 99, plus the unassigned opcodes
// 0 and 41. Each request is chased by a SyncConnection, so a request that
// answers nothing reads "none". The table pins the order of the decode and
// device checks and the answers of the retired and unimplemented rows.

std::vector<uint8_t> EmptyBodyRequest(uint8_t op) {
  WireWriter w;
  w.U8(op);
  w.U8(0);
  w.U16(1);
  return w.Take();
}

template <typename Body>
std::vector<uint8_t> AtDevice99(Opcode op) {
  if constexpr (requires(Body b) { b.device; }) {
    const std::vector<uint8_t> canonical = CanonicalRequest(op);
    WireReader r(std::span<const uint8_t>(canonical).subspan(kRequestHeaderBytes));
    Body body;
    EXPECT_TRUE(Body::Decode(r, &body)) << OpcodeName(op);
    body.device = 99;
    WireWriter w;
    const size_t header = BeginRequest(w, op);
    body.Encode(w);
    EndRequest(w, header);
    return w.Take();
  }
  return {};
}

// The canonical request retargeted at device 99; empty when the body has
// no device field.
std::vector<uint8_t> AtDevice99(Opcode op) {
  switch (op) {
#define AF_AT_DEVICE_99(value, name, body) \
  case Opcode::k##name:                    \
    return AtDevice99<body>(op);
    AF_REQUESTS(AF_AT_DEVICE_99)
#undef AF_AT_DEVICE_99
  }
  return {};
}

// Sends `req` and a SyncConnection on a set-up raw connection whose last
// request had sequence number *seq, and reads units up to the sync's reply.
// Returns what answered `req`: "reply", "<error> <value>", or "none".
std::string Answer(FdStream& raw, const std::vector<uint8_t>& req, uint16_t* seq) {
  const uint16_t req_seq = ++*seq;
  const uint16_t sync_seq = ++*seq;
  std::vector<uint8_t> wire(req);
  const std::vector<uint8_t> sync = EmptyBodyRequest(static_cast<uint8_t>(Opcode::kSyncConnection));
  wire.insert(wire.end(), sync.begin(), sync.end());
  if (!raw.WriteAll(wire.data(), wire.size()).ok()) {
    return "<write failed>";
  }
  std::string answer;
  std::vector<uint8_t> unit;
  for (;;) {
    if (!torture::ReadServerMessage(raw, /*setup_done=*/true, &unit)) {
      return answer + "<closed>";
    }
    if (unit[0] == kErrorPacketType) {
      ErrorPacket error;
      EXPECT_TRUE(ErrorPacket::Decode(unit, HostWireOrder(), &error));
      if (error.seq == req_seq) {
        const std::string text = ErrorText(error.code);
        answer += (answer.empty() ? "" : " ") + text.substr(0, text.find(':')) + " " +
                  std::to_string(error.value);
      }
    } else if (unit[0] == kReplyPacketType) {
      ReplyHeader header;
      EXPECT_TRUE(PeekReplyHeader(unit, HostWireOrder(), &header));
      if (header.seq == sync_seq) {
        return answer.empty() ? "none" : answer;
      }
      if (header.seq == req_seq) {
        answer += answer.empty() ? "reply" : " reply";
      }
    }
  }
}

struct DispatchGolden {
  Opcode op;
  const char* canonical;
  const char* empty;
  const char* device99;  // "" when the body has no device field
};

const DispatchGolden kDispatchGoldens[] = {
    {Opcode::kSelectEvents, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kCreateAC, "BadIDChoice 0", "BadLength 0", "BadDevice 99"},
    {Opcode::kChangeACAttributes, "BadAC 0", "BadLength 0", ""},
    {Opcode::kFreeAC, "BadAC 0", "BadLength 0", ""},
    {Opcode::kPlaySamples, "BadAC 0", "BadLength 0", ""},
    {Opcode::kRecordSamples, "BadAC 0", "BadLength 0", ""},
    {Opcode::kGetTime, "reply", "BadLength 0", "BadDevice 99"},
    {Opcode::kQueryPhone, "BadMatch 0", "BadLength 0", "BadDevice 99"},
    {Opcode::kEnablePassThrough, "none", "BadLength 0", ""},
    {Opcode::kDisablePassThrough, "none", "BadLength 0", ""},
    {Opcode::kHookSwitch, "BadMatch 0", "BadLength 0", "BadDevice 99"},
    {Opcode::kFlashHook, "BadMatch 0", "BadLength 0", "BadDevice 99"},
    {Opcode::kEnableGainControl, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kDisableGainControl, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kDialPhone, "Obsolete 0", "Obsolete 0", "Obsolete 0"},
    {Opcode::kSetInputGain, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kSetOutputGain, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kQueryInputGain, "reply", "BadLength 0", "BadDevice 99"},
    {Opcode::kQueryOutputGain, "reply", "BadLength 0", "BadDevice 99"},
    {Opcode::kEnableInput, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kEnableOutput, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kDisableInput, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kDisableOutput, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kSetAccessControl, "none", "BadLength 0", ""},
    {Opcode::kChangeHosts, "none", "BadLength 0", ""},
    {Opcode::kListHosts, "reply", "reply", ""},
    {Opcode::kInternAtom, "reply", "BadLength 0", ""},
    {Opcode::kGetAtomName, "reply", "BadLength 0", ""},
    {Opcode::kChangeProperty, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kDeleteProperty, "none", "BadLength 0", "BadDevice 99"},
    {Opcode::kGetProperty, "reply", "BadLength 0", "BadDevice 99"},
    {Opcode::kListProperties, "reply", "BadLength 0", "BadDevice 99"},
    {Opcode::kNoOperation, "none", "none", ""},
    {Opcode::kSyncConnection, "reply", "reply", ""},
    {Opcode::kQueryExtension, "NotImplemented 0", "NotImplemented 0", ""},
    {Opcode::kListExtensions, "NotImplemented 0", "NotImplemented 0", ""},
    {Opcode::kKillClient, "NotImplemented 0", "NotImplemented 0", ""},
    {Opcode::kGetServerStats, "reply", "reply", ""},
    {Opcode::kGetTrace, "reply", "BadLength 0", ""},
    {Opcode::kResyncTime, "reply", "BadLength 0", "BadDevice 99"},
};

TEST_F(TortureTest, DispatchGoldenEveryOpcode) {
  FdStream raw = HostileConnection(nullptr);
  ASSERT_TRUE(torture::RawSetup(raw));
  uint16_t seq = 0;
  ASSERT_EQ(std::size(kDispatchGoldens), size_t{kMaxOpcode - kMinOpcode + 1});
  for (const DispatchGolden& g : kDispatchGoldens) {
    const uint8_t op = static_cast<uint8_t>(g.op);
    EXPECT_EQ(Answer(raw, CanonicalRequest(g.op), &seq), g.canonical) << OpcodeName(g.op);
    EXPECT_EQ(Answer(raw, EmptyBodyRequest(op), &seq), g.empty) << OpcodeName(g.op) << " empty";
    const std::vector<uint8_t> at99 = AtDevice99(g.op);
    EXPECT_EQ(at99.empty() ? "" : Answer(raw, at99, &seq), g.device99)
        << OpcodeName(g.op) << " device 99";
  }
  EXPECT_EQ(Answer(raw, EmptyBodyRequest(0), &seq), "BadRequest 0");
  EXPECT_EQ(Answer(raw, EmptyBodyRequest(kMaxOpcode + 1), &seq), "BadRequest 41");
  ExpectServerAlive();
}

}  // namespace
}  // namespace af
