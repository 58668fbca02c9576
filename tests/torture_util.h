// Shared plumbing for the protocol-torture suites: a deterministic
// "server drained" barrier (no sleeps anywhere in the hostile-network
// tests), raw-connection setup helpers, and environment knobs that let CI
// dial the soak depth up without editing code.
#ifndef AF_TESTS_TORTURE_UTIL_H_
#define AF_TESTS_TORTURE_UTIL_H_

#include <poll.h>
#include <sys/socket.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "clients/server_runner.h"
#include "server/shard.h"
#include "proto/framing.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/trace_wire.h"

namespace af {
namespace torture {

// A canonical, well-formed request for every opcode. The torture sweep
// cuts these at every byte boundary, and the decoder test round-trips each
// through the wire decoder; keeping the corpus here means a new opcode
// fails both suites (via the exhaustive switch) until it is added.
inline std::vector<uint8_t> CanonicalRequest(Opcode op) {
  static const uint8_t sample_data[32] = {0x7F};
  WireWriter w;
  const size_t header = BeginRequest(w, op);
  switch (op) {
    case Opcode::kSelectEvents:
      SelectEventsReq{}.Encode(w);
      break;
    case Opcode::kCreateAC:
      CreateACReq{}.Encode(w);
      break;
    case Opcode::kChangeACAttributes:
      ChangeACAttributesReq{}.Encode(w);
      break;
    case Opcode::kFreeAC:
      FreeACReq{}.Encode(w);
      break;
    case Opcode::kPlaySamples: {
      PlaySamplesReq req;
      req.nbytes = sizeof(sample_data);
      req.data = sample_data;
      req.Encode(w);
      break;
    }
    case Opcode::kRecordSamples: {
      RecordSamplesReq req;
      req.nbytes = 64;
      req.flags = kRecordNoBlock;
      req.Encode(w);
      break;
    }
    case Opcode::kGetTime:
      GetTimeReq{}.Encode(w);
      break;
    case Opcode::kResyncTime: {
      ResyncTimeReq req;
      req.client_watermark = 48000;
      req.Encode(w);
      break;
    }
    case Opcode::kQueryPhone:
      QueryPhoneReq{}.Encode(w);
      break;
    case Opcode::kEnablePassThrough:
    case Opcode::kDisablePassThrough:
      PassThroughReq{}.Encode(w);
      break;
    case Opcode::kHookSwitch:
      HookSwitchReq{}.Encode(w);
      break;
    case Opcode::kFlashHook:
      FlashHookReq{}.Encode(w);
      break;
    case Opcode::kEnableGainControl:
    case Opcode::kDisableGainControl:
      GainControlReq{}.Encode(w);
      break;
    case Opcode::kDialPhone: {
      DialPhoneReq req;
      req.number = "5551212";
      req.Encode(w);
      break;
    }
    case Opcode::kSetInputGain:
    case Opcode::kSetOutputGain:
      SetGainReq{}.Encode(w);
      break;
    case Opcode::kQueryInputGain:
    case Opcode::kQueryOutputGain:
      QueryGainReq{}.Encode(w);
      break;
    case Opcode::kEnableInput:
    case Opcode::kEnableOutput:
    case Opcode::kDisableInput:
    case Opcode::kDisableOutput:
      IOEnableReq{}.Encode(w);
      break;
    case Opcode::kSetAccessControl:
      SetAccessControlReq{}.Encode(w);
      break;
    case Opcode::kChangeHosts: {
      ChangeHostsReq req;
      req.address = {127, 0, 0, 1};
      req.Encode(w);
      break;
    }
    case Opcode::kInternAtom: {
      InternAtomReq req;
      req.name = "TORTURE";
      req.Encode(w);
      break;
    }
    case Opcode::kGetAtomName: {
      GetAtomNameReq req;
      req.atom = 1;
      req.Encode(w);
      break;
    }
    case Opcode::kChangeProperty: {
      ChangePropertyReq req;
      req.property = 1;
      req.type = 1;
      req.data = {'t', 'o', 'r', 't', 'u', 'r', 'e', '!'};
      req.Encode(w);
      break;
    }
    case Opcode::kDeleteProperty:
      DeletePropertyReq{}.Encode(w);
      break;
    case Opcode::kGetProperty:
      GetPropertyReq{}.Encode(w);
      break;
    case Opcode::kListProperties:
      ListPropertiesReq{}.Encode(w);
      break;
    case Opcode::kListHosts:
    case Opcode::kNoOperation:
    case Opcode::kSyncConnection:
    case Opcode::kListExtensions:
    case Opcode::kGetServerStats:
      break;  // empty bodies
    case Opcode::kGetTrace:
      GetTraceReq{}.Encode(w);
      break;
    case Opcode::kQueryExtension: {
      QueryExtensionReq req;
      req.name = "NOT-AN-EXTENSION";
      req.Encode(w);
      break;
    }
    case Opcode::kKillClient:
      KillClientReq{}.Encode(w);
      break;
  }
  EndRequest(w, header);
  return w.Take();
}

// Deterministic server-drained barrier. Each pass drives every shard
// through at least one full poll/dispatch iteration: a RunOnLoop round
// trip for shard 0, plus a posted no-op awaited on every other shard, so a
// connection whose socket holds pending bytes (or an EOF, or a message
// sitting in an inbox) makes at least one hop of progress per pass even
// when the host's scheduler starves the shard threads; polling
// the client count through it converges without a single sleep. Returns
// the last observed count (== expected on success; callers print the
// fault trace on mismatch).
inline size_t DrainToClientCount(ServerRunner& runner, size_t expected,
                                 int max_iterations = 20000) {
  auto& srv = runner.server();
  const size_t shards = srv.num_shards();
  size_t count = static_cast<size_t>(-1);
  for (int i = 0; i < max_iterations; ++i) {
    runner.RunOnLoop([&] { count = srv.client_count(); });
    if (count == expected) {
      break;
    }
    if (shards > 1) {
      std::mutex mu;
      std::condition_variable cv;
      size_t done = 0;
      for (uint32_t s = 1; s < shards; ++s) {
        srv.PostToShard(s, [&] {
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          cv.notify_one();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == shards - 1; });
    }
  }
  if (count != expected && std::getenv("AF_TORTURE_DEBUG") != nullptr) {
    for (size_t s = 0; s < shards; ++s) {
      Shard* sh = srv.shard(s);
      std::fprintf(stderr,
                   "shard %zu: clients=%zu iters=%llu posted=%llu drained=%llu "
                   "wakes=%llu\n",
                   s, sh->client_count(),
                   (unsigned long long)sh->metrics().loop_iterations.Value(),
                   (unsigned long long)sh->metrics().cross_shard_posted.Value(),
                   (unsigned long long)sh->metrics().cross_shard_drained.Value(),
                   (unsigned long long)sh->metrics().mailbox_wakes.Value());
    }
  }
  return count;
}

// Reads the next whole server-to-client message on a raw
// (library-bypassing) stream into *msg, framed by FrameServerMessage: the
// setup reply unless setup_done, else a unit with any extra data. Each wait
// for bytes lasts at most timeout_ms, so a server that never answers fails
// the test instead of hanging it. It peeks before it reads and never reads
// past the message, so the next call starts at the next one. False on a
// timeout, EOF or error.
inline bool ReadServerMessage(FdStream& raw, bool setup_done, std::vector<uint8_t>* msg,
                              WireOrder order = HostWireOrder(), int timeout_ms = 10000) {
  constexpr size_t kPeekBytes = 65536;
  msg->clear();
  for (;;) {
    struct pollfd pfd = {raw.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return false;
    }
    const size_t had = msg->size();
    msg->resize(had + kPeekBytes);
    const ssize_t peeked = ::recv(raw.fd(), msg->data() + had, kPeekBytes, MSG_PEEK);
    if (peeked <= 0) {
      return false;
    }
    msg->resize(had + static_cast<size_t>(peeked));
    // While the message is incomplete, every byte there belongs to it.
    const size_t total = FrameServerMessage(*msg, setup_done, order);
    if (total != kFrameNeedMore) {
      msg->resize(total);
    }
    if (!raw.ReadAll(msg->data() + had, msg->size() - had).ok()) {
      return false;
    }
    if (total != kFrameNeedMore) {
      return true;
    }
  }
}

// Writes a setup request in `order` on a raw stream and reads the reply
// through ReadServerMessage. True when the server accepted; the decoded
// reply lands in *reply when one is given.
inline bool RawSetup(FdStream& raw, SetupReply* reply = nullptr,
                     WireOrder order = HostWireOrder()) {
  SetupRequest setup;
  setup.order = order;
  const auto bytes = setup.Encode();
  std::vector<uint8_t> msg;
  SetupReply decoded;
  if (!raw.WriteAll(bytes.data(), bytes.size()).ok() ||
      !ReadServerMessage(raw, /*setup_done=*/false, &msg, order) ||
      !SetupReply::Decode(msg, order, &decoded)) {
    return false;
  }
  if (reply != nullptr) {
    *reply = decoded;
  }
  return decoded.success;
}

// Soak depth knobs: scripts/ci.sh raises AF_TORTURE_ROUNDS for the
// sanitizer soak; AF_TORTURE_SEED replays a specific failing walk.
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoi(v) : fallback;
}

}  // namespace torture
}  // namespace af

#endif  // AF_TESTS_TORTURE_UTIL_H_
