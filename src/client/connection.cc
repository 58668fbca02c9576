#include "client/connection.h"

#include <poll.h>
#include <stdlib.h>

#include <cstdio>
#include <cstring>

#include "client/audio_context.h"
#include "common/clock.h"
#include "common/log.h"

namespace af {

AFAudioConn::AFAudioConn(FaultStream stream, std::string name)
    : stream_(std::move(stream)), name_(std::move(name)), out_(HostWireOrder()) {
  error_handler_ = [](AFAudioConn& conn, const ErrorPacket& error) {
    std::fprintf(stderr, "AF protocol error on %s: %s (request %s, seq %u)\n",
                 conn.name().c_str(), ErrorText(error.code), OpcodeName(error.opcode),
                 error.seq);
    std::exit(1);
  };
  io_error_handler_ = [](AFAudioConn& conn) {
    std::fprintf(stderr, "AF connection to %s broken\n", conn.name().c_str());
    std::exit(1);
  };
}

AFAudioConn::~AFAudioConn() = default;

Result<std::unique_ptr<AFAudioConn>> AFAudioConn::Open(std::string_view name) {
  std::string resolved(name);
  if (resolved.empty()) {
    if (const char* env = getenv("AUDIOFILE"); env != nullptr && env[0] != '\0') {
      resolved = env;
    } else if (const char* display = getenv("DISPLAY");
               display != nullptr && display[0] != '\0') {
      resolved = display;
    } else {
      return Status(AfError::kBadValue,
                    "no server name: set AUDIOFILE (or DISPLAY) or pass one explicitly");
    }
  }
  const auto addr = ParseServerName(resolved);
  if (!addr.has_value()) {
    return Status(AfError::kBadValue, "malformed server name '" + resolved + "'");
  }
  Result<FdStream> stream = ConnectServer(*addr);
  if (!stream.ok()) {
    return stream.status();
  }
  auto conn = std::unique_ptr<AFAudioConn>(new AFAudioConn(stream.take(), resolved));
  const Status setup = conn->DoSetup();
  if (!setup.ok()) {
    return setup;
  }
  return conn;
}

Result<std::unique_ptr<AFAudioConn>> AFAudioConn::FromStream(FdStream stream,
                                                             std::string name) {
  return FromStream(std::move(stream), nullptr, std::move(name));
}

Result<std::unique_ptr<AFAudioConn>> AFAudioConn::FromStream(
    FdStream stream, std::shared_ptr<FaultSchedule> faults, std::string name) {
  auto conn = std::unique_ptr<AFAudioConn>(new AFAudioConn(
      FaultStream(std::move(stream), std::move(faults)), std::move(name)));
  const Status setup = conn->DoSetup();
  if (!setup.ok()) {
    return setup;
  }
  return conn;
}

Status AFAudioConn::DoSetup() {
  SetupRequest request;
  request.order = HostWireOrder();
  const std::vector<uint8_t> bytes = request.Encode();
  Status s = stream_.WriteAll(bytes.data(), bytes.size());
  if (!s.ok()) {
    return s;
  }

  uint8_t fixed[SetupReply::kFixedBytes];
  s = stream_.ReadAll(fixed, sizeof(fixed));
  if (!s.ok()) {
    return s;
  }
  bool success = false;
  uint32_t additional_words = 0;
  if (!SetupReply::DecodeFixed(fixed, order_, &success, &additional_words)) {
    return Status(AfError::kConnectionLost, "malformed setup reply");
  }
  std::vector<uint8_t> variable(additional_words * 4u);
  s = stream_.ReadAll(variable.data(), variable.size());
  if (!s.ok()) {
    return s;
  }
  if (!SetupReply::DecodeVariable(variable, order_, success, &setup_)) {
    return Status(AfError::kConnectionLost, "malformed setup reply body");
  }
  if (!success) {
    return Status(AfError::kBadAccess, "server refused connection: " + setup_.failure_reason);
  }
  return Status::Ok();
}

const DeviceDesc* AFAudioConn::FindDefaultDevice() const {
  for (const DeviceDesc& dev : setup_.devices) {
    if (dev.inputs_from_phone == 0 && dev.outputs_to_phone == 0) {
      return &dev;
    }
  }
  return nullptr;
}

const DeviceDesc* AFAudioConn::FindDefaultPhoneDevice() const {
  for (const DeviceDesc& dev : setup_.devices) {
    if (dev.inputs_from_phone != 0 || dev.outputs_to_phone != 0) {
      return &dev;
    }
  }
  return nullptr;
}

uint32_t AFAudioConn::AllocResourceId() {
  return setup_.resource_id_base | (next_resource_++ & setup_.resource_id_mask);
}

// ---------------------------------------------------------------------------
// Causal tracing (PR 9)

void AFAudioConn::NoteEnqueue(Opcode op, uint64_t corr, size_t bytes) {
  last_corr_ = corr;
  const uint64_t now = HostMicros();
  PendingCorr& p = pending_[seq_ % kPendingSlots];
  p.seq = seq_;
  p.opcode = static_cast<uint8_t>(op);
  p.corr = corr;
  p.t0_us = now;
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(TraceKind::kClientEnqueue);
  ev.arg = static_cast<uint8_t>(op);
  ev.host_us = now;
  ev.value = bytes;
  ev.corr = corr;
  trace_.Record(ev);
}

void AFAudioConn::NoteReply(uint16_t seq) {
  if (!trace_.enabled()) {
    return;
  }
  PendingCorr& p = pending_[seq % kPendingSlots];
  if (p.seq != seq || p.corr == 0) {
    return;
  }
  const uint64_t now = HostMicros();
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(TraceKind::kClientReply);
  ev.arg = p.opcode;
  ev.host_us = p.t0_us;
  ev.dur_us = now > p.t0_us ? static_cast<uint32_t>(now - p.t0_us) : 0;
  ev.corr = p.corr;
  trace_.Record(ev);
  p.corr = 0;
}

void AFAudioConn::RepointPending(uint16_t old_seq, uint16_t new_seq) {
  PendingCorr& from = pending_[old_seq % kPendingSlots];
  if (from.seq != old_seq || from.corr == 0) {
    return;
  }
  PendingCorr moved = from;
  from.corr = 0;
  moved.seq = new_seq;
  pending_[new_seq % kPendingSlots] = moved;
}

// ---------------------------------------------------------------------------
// Transport plumbing

void AFAudioConn::IOError() {
  if (broken_) {
    return;
  }
  if (in_reconnect_) {
    // A failure during replay dooms this attempt; TryReconnect's loop
    // decides whether to retry. Never recurse or fire the handler here.
    broken_ = true;
    return;
  }
  if (reconnect_.enabled && TryReconnect()) {
    return;  // healed: the connection is live again with the session replayed
  }
  broken_ = true;
  if (io_error_handler_) {
    io_error_handler_(*this);
  }
}

void AFAudioConn::Flush() {
  if (broken_ || out_.size() == 0) {
    return;
  }
  if (trace_.enabled()) {
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kClientFlush);
    ev.host_us = HostMicros();
    ev.value = out_.size();
    ev.corr = last_corr_;
    trace_.Record(ev);
  }
  const Status s = stream_.WriteAll(out_.data().data(), out_.size());
  out_.Reset(kWriterKeepCapacity);
  if (!s.ok()) {
    IOError();
  }
}

void AFAudioConn::MaybeAutoFlush() {
  if (in_reconnect_) {
    return;  // the replay batches its requests; ResyncTime/Sync flush them
  }
  if (synchronous_ && !in_sync_) {
    Sync();
  }
  if (after_fn_ && !in_sync_) {
    after_fn_(*this);
  }
}

Status AFAudioConn::FillFromSocket(bool block) {
  if (broken_) {
    return Status(AfError::kConnectionLost);
  }
  if (!block) {
    struct pollfd pfd = {};
    pfd.fd = stream_.fd();
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 0) <= 0) {
      return Status::Ok();  // nothing available and not blocking
    }
  }
  for (;;) {
    const std::span<uint8_t> tail = in_.Tail();
    const IoResult r = stream_.Read(tail.data(), tail.size());
    switch (r.status) {
      case IoStatus::kOk:
        in_.Commit(r.bytes);
        return Status::Ok();
      case IoStatus::kWouldBlock:
        if (!block) {
          return Status::Ok();
        }
        if (!WaitForFd(stream_.fd(), /*for_read=*/true).ok()) {
          IOError();
          return Status(AfError::kConnectionLost);
        }
        continue;
      case IoStatus::kClosed:
      case IoStatus::kError:
        IOError();
        return Status(AfError::kConnectionLost);
    }
  }
}

std::optional<std::span<const uint8_t>> AFAudioConn::TakePacket() {
  const std::span<const uint8_t> buf = in_.Buffered();
  if (buf.size() < kReplyBaseBytes) {
    return std::nullopt;
  }
  size_t need = kReplyBaseBytes;
  if (buf[0] == kReplyPacketType) {
    ReplyHeader header;
    PeekReplyHeader(buf.first(kReplyBaseBytes), order_, &header);
    need += static_cast<size_t>(header.extra_words) * 4u;
    if (buf.size() < need) {
      return std::nullopt;
    }
  }
  in_.Consume(need);
  return buf.first(need);
}

void AFAudioConn::RouteBufferedPackets() {
  while (auto packet = TakePacket()) {
    RoutePacket(*packet, 0, nullptr, nullptr);
  }
}

void AFAudioConn::DispatchError(const ErrorPacket& error) {
  if (error_handler_) {
    error_handler_(*this, error);
  }
}

void AFAudioConn::RoutePacket(std::span<const uint8_t> packet, uint16_t awaited_seq,
                              bool* got_awaited, std::span<const uint8_t>* awaited_out) {
  const uint8_t type = packet[0];
  if (type >= kMinEventType && type <= kMaxEventType) {
    AEvent event;
    if (AEvent::Decode(packet, order_, &event)) {
      event_queue_.push_back(event);
    }
    return;
  }
  if (type == kErrorPacketType) {
    ErrorPacket error;
    if (ErrorPacket::Decode(packet, order_, &error)) {
      if (got_awaited != nullptr && error.seq == awaited_seq) {
        // The awaited request failed: surface it to the caller rather than
        // the asynchronous error handler.
        *got_awaited = true;
        *awaited_out = {};
        last_awaited_error_ = error;
        return;
      }
      DispatchError(error);
    }
    return;
  }
  if (type == kReplyPacketType && got_awaited != nullptr) {
    ReplyHeader header;
    PeekReplyHeader(packet, order_, &header);
    if (header.seq == awaited_seq) {
      *got_awaited = true;
      *awaited_out = packet;
      return;
    }
  }
  // An unexpected reply: drop it (all replies are awaited synchronously).
}

Result<std::span<const uint8_t>> AFAudioConn::AwaitReply(uint16_t seq) {
  // One reissue is allowed: if the transport dies mid-await and the
  // reconnect machinery heals it, the awaited request's bytes died with
  // the old connection, so they are re-queued verbatim under a new
  // sequence number (request bodies never encode sequence numbers).
  for (int attempt = 0;; ++attempt) {
    const uint64_t gen = reconnects_;
    Flush();
    if (broken_) {
      return Status(AfError::kConnectionLost);
    }
    bool healed = reconnects_ != gen;
    bool got = false;
    std::span<const uint8_t> reply;
    while (!healed && !got) {
      while (!got) {
        auto packet = TakePacket();
        if (!packet.has_value()) {
          break;
        }
        RoutePacket(*packet, seq, &got, &reply);
      }
      if (got) {
        break;
      }
      const Status s = FillFromSocket(/*block=*/true);
      healed = reconnects_ != gen;
      if (!s.ok() && !healed) {
        return s;
      }
    }
    if (got) {
      NoteReply(seq);
      if (reply.empty()) {
        return Status(last_awaited_error_.code,
                      std::string("request ") + OpcodeName(last_awaited_error_.opcode) +
                          " failed");
      }
      return reply;
    }
    // Healed mid-await: reissue once, then give up.
    if (attempt > 0 || seq != last_request_seq_ || last_request_.empty()) {
      return Status(AfError::kConnectionLost);
    }
    out_.Bytes(last_request_.data(), last_request_.size());
    ++seq_;
    ++seq_total_;
    // The verbatim bytes carry the original aux trailer, so the reissued
    // request keeps its correlation ID; follow it in the pending table.
    RepointPending(last_request_seq_, seq_);
    last_request_seq_ = seq_;
    seq = seq_;
  }
}

// ---------------------------------------------------------------------------
// Synchronization, time, contexts

void AFAudioConn::Sync() {
  if (broken_) {
    return;
  }
  in_sync_ = true;
  const uint16_t seq = QueueRequest(Opcode::kSyncConnection, EmptyReq{});
  auto reply = AwaitReply(seq);
  in_sync_ = false;
  (void)reply;
}

void AFAudioConn::NoOp() { QueueRequest(Opcode::kNoOperation, EmptyReq{}); }

Result<ServerStatsWire> AFAudioConn::GetServerStats() {
  const uint16_t seq = QueueRequest(Opcode::kGetServerStats, EmptyReq{});
  auto reply = AwaitReply(seq);
  if (!reply.ok()) {
    return reply.status();
  }
  ServerStatsWire decoded;
  if (!ServerStatsWire::Decode(reply.value(), order_, &decoded)) {
    return Status(AfError::kConnectionLost, "bad GetServerStats reply");
  }
  return decoded;
}

Result<TraceWire> AFAudioConn::GetTrace(uint32_t flags) {
  GetTraceReq req;
  req.flags = flags;
  const uint16_t seq = QueueRequest(Opcode::kGetTrace, req);
  auto reply = AwaitReply(seq);
  if (!reply.ok()) {
    return reply.status();
  }
  TraceWire decoded;
  if (!TraceWire::Decode(reply.value(), order_, &decoded)) {
    return Status(AfError::kConnectionLost, "bad GetTrace reply");
  }
  return decoded;
}

Result<ATime> AFAudioConn::GetTime(DeviceId device) {
  GetTimeReq req;
  req.device = device;
  const uint16_t seq = QueueRequest(Opcode::kGetTime, req);
  auto reply = AwaitReply(seq);
  if (!reply.ok()) {
    return reply.status();
  }
  GetTimeReply decoded;
  if (!GetTimeReply::Decode(reply.value(), order_, &decoded)) {
    return Status(AfError::kConnectionLost, "bad GetTime reply");
  }
  NoteDeviceTime(device, decoded.time);
  return decoded.time;
}

Result<ResyncTimeReply> AFAudioConn::ResyncTime(DeviceId device, ATime client_watermark) {
  ResyncTimeReq req;
  req.device = device;
  req.client_watermark = client_watermark;
  const uint16_t seq = QueueRequest(Opcode::kResyncTime, req);
  auto reply = AwaitReply(seq);
  if (!reply.ok()) {
    return reply.status();
  }
  ResyncTimeReply decoded;
  if (!ResyncTimeReply::Decode(reply.value(), order_, &decoded)) {
    return Status(AfError::kConnectionLost, "bad ResyncTime reply");
  }
  return decoded;
}

Result<AC*> AFAudioConn::CreateAC(DeviceId device, uint32_t value_mask,
                                  const ACAttributes& attrs) {
  if (device >= setup_.devices.size()) {
    return Status(AfError::kBadDevice, "no such device");
  }
  CreateACReq req;
  req.ac = AllocResourceId();
  req.device = device;
  req.value_mask = value_mask;
  req.attrs = attrs;
  QueueRequest(Opcode::kCreateAC, req);

  // Mirror the server's defaulting so the client-side copy is accurate.
  ACAttributes effective = attrs;
  const DeviceDesc& desc = setup_.devices[device];
  if ((value_mask & kACEncodingType) == 0) {
    effective.encoding = desc.play_encoding;
  }
  if ((value_mask & kACChannels) == 0) {
    effective.channels = desc.play_nchannels;
  }
  if ((value_mask & kACPlayGain) == 0) {
    effective.play_gain_db = 0;
  }
  if ((value_mask & kACPreemption) == 0) {
    effective.preempt = 0;
  }
  acs_.push_back(std::unique_ptr<AC>(new AC(this, req.ac, device, effective)));
  return acs_.back().get();
}

void AFAudioConn::FreeAC(AC* ac) {
  if (ac == nullptr) {
    return;
  }
  FreeACReq req;
  req.ac = ac->id();
  QueueRequest(Opcode::kFreeAC, req);
  for (auto it = acs_.begin(); it != acs_.end(); ++it) {
    if (it->get() == ac) {
      acs_.erase(it);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Failover reconnect (PR 8)

AFAudioConn::DeviceReplay& AFAudioConn::ReplaySlot(DeviceId device) {
  if (device >= replay_.size()) {
    replay_.resize(device + 1);
  }
  return replay_[device];
}

void AFAudioConn::NoteDeviceTime(DeviceId device, ATime t) {
  DeviceReplay& r = ReplaySlot(device);
  if (!r.has_watermark || TimeAfter(t, r.watermark)) {
    r.has_watermark = true;
    r.watermark = t;
  }
}

Result<FdStream> AFAudioConn::MakeReconnectStream() {
  if (reconnect_factory_) {
    return reconnect_factory_();
  }
  const auto addr = ParseServerName(name_);
  if (!addr.has_value()) {
    return Status(AfError::kBadValue, "unresolvable server name '" + name_ + "'");
  }
  return ConnectServer(*addr, reconnect_.connect_deadline_ms);
}

bool AFAudioConn::TryReconnect() {
  in_reconnect_ = true;
  int backoff = reconnect_.backoff_ms;
  for (int attempt = 0; attempt < reconnect_.max_attempts; ++attempt) {
    if (attempt > 0 && backoff > 0) {
      (void)::poll(nullptr, 0, backoff);
      backoff *= 2;
    }
    Result<FdStream> fresh = MakeReconnectStream();
    if (!fresh.ok()) {
      continue;
    }
    stream_ = FaultStream(fresh.take());
    broken_ = false;
    in_.Clear();
    out_.Reset(kWriterKeepCapacity);
    seq_ = 0;
    next_resource_ = 0;  // the new connection assigns a new id base
    if (!DoSetup().ok() || broken_) {
      broken_ = true;
      continue;
    }
    ReplaySession();
    if (broken_) {
      continue;
    }
    ++reconnects_;
    in_reconnect_ = false;
    return true;
  }
  in_reconnect_ = false;
  return false;
}

void AFAudioConn::ReplaySession() {
  // Audio contexts first: each live AC gets a fresh resource id under the
  // new connection's id base and is recreated with its full attribute set
  // (the client-side mirror), so the server copy is bit-equal to the one
  // that died.
  for (auto& ac : acs_) {
    CreateACReq req;
    req.ac = AllocResourceId();
    req.device = ac->device_;
    req.value_mask = kACPlayGain | kACRecordGain | kACPreemption | kACEndian |
                     kACEncodingType | kACChannels;
    req.attrs = ac->attrs_;
    ac->id_ = req.ac;
    QueueRequest(Opcode::kCreateAC, req);
  }
  // Device settings: gains, then the absolute connector masks (enable the
  // recorded mask, disable its complement), then event selections.
  for (size_t d = 0; d < replay_.size(); ++d) {
    const DeviceReplay& r = replay_[d];
    const DeviceId device = static_cast<DeviceId>(d);
    if (r.has_input_gain) {
      SetGainReq req;
      req.device = device;
      req.gain_db = r.input_gain_db;
      QueueRequest(Opcode::kSetInputGain, req);
    }
    if (r.has_output_gain) {
      SetGainReq req;
      req.device = device;
      req.gain_db = r.output_gain_db;
      QueueRequest(Opcode::kSetOutputGain, req);
    }
    if (r.has_input_mask) {
      IOEnableReq req;
      req.device = device;
      req.mask = r.input_mask;
      QueueRequest(Opcode::kEnableInput, req);
      req.mask = ~r.input_mask;
      QueueRequest(Opcode::kDisableInput, req);
    }
    if (r.has_output_mask) {
      IOEnableReq req;
      req.device = device;
      req.mask = r.output_mask;
      QueueRequest(Opcode::kEnableOutput, req);
      req.mask = ~r.output_mask;
      QueueRequest(Opcode::kDisableOutput, req);
    }
    if (r.has_event_mask) {
      SelectEventsReq req;
      req.device = device;
      req.mask = r.event_mask;
      QueueRequest(Opcode::kSelectEvents, req);
    }
  }
  // Re-anchor device time: one ResyncTime round trip per device the client
  // held a watermark for. The difference between the new server's clock
  // and the watermark is the measured audio gap the outage cost.
  bool resynced = false;
  for (size_t d = 0; d < replay_.size(); ++d) {
    DeviceReplay& r = replay_[d];
    if (!r.has_watermark) {
      continue;
    }
    resynced = true;
    auto reply = ResyncTime(static_cast<DeviceId>(d), r.watermark);
    if (!reply.ok()) {
      return;  // transport failure set broken_; the attempt loop retries
    }
    if (TimeAfter(reply.value().server_time, r.watermark)) {
      resync_gap_samples_ +=
          static_cast<uint64_t>(TimeDelta(reply.value().server_time, r.watermark));
      // Forward-only, like NoteDeviceTime: a promoted server whose clock is
      // behind must not rewind the watermark, or a second failover would
      // report a stale client_watermark and under-measure the gap.
      r.watermark = reply.value().server_time;
    }
    promoted_peer_ = reply.value().promoted != 0;
  }
  if (!resynced) {
    Sync();  // still round-trip once so a dead "fresh" connection is caught
  }
}

}  // namespace af
