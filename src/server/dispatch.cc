// The request dispatcher: the table of protocol request handlers the DIA
// main loop indexes by opcode (CRL 93/8 Section 7.3.1). The switch expands
// from AF_REQUESTS (proto/opcodes.h); each row decodes its body and checks
// its device at one site, then runs the one handler of its body type. Runs
// on the client's home shard; a handler that touches a device holds the
// owning shard's device lock (LockDevice) through the device call and the
// reply encode.
#include <mutex>
#include <optional>

#include "common/clock.h"
#include "common/log.h"
#include "server/shard.h"

namespace af {

void Shard::SendError(ClientConn& client, AfError code, Opcode opcode, uint32_t value) {
  ErrorPacket pkt;
  pkt.code = code;
  pkt.seq = client.seq();
  pkt.opcode = opcode;
  pkt.value = value;
  pkt.Encode(client.out());
  metrics_.errors_sent.Add();
  metrics_.errors_by_code[static_cast<uint8_t>(code) % kErrorCodeSlots].Add();
}

bool Shard::BuildACOps(const Request& rq, AudioDevice& device, const ACAttributes& attrs,
                       ACOps* ops) {
  const auto lock = LockDevice(device.id());
  if (static_cast<uint32_t>(attrs.encoding) >= kNumEncodeTypes) {
    SendError(rq.client, AfError::kBadValue, rq.op, static_cast<uint32_t>(attrs.encoding));
    return false;
  }
  const Status s = device.MakeACOps(attrs, ops);
  if (!s.ok()) {
    SendError(rq.client, s.code(), rq.op);
    return false;
  }
  return true;
}

template <>
void Shard::Handle(const Request& rq, SelectEventsReq& req) {
  ClientConn& c = rq.client;
  c.SelectEvents(req.device, req.mask & kAllEventsMask);
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kSelectEvents);
  rec.client = c.client_number();
  rec.device = req.device + 1;
  rec.value = req.mask & kAllEventsMask;
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, CreateACReq& req) {
  ClientConn& c = rq.client;
  if (!c.OwnsResourceId(req.ac) || acs_.count(req.ac) != 0) {
    return SendError(c, AfError::kBadIDChoice, rq.op, req.ac);
  }
  AudioDevice* dev = devices_[req.device].get();
  ServerAC ac;
  ac.id = req.ac;
  ac.device = dev;
  // Unset attributes default; channels/encoding default to the device's.
  ac.attrs = ApplyACAttributes(
      {.encoding = dev->desc().play_encoding, .channels = dev->desc().play_nchannels},
      req.value_mask, req.attrs);
  if (!BuildACOps(rq, *dev, ac.attrs, &ac.ops)) {
    return;
  }
  // The record carries the full effective attribute set (defaults
  // resolved), so the backup's shadow never has to re-derive them.
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kACCreate);
  rec.client = c.client_number();
  rec.device = req.device + 1;
  rec.ac = req.ac;
  rec.value_mask = req.value_mask;
  rec.attrs = ac.attrs;
  acs_.emplace(req.ac, std::move(ac));
  c.acs().insert(req.ac);
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, ChangeACAttributesReq& req) {
  ClientConn& c = rq.client;
  ServerAC* ac = FindAC(req.ac);
  if (ac == nullptr || c.acs().count(req.ac) == 0) {
    return SendError(c, AfError::kBadAC, rq.op, req.ac);
  }
  const ACAttributes attrs = ApplyACAttributes(ac->attrs, req.value_mask, req.attrs);
  if (req.value_mask & (kACEncodingType | kACChannels)) {
    ACOps ops;
    if (!BuildACOps(rq, *ac->device, attrs, &ops)) {
      return;
    }
    ac->ops = std::move(ops);
  }
  ac->attrs = attrs;
  // Replicate the full post-change set (not the client's sparse mask):
  // the backup shadow applies by plain overwrite.
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kACChange);
  rec.client = c.client_number();
  rec.device = static_cast<uint32_t>(ac->device->id()) + 1;
  rec.ac = req.ac;
  rec.value_mask = req.value_mask;
  rec.attrs = attrs;
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, FreeACReq& req) {
  ClientConn& c = rq.client;
  const auto it = acs_.find(req.ac);
  if (it == acs_.end() || c.acs().count(req.ac) == 0) {
    return SendError(c, AfError::kBadAC, rq.op, req.ac);
  }
  if (it->second.recording) {
    const auto lock = LockDevice(it->second.device->id());
    it->second.device->ReleaseRecordRef();
  }
  acs_.erase(it);
  c.acs().erase(req.ac);
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kACFree);
  rec.client = c.client_number();
  rec.ac = req.ac;
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, PlaySamplesReq& req) {
  ClientConn& c = rq.client;
  ServerAC* ac = FindAC(req.ac);
  if (ac == nullptr) {
    return SendError(c, AfError::kBadAC, rq.op, req.ac);
  }
  const auto lock = LockDevice(ac->device->id());
  const size_t progress = rq.resumed != nullptr ? rq.resumed->play_progress : 0;
  const ATime adj_start =
      req.start_time + static_cast<ATime>(ac->ops.client_bytes_to_frames(progress));
  const bool big_endian = (req.flags & kPlayBigEndianData) != 0;
  PlayOutcome outcome;
  const Status s = ac->device->Play(*ac, adj_start, req.data.subspan(progress),
                                    big_endian, &outcome);
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op);
  }
  if (outcome.would_block) {
    SuspendClient(rq.client_ptr, rq.header, rq.body, progress + outcome.consumed_client_bytes,
                  *ac->device, outcome.resume_time);
    return;
  }
  if ((req.flags & kPlaySuppressReply) == 0) {
    PlaySamplesReply reply;
    reply.time = outcome.device_time;
    reply.Encode(c.out(), c.seq());
  }
  // Watermark: how far this device's clock had advanced when the play
  // completed. After a failover the promoted backup fast-forwards the
  // device clock at least this far so resumed streams never rewind.
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kWatermark);
  rec.client = c.client_number();
  rec.device = static_cast<uint32_t>(ac->device->id()) + 1;
  rec.value = outcome.device_time;
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, RecordSamplesReq& req) {
  ClientConn& c = rq.client;
  ServerAC* ac = FindAC(req.ac);
  if (ac == nullptr) {
    return SendError(c, AfError::kBadAC, rq.op, req.ac);
  }
  if (req.nbytes > kMaxRequestBytes) {
    return SendError(c, AfError::kBadValue, rq.op, req.nbytes);
  }
  const bool no_block = (req.flags & kRecordNoBlock) != 0;
  const bool big_endian = (req.flags & kRecordBigEndianData) != 0;
  // The span aliases the device's scratch arena; the lock stays held
  // until it is serialized into the connection's output buffer.
  const auto lock = LockDevice(ac->device->id());
  std::span<const uint8_t> data;
  RecordOutcome outcome;
  const Status s = ac->device->Record(*ac, req.start_time, req.nbytes, big_endian,
                                      no_block, &data, &outcome);
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op);
  }
  if (outcome.would_block) {
    SuspendClient(rq.client_ptr, rq.header, rq.body, 0, *ac->device, outcome.ready_time);
    return;
  }
  RecordSamplesReply::EncodeTo(c.out(), c.seq(), outcome.device_time, data);
  // Record-only clients observe device time too; replicate it so a
  // promoted backup's clock is never behind a time this reply handed out.
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kWatermark);
  rec.client = c.client_number();
  rec.device = static_cast<uint32_t>(ac->device->id()) + 1;
  rec.value = outcome.device_time;
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, GetTimeReq& req) {
  ClientConn& c = rq.client;
  const auto lock = LockDevice(req.device);
  GetTimeReply reply;
  reply.time = devices_[req.device]->GetTime();
  reply.Encode(c.out(), c.seq());
  // GetTime hands a device time to the client like a play/record reply
  // does, so it must push the replicated watermark forward as well.
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kWatermark);
  rec.client = c.client_number();
  rec.device = req.device + 1;
  rec.value = reply.time;
  EmitOplog(rec);
}

// Failover re-anchor: a reconnecting client reports the last device
// time it observed before the old server died; the reply carries this
// server's current clock plus its promotion state so the client can measure
// the audio gap the outage cost it.
template <>
void Shard::Handle(const Request& rq, ResyncTimeReq& req) {
  ClientConn& c = rq.client;
  metrics_.resyncs.Add();
  const auto lock = LockDevice(req.device);
  ResyncTimeReply reply;
  reply.server_time = devices_[req.device]->GetTime();
  reply.promoted_watermark = server_.promoted_watermark(req.device);
  reply.promoted = server_.promoted() ? 1 : 0;
  uint64_t gap = 0;
  if (req.client_watermark != 0 &&
      TimeAfter(reply.server_time, req.client_watermark)) {
    gap = static_cast<uint64_t>(
        TimeDelta(reply.server_time, req.client_watermark));
  }
  if (trace_.enabled()) {
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kResync);
    ev.arg = static_cast<uint8_t>(req.device);
    ev.conn = c.client_number();
    ev.host_us = HostMicros();
    ev.value = gap;
    // A replayed resync keeps the correlation ID the client minted
    // before the failover, tying the re-anchor to the original request.
    ev.corr = CurrentTraceCorr();
    trace_.Record(ev);
  }
  reply.Encode(c.out(), c.seq());
}

template <>
void Shard::Handle(const Request& rq, QueryPhoneReq& req) {
  ClientConn& c = rq.client;
  bool off_hook = false;
  bool loop = false;
  const auto lock = LockDevice(req.device);
  const Status s = devices_[req.device]->QueryPhone(&off_hook, &loop);
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op);
  }
  QueryPhoneReply reply;
  reply.off_hook = off_hook ? 1 : 0;
  reply.loop_current = loop ? 1 : 0;
  reply.Encode(c.out(), c.seq());
}

// EnablePassThrough / DisablePassThrough.
template <>
void Shard::Handle(const Request& rq, PassThroughReq& req) {
  ClientConn& c = rq.client;
  // The pair has no single device field for the range check every other
  // device request gets before its handler; its error carries no value.
  if (req.device_a >= devices_.size() || req.device_b >= devices_.size()) {
    return SendError(c, AfError::kBadDevice, rq.op);
  }
  // Pass-through wires two devices' update paths together; both must
  // share an owner, so one device lock covers the pair.
  if (server_.device_owner(req.device_a) != server_.device_owner(req.device_b)) {
    return SendError(c, AfError::kBadMatch, rq.op, req.device_b);
  }
  const bool enable = rq.op == Opcode::kEnablePassThrough;
  const auto lock = LockDevice(req.device_a);
  const Status s =
      devices_[req.device_a]->SetPassThrough(devices_[req.device_b].get(), enable);
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op);
  }
}

template <>
void Shard::Handle(const Request& rq, HookSwitchReq& req) {
  const auto lock = LockDevice(req.device);
  const Status s = devices_[req.device]->HookSwitch(req.off_hook != 0);
  if (!s.ok()) {
    return SendError(rq.client, s.code(), rq.op);
  }
}

template <>
void Shard::Handle(const Request& rq, FlashHookReq& req) {
  const auto lock = LockDevice(req.device);
  const Status s = devices_[req.device]->FlashHook(req.duration_ms);
  if (!s.ok()) {
    return SendError(rq.client, s.code(), rq.op);
  }
}

// EnableGainControl / DisableGainControl.
template <>
void Shard::Handle(const Request& rq, GainControlReq& req) {
  const auto lock = LockDevice(req.device);
  const Status s =
      devices_[req.device]->SetGainControl(rq.op == Opcode::kEnableGainControl);
  if (!s.ok()) {
    return SendError(rq.client, s.code(), rq.op);
  }
}

// SetInputGain / SetOutputGain.
template <>
void Shard::Handle(const Request& rq, SetGainReq& req) {
  ClientConn& c = rq.client;
  AudioDevice* dev = devices_[req.device].get();
  const bool input = rq.op == Opcode::kSetInputGain;
  const auto lock = LockDevice(req.device);
  const Status s = input ? dev->SetInputGain(req.gain_db)
                         : dev->SetOutputGain(req.gain_db);
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op, static_cast<uint32_t>(req.gain_db));
  }
  // Replicate the gain the device settled on (it may clamp), not the
  // requested one.
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(input ? OplogType::kInputGain
                                         : OplogType::kOutputGain);
  rec.client = c.client_number();
  rec.device = req.device + 1;
  rec.value = static_cast<uint64_t>(static_cast<int64_t>(
      input ? dev->input_gain_db() : dev->output_gain_db()));
  EmitOplog(rec);
}

// QueryInputGain / QueryOutputGain.
template <>
void Shard::Handle(const Request& rq, QueryGainReq& req) {
  ClientConn& c = rq.client;
  const auto lock = LockDevice(req.device);
  QueryGainReply reply;
  reply.gain_db = rq.op == Opcode::kQueryInputGain ? devices_[req.device]->input_gain_db()
                                                   : devices_[req.device]->output_gain_db();
  reply.min_db = kGainMinDb;
  reply.max_db = kGainMaxDb;
  reply.Encode(c.out(), c.seq());
}

// EnableInput / EnableOutput / DisableInput / DisableOutput.
template <>
void Shard::Handle(const Request& rq, IOEnableReq& req) {
  ClientConn& c = rq.client;
  AudioDevice* dev = devices_[req.device].get();
  const auto lock = LockDevice(req.device);
  Status s;
  switch (rq.op) {
    case Opcode::kEnableInput:
      s = dev->EnableInput(req.mask);
      break;
    case Opcode::kEnableOutput:
      s = dev->EnableOutput(req.mask);
      break;
    case Opcode::kDisableInput:
      s = dev->DisableInput(req.mask);
      break;
    default:
      s = dev->DisableOutput(req.mask);
      break;
  }
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op);
  }
  // Replicate the resulting absolute mask (enable and disable collapse
  // to one record type per direction; the shadow holds the final mask).
  const bool input = rq.op == Opcode::kEnableInput || rq.op == Opcode::kDisableInput;
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(input ? OplogType::kEnableInput
                                         : OplogType::kEnableOutput);
  rec.client = c.client_number();
  rec.device = req.device + 1;
  rec.value = input ? dev->input_enable_mask() : dev->output_enable_mask();
  EmitOplog(rec);
}

template <>
void Shard::Handle(const Request& rq, SetAccessControlReq& req) {
  if (!rq.client.peer().IsLocal()) {
    return SendError(rq.client, AfError::kBadAccess, rq.op);
  }
  std::lock_guard<std::mutex> lock(shared_mu_);
  access_.SetEnabled(req.enabled != 0);
}

template <>
void Shard::Handle(const Request& rq, ChangeHostsReq& req) {
  if (!rq.client.peer().IsLocal()) {
    return SendError(rq.client, AfError::kBadAccess, rq.op);
  }
  std::lock_guard<std::mutex> lock(shared_mu_);
  if (req.mode == HostChangeMode::kInsert) {
    access_.AddHost(static_cast<uint16_t>(req.family), std::move(req.address));
  } else {
    access_.RemoveHost(static_cast<uint16_t>(req.family), req.address);
  }
}

template <>
void Shard::Handle(const Request& rq, InternAtomReq& req) {
  ClientConn& c = rq.client;
  InternAtomReply reply;
  {
    std::lock_guard<std::mutex> lock(shared_mu_);
    reply.atom = atoms_.Intern(req.name, req.only_if_exists != 0);
  }
  reply.Encode(c.out(), c.seq());
}

template <>
void Shard::Handle(const Request& rq, GetAtomNameReq& req) {
  ClientConn& c = rq.client;
  std::optional<std::string> name;
  {
    std::lock_guard<std::mutex> lock(shared_mu_);
    name = atoms_.NameOf(req.atom);
  }
  if (!name.has_value()) {
    return SendError(c, AfError::kBadAtom, rq.op, req.atom);
  }
  GetAtomNameReply reply;
  reply.name = *name;
  reply.Encode(c.out(), c.seq());
}

template <>
void Shard::Handle(const Request& rq, ChangePropertyReq& req) {
  bool atoms_ok;
  {
    std::lock_guard<std::mutex> lock(shared_mu_);
    atoms_ok = atoms_.Exists(req.property) && atoms_.Exists(req.type);
  }
  if (!atoms_ok) {
    return SendError(rq.client, AfError::kBadAtom, rq.op, req.property);
  }
  const auto lock = LockDevice(req.device);
  const Status s = properties_[req.device]->Change(req.property, req.type, req.format,
                                                   req.mode, std::move(req.data));
  if (!s.ok()) {
    return SendError(rq.client, s.code(), rq.op);
  }
}

template <>
void Shard::Handle(const Request& rq, DeletePropertyReq& req) {
  const auto lock = LockDevice(req.device);
  const Status s = properties_[req.device]->Delete(req.property);
  if (!s.ok()) {
    return SendError(rq.client, s.code(), rq.op);
  }
}

template <>
void Shard::Handle(const Request& rq, GetPropertyReq& req) {
  ClientConn& c = rq.client;
  GetPropertyReply reply;
  const auto lock = LockDevice(req.device);
  const Status s = properties_[req.device]->Get(req.property, req.type, req.long_offset,
                                                req.long_length, req.do_delete != 0,
                                                &reply);
  if (!s.ok()) {
    return SendError(c, s.code(), rq.op);
  }
  reply.Encode(c.out(), c.seq());
}

template <>
void Shard::Handle(const Request& rq, ListPropertiesReq& req) {
  ClientConn& c = rq.client;
  const auto lock = LockDevice(req.device);
  ListPropertiesReply reply;
  reply.atoms = properties_[req.device]->List();
  reply.Encode(c.out(), c.seq());
}

// ListHosts / NoOperation / SyncConnection / GetServerStats (ListExtensions
// answers before any decode).
template <>
void Shard::Handle(const Request& rq, EmptyReq&) {
  ClientConn& c = rq.client;
  switch (rq.op) {
    case Opcode::kListHosts: {
      ListHostsReply reply;
      {
        std::lock_guard<std::mutex> lock(shared_mu_);
        reply.enabled = access_.enabled() ? 1 : 0;
        reply.hosts = access_.hosts();
      }
      reply.Encode(c.out(), c.seq());
      return;
    }
    case Opcode::kSyncConnection:
      EmptyReply{}.Encode(c.out(), c.seq());
      return;
    case Opcode::kGetServerStats: {
      ServerStatsWire stats;
      server_.AggregateStats(&stats, this);
      stats.Encode(c.out(), c.seq());
      return;
    }
    default:  // NoOperation
      return;
  }
}

// Every shard's window drains on its own thread; with one shard the reply
// encodes at once, otherwise when the last window lands (FinishTraceGather).
template <>
void Shard::Handle(const Request& rq, GetTraceReq& req) {
  StartTraceGather(rq, req.flags);
}

template <typename Body, Opcode Op>
void Shard::DispatchRow(const Request& rq) {
  if constexpr (Op == Opcode::kDialPhone) {
    // Retired: clients dial by synthesizing DTMF with device-time-exact
    // playback (Section 5.5). Like the rows below it answers the same
    // whatever the body, so nothing is decoded.
    SendError(rq.client, AfError::kObsolete, Op);
  } else if constexpr (Op == Opcode::kQueryExtension || Op == Opcode::kListExtensions ||
                       Op == Opcode::kKillClient) {
    SendError(rq.client, AfError::kNotImplemented, Op);
  } else {
    Body req;
    WireReader r(rq.body, rq.client.order());
    if (!Body::Decode(r, &req)) {
      return SendError(rq.client, AfError::kBadLength, Op);
    }
    if constexpr (requires { req.device; }) {
      if (req.device >= devices_.size()) {
        return SendError(rq.client, AfError::kBadDevice, Op, req.device);
      }
    }
    Handle(rq, req);
  }
}

void Shard::DispatchRequest(const std::shared_ptr<ClientConn>& client,
                            const RequestHeader& header, std::span<const uint8_t> body,
                            ClientConn::Suspended* resumed) {
  const Request rq{*client, client, header, header.opcode, body, resumed};
  switch (header.opcode) {
#define AF_DISPATCH_ROW(value, name, body_type) \
  case Opcode::k##name:                         \
    return DispatchRow<body_type, Opcode::k##name>(rq);
    AF_REQUESTS(AF_DISPATCH_ROW)
#undef AF_DISPATCH_ROW
  }
  SendError(*client, AfError::kBadRequest, header.opcode,
            static_cast<uint32_t>(header.opcode));
}

}  // namespace af
