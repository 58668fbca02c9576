#include "proto/requests.h"

#include "common/log.h"

namespace af {

// ---------------------------------------------------------------------------
// Misc table lookups declared in types.h

const SampleTypeInfo& SampleTypeOf(AEncodeType type) {
  static const SampleTypeInfo kTable[kNumEncodeTypes] = {
      {8, 1, 1, "MU255"},      {8, 1, 1, "ALAW"},      {16, 2, 1, "LIN16"},
      {32, 4, 1, "LIN32"},     {4, 1, 2, "ADPCM32"},   {3, 3, 8, "ADPCM24"},
      {2, 4, 16, "CELP1016"},  {2, 4, 16, "CELP1015"},
  };
  const uint32_t idx = static_cast<uint32_t>(type);
  if (idx >= kNumEncodeTypes) {
    FatalError("SampleTypeOf: bad encoding %u", idx);
  }
  return kTable[idx];
}

size_t SamplesToBytes(AEncodeType type, size_t nsamples, unsigned nchannels) {
  const SampleTypeInfo& info = SampleTypeOf(type);
  const size_t frames = nsamples * nchannels;
  const size_t units = (frames + info.samps_per_unit - 1) / info.samps_per_unit;
  return units * info.bytes_per_unit;
}

size_t BytesToSamples(AEncodeType type, size_t nbytes, unsigned nchannels) {
  const SampleTypeInfo& info = SampleTypeOf(type);
  const size_t units = nbytes / info.bytes_per_unit;
  return units * info.samps_per_unit / (nchannels == 0 ? 1 : nchannels);
}

uint32_t EventMaskFor(EventType type) {
  switch (type) {
    case EventType::kPhoneRing: return kPhoneRingMask;
    case EventType::kPhoneDTMF: return kPhoneDTMFMask;
    case EventType::kPhoneLoop: return kPhoneLoopMask;
    case EventType::kHookSwitch: return kHookSwitchMask;
    case EventType::kPropertyChange: return kPropertyChangeMask;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Request framing

size_t BeginRequest(WireWriter& w, Opcode op, uint8_t ext) {
  const size_t offset = w.size();
  w.U8(static_cast<uint8_t>(op));
  w.U8(ext);
  w.U16(0);  // length placeholder
  return offset;
}

void EndRequest(WireWriter& w, size_t header_offset) {
  w.AlignPad();
  const size_t total = w.size() - header_offset;
  if (total > kMaxRequestBytes) {
    FatalError("EndRequest: request of %zu bytes exceeds protocol maximum", total);
  }
  w.PatchU16(header_offset + 2, static_cast<uint16_t>(total / 4));
}

bool DecodeRequestHeader(WireReader& r, RequestHeader* out) {
  const uint8_t op = r.U8();
  out->ext = r.U8();
  out->length_words = r.U16();
  if (!r.ok()) {
    return false;
  }
  out->opcode = static_cast<Opcode>(op);
  return true;
}

// ---------------------------------------------------------------------------
// Server-to-client packets

namespace {

// Writes the 8 fixed reply bytes. Callers append up to 24 payload bytes and
// then PadReplyTo32.
void EncodeReplyPrefix(WireWriter& w, uint16_t seq, uint32_t extra_words, uint8_t data0 = 0) {
  w.U8(kReplyPacketType);
  w.U8(data0);
  w.U16(seq);
  w.U32(extra_words);
}

void PadReplyTo32(WireWriter& w, size_t start_offset) {
  const size_t used = w.size() - start_offset;
  if (used > kReplyBaseBytes) {
    FatalError("reply payload overflows the 32-byte unit");
  }
  w.Zero(kReplyBaseBytes - used);
}

// Positions a reader past the 8 fixed bytes of a reply and validates type.
bool OpenReply(std::span<const uint8_t> data, WireOrder order, WireReader* r) {
  if (data.size() < kReplyBaseBytes || data[0] != kReplyPacketType) {
    return false;
  }
  *r = WireReader(data, order);
  r->Skip(8);
  return true;
}

}  // namespace

void ErrorPacket::Encode(WireWriter& w) const {
  const size_t start = w.size();
  w.U8(kErrorPacketType);
  w.U8(static_cast<uint8_t>(code));
  w.U16(seq);
  w.U8(static_cast<uint8_t>(opcode));
  w.U8(ext);
  w.U16(0);
  w.U32(value);
  PadReplyTo32(w, start);
}

bool ErrorPacket::Decode(std::span<const uint8_t> data, WireOrder order, ErrorPacket* out) {
  if (data.size() < kReplyBaseBytes || data[0] != kErrorPacketType) {
    return false;
  }
  WireReader r(data, order);
  r.Skip(1);
  out->code = static_cast<AfError>(r.U8());
  out->seq = r.U16();
  out->opcode = static_cast<Opcode>(r.U8());
  out->ext = r.U8();
  r.Skip(2);
  out->value = r.U32();
  return r.ok();
}

bool PeekReplyHeader(std::span<const uint8_t> unit, WireOrder order, ReplyHeader* out) {
  if (unit.size() < 8 || unit[0] != kReplyPacketType) {
    return false;
  }
  WireReader r(unit, order);
  r.Skip(1);
  out->data0 = r.U8();
  out->seq = r.U16();
  out->extra_words = r.U32();
  return r.ok();
}

void GetTimeReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, 0);
  w.U32(time);
  PadReplyTo32(w, start);
}

bool GetTimeReply::Decode(std::span<const uint8_t> data, WireOrder order, GetTimeReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->time = r.U32();
  return r.ok();
}

void ResyncTimeReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, 0);
  w.U32(server_time);
  w.U32(promoted_watermark);
  w.U32(promoted);
  PadReplyTo32(w, start);
}

bool ResyncTimeReply::Decode(std::span<const uint8_t> data, WireOrder order,
                             ResyncTimeReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->server_time = r.U32();
  out->promoted_watermark = r.U32();
  out->promoted = r.U32();
  return r.ok();
}

void RecordSamplesReply::Encode(WireWriter& w, uint16_t seq) const {
  EncodeTo(w, seq, time, data);
}

void RecordSamplesReply::EncodeTo(WireWriter& w, uint16_t seq, ATime time,
                                  std::span<const uint8_t> data) {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, static_cast<uint32_t>(Pad4(data.size()) / 4));
  w.U32(time);
  w.U32(static_cast<uint32_t>(data.size()));
  PadReplyTo32(w, start);
  w.Bytes(data);
  w.AlignPad();
}

bool RecordSamplesReply::Decode(std::span<const uint8_t> data, WireOrder order,
                                RecordSamplesReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->time = r.U32();
  out->actual_bytes = r.U32();
  if (!r.ok() || data.size() < kReplyBaseBytes + out->actual_bytes) {
    return false;
  }
  out->data.assign(data.begin() + kReplyBaseBytes,
                   data.begin() + kReplyBaseBytes + out->actual_bytes);
  return true;
}

void QueryPhoneReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, 0);
  w.U32(off_hook);
  w.U32(loop_current);
  PadReplyTo32(w, start);
}

bool QueryPhoneReply::Decode(std::span<const uint8_t> data, WireOrder order,
                             QueryPhoneReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->off_hook = r.U32();
  out->loop_current = r.U32();
  return r.ok();
}

void QueryGainReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, 0);
  w.I32(gain_db);
  w.I32(min_db);
  w.I32(max_db);
  PadReplyTo32(w, start);
}

bool QueryGainReply::Decode(std::span<const uint8_t> data, WireOrder order,
                            QueryGainReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->gain_db = r.I32();
  out->min_db = r.I32();
  out->max_db = r.I32();
  return r.ok();
}

void InternAtomReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, 0);
  w.U32(atom);
  PadReplyTo32(w, start);
}

bool InternAtomReply::Decode(std::span<const uint8_t> data, WireOrder order,
                             InternAtomReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->atom = r.U32();
  return r.ok();
}

void GetAtomNameReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, static_cast<uint32_t>(Pad4(name.size()) / 4));
  w.U32(static_cast<uint32_t>(name.size()));
  PadReplyTo32(w, start);
  w.PaddedString(name);
}

bool GetAtomNameReply::Decode(std::span<const uint8_t> data, WireOrder order,
                              GetAtomNameReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  const uint32_t len = r.U32();
  if (!r.ok() || data.size() < kReplyBaseBytes + len) {
    return false;
  }
  out->name.assign(data.begin() + kReplyBaseBytes, data.begin() + kReplyBaseBytes + len);
  return true;
}

void GetPropertyReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, static_cast<uint32_t>(Pad4(data.size()) / 4));
  w.U32(type);
  w.U32(format);
  w.U32(bytes_after);
  w.U32(static_cast<uint32_t>(data.size()));
  PadReplyTo32(w, start);
  w.Bytes(data);
  w.AlignPad();
}

bool GetPropertyReply::Decode(std::span<const uint8_t> data, WireOrder order,
                              GetPropertyReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->type = r.U32();
  out->format = r.U32();
  out->bytes_after = r.U32();
  const uint32_t len = r.U32();
  if (!r.ok() || data.size() < kReplyBaseBytes + len) {
    return false;
  }
  out->data.assign(data.begin() + kReplyBaseBytes, data.begin() + kReplyBaseBytes + len);
  return true;
}

void ListPropertiesReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, static_cast<uint32_t>(atoms.size()));
  w.U32(static_cast<uint32_t>(atoms.size()));
  PadReplyTo32(w, start);
  for (Atom a : atoms) {
    w.U32(a);
  }
}

bool ListPropertiesReply::Decode(std::span<const uint8_t> data, WireOrder order,
                                 ListPropertiesReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  const uint32_t count = r.U32();
  if (!r.ok() || data.size() < kReplyBaseBytes + count * 4u) {
    return false;
  }
  WireReader extra(data.subspan(kReplyBaseBytes), order);
  out->atoms.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    out->atoms[i] = extra.U32();
  }
  return extra.ok();
}

void ListHostsReply::Encode(WireWriter& w, uint16_t seq) const {
  WireWriter extra(w.order());
  for (const HostEntry& h : hosts) {
    extra.U16(h.family);
    extra.U16(static_cast<uint16_t>(h.address.size()));
    extra.Bytes(h.address);
    extra.AlignPad();
  }
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, static_cast<uint32_t>(extra.size() / 4));
  w.U32(enabled);
  w.U32(static_cast<uint32_t>(hosts.size()));
  PadReplyTo32(w, start);
  w.Bytes(extra.data());
}

bool ListHostsReply::Decode(std::span<const uint8_t> data, WireOrder order,
                            ListHostsReply* out) {
  WireReader r({});
  if (!OpenReply(data, order, &r)) {
    return false;
  }
  out->enabled = r.U32();
  const uint32_t count = r.U32();
  if (!r.ok()) {
    return false;
  }
  WireReader extra(data.subspan(kReplyBaseBytes > data.size() ? data.size() : kReplyBaseBytes),
                   order);
  out->hosts.clear();
  for (uint32_t i = 0; i < count; ++i) {
    HostEntry h;
    h.family = extra.U16();
    const uint16_t len = extra.U16();
    auto view = extra.Bytes(len);
    h.address.assign(view.begin(), view.end());
    extra.AlignSkip();
    if (!extra.ok()) {
      return false;
    }
    out->hosts.push_back(std::move(h));
  }
  return true;
}

void EmptyReply::Encode(WireWriter& w, uint16_t seq) const {
  const size_t start = w.size();
  EncodeReplyPrefix(w, seq, 0);
  PadReplyTo32(w, start);
}

bool EmptyReply::Decode(std::span<const uint8_t> data, WireOrder order, EmptyReply* out) {
  (void)out;
  WireReader r({});
  return OpenReply(data, order, &r);
}

}  // namespace af
