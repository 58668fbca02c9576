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

ACAttributes ApplyACAttributes(ACAttributes base, uint32_t mask, const ACAttributes& from) {
  uint32_t bit = 1;
  std::apply(
      [&](const auto&... row) {
        (((mask & bit) != 0 ? void(base.*row.member = from.*row.member) : void(), bit <<= 1),
         ...);
      },
      ACAttributes::Fields());
  return base;
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

void ErrorPacket::Encode(WireWriter& w) const {
  const size_t start = w.size();
  w.U8(kErrorPacketType);
  w.U8(static_cast<uint8_t>(code));
  w.U16(seq);
  w.U8(static_cast<uint8_t>(opcode));
  w.U8(ext);
  w.U16(0);
  w.U32(value);
  w.Zero(kReplyBaseBytes - (w.size() - start));
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

void ListHostsReply::Encode(WireWriter& w, uint16_t seq) const {
  WireWriter extra(w.order());
  for (const HostEntry& h : hosts) {
    extra.U16(h.family);
    extra.U16(static_cast<uint16_t>(h.address.size()));
    extra.Bytes(h.address);
    extra.AlignPad();
  }
  const size_t start = w.size();
  w.U8(kReplyPacketType);
  w.U8(0);
  w.U16(seq);
  w.U32(static_cast<uint32_t>(extra.size() / 4));
  w.U32(enabled);
  w.U32(static_cast<uint32_t>(hosts.size()));
  w.Zero(kReplyBaseBytes - (w.size() - start));
  w.Bytes(extra.data());
}

bool ListHostsReply::Decode(std::span<const uint8_t> data, WireOrder order,
                            ListHostsReply* out) {
  if (data.size() < kReplyBaseBytes || data[0] != kReplyPacketType) {
    return false;
  }
  WireReader r(data, order);
  r.Skip(8);
  out->enabled = r.U32();
  const uint32_t count = r.U32();
  WireReader extra(data.subspan(kReplyBaseBytes), order);
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

}  // namespace af
