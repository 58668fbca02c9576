#include "proto/trace_wire.h"

#include "proto/requests.h"
#include "proto/types.h"

namespace af {

namespace {

// Same damage guard as stats.cc: counts come from the wire, so bound them
// before trusting them. The event array holds at most one ring's worth of
// records per reply, far below this.
constexpr uint32_t kMaxWireArray = 4096 * 4;

void EncodeEvent(WireWriter& w, const TraceEvent& ev) {
  w.U8(ev.kind);
  w.U8(ev.arg);
  w.U16(ev.shard);
  w.U32(ev.conn);
  w.U32(ev.device);
  w.U32(ev.dev_time);
  w.U64(ev.host_us);
  w.U32(ev.dur_us);
  w.U32(0);  // pad (end of the V1 record)
  w.U64(ev.value);
  w.U64(ev.corr);  // appended in PR 9
  w.U64(ev.seq);   // appended in PR 9
}

bool DecodeEvent(WireReader& r, uint32_t event_bytes, TraceEvent* out) {
  const size_t start = r.position();
  out->kind = r.U8();
  out->arg = r.U8();
  out->shard = r.U16();
  out->conn = r.U32();
  out->device = r.U32();
  out->dev_time = r.U32();
  out->host_us = r.U64();
  out->dur_us = r.U32();
  r.U32();  // pad
  out->value = r.U64();
  // Fields appended after the V1 record: present only when the sender's
  // advertised record size covers them (older servers send 40 bytes).
  if (event_bytes >= kTraceEventWireBytesV1 + 16) {
    out->corr = r.U64();
    out->seq = r.U64();
  }
  if (!r.ok()) {
    return false;
  }
  // Fields appended by newer servers: skip to the advertised record size.
  r.Skip(event_bytes - (r.position() - start));
  return r.ok();
}

}  // namespace

void TraceWire::Encode(WireWriter& w, uint16_t seq) const {
  size_t extra = 4 + 4 + 8 + 8;  // version, enabled, dropped, host_now_us
  extra += 4 + 4;                // event_bytes, count
  extra += events.size() * size_t{kTraceEventWireBytes};
  extra = Pad4(extra);

  w.U8(kReplyPacketType);
  w.U8(0);
  w.U16(seq);
  w.U32(static_cast<uint32_t>(extra / 4));
  w.Zero(kReplyBaseBytes - 8);

  w.U32(version);
  w.U32(enabled);
  w.U64(dropped);
  w.U64(host_now_us);
  w.U32(kTraceEventWireBytes);
  w.U32(static_cast<uint32_t>(events.size()));
  for (const TraceEvent& ev : events) {
    EncodeEvent(w, ev);
  }
  w.AlignPad();
}

bool TraceWire::Decode(std::span<const uint8_t> data, WireOrder order, TraceWire* out) {
  if (data.size() < kReplyBaseBytes || data[0] != kReplyPacketType) {
    return false;
  }
  WireReader r(data, order);
  r.Skip(kReplyBaseBytes);

  out->version = r.U32();
  out->enabled = r.U32();
  out->dropped = r.U64();
  out->host_now_us = r.U64();
  const uint32_t event_bytes = r.U32();
  const uint32_t n_events = r.U32();
  if (!r.ok() || event_bytes < kTraceEventWireBytesV1 || event_bytes > 4096 ||
      n_events > kMaxWireArray) {
    return false;
  }
  out->events.resize(n_events);
  for (TraceEvent& ev : out->events) {
    if (!DecodeEvent(r, event_bytes, &ev)) {
      return false;
    }
  }
  return r.ok();
}

}  // namespace af
