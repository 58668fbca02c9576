// GetTrace: the wire form of the server's event-trace ring.
//
// Same versioning rule as GetServerStats (proto/stats.h): the event array
// is count-prefixed, and each event additionally carries its on-wire size
// so new fields can append to the record without a version bump — old
// readers skip the tail of each event, new readers of old servers see the
// shorter record. The version number bumps only on an incompatible
// relayout. Encoding and decoding allocate freely; trace snapshots are not
// on the play/record hot path.
#ifndef AF_PROTO_TRACE_WIRE_H_
#define AF_PROTO_TRACE_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/trace.h"
#include "proto/wire.h"

namespace af {

constexpr uint32_t kTraceWireVersion = 1;

// Bytes per event record as this build encodes it (the fields of
// TraceEvent in declaration order, padded to a 4-byte multiple). PR 9
// appended corr and seq after value; kTraceEventWireBytesV1 is the PR 4
// record size and stays the decode minimum forever — a record shorter than
// that is damage, a record in between is a valid V1 event with the
// appended fields left zero.
constexpr uint32_t kTraceEventWireBytes = 56;
constexpr uint32_t kTraceEventWireBytesV1 = 40;

struct TraceWire {
  uint32_t version = kTraceWireVersion;
  uint32_t enabled = 0;       // tracing state after this request's flags
  uint64_t dropped = 0;       // total ring overwrites since server start
  uint64_t host_now_us = 0;   // server HostMicros() at the snapshot
  std::vector<TraceEvent> events;

  // Emits the full reply packet (32-byte unit + extra data).
  void Encode(WireWriter& w, uint16_t seq) const;
  // Consumes the full reply packet.
  static bool Decode(std::span<const uint8_t> data, WireOrder order, TraceWire* out);
};

}  // namespace af

#endif  // AF_PROTO_TRACE_WIRE_H_
