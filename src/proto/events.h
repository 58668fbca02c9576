// Protocol events: fixed-size 32-byte asynchronous messages from server to
// client (CRL 93/8 Section 5.2). Every device event carries both the audio
// device time and the host clock time of the server, so clients can
// correlate audio with other media on the same host.
#ifndef AF_PROTO_EVENTS_H_
#define AF_PROTO_EVENTS_H_

#include <cstdint>
#include <span>

#include "common/atime.h"
#include "proto/types.h"
#include "proto/wire.h"

namespace af {

struct AEvent {
  EventType type = EventType::kPhoneRing;
  uint8_t detail = 0;     // DTMF digit char, hook/ring/loop state, property mode
  uint16_t seq = 0;       // sequence number of last request processed
  DeviceId device = 0;
  ATime dev_time = 0;     // audio device time of the event
  uint64_t host_time_us = 0;  // server host wall-clock time, microseconds
  uint32_t w0 = 0;        // payload (e.g. property atom)
  uint32_t w1 = 0;
  uint32_t w2 = 0;

  // The normative 32-byte layout.
  static constexpr auto Fields() {
    return std::tuple(Field("type", &AEvent::type), Field("detail", &AEvent::detail),
                      Field("seq", &AEvent::seq), Field("dev", &AEvent::device),
                      Field("dev_time", &AEvent::dev_time),
                      Field("host_us", &AEvent::host_time_us), Field("w0", &AEvent::w0),
                      Field("w1", &AEvent::w1), Field("w2", &AEvent::w2));
  }

  // Emits the fixed 32-byte unit.
  void Encode(WireWriter& w) const { EncodeFields(w, *this); }
  // data must be at least 32 bytes with a type byte in [2, 6].
  static bool Decode(std::span<const uint8_t> data, WireOrder order, AEvent* out);
};
static_assert(detail::FixedBytes<AEvent>() == kReplyBaseBytes, "an event is one 32-byte unit");

// Convenience detail values.
constexpr uint8_t kStateOff = 0;
constexpr uint8_t kStateOn = 1;

// PropertyChange w1 states.
constexpr uint32_t kPropertyNewValue = 0;
constexpr uint32_t kPropertyDeleted = 1;

const char* EventTypeName(EventType type);

}  // namespace af

#endif  // AF_PROTO_EVENTS_H_
