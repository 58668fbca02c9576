#include "proto/events.h"

namespace af {

bool AEvent::Decode(std::span<const uint8_t> data, WireOrder order, AEvent* out) {
  if (data.size() < kReplyBaseBytes || data[0] < kMinEventType || data[0] > kMaxEventType) {
    return false;
  }
  WireReader r(data, order);
  return DecodeFields(r, out);
}

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kPhoneRing:
      return "PhoneRing";
    case EventType::kPhoneDTMF:
      return "PhoneDTMF";
    case EventType::kPhoneLoop:
      return "PhoneLoop";
    case EventType::kHookSwitch:
      return "HookSwitch";
    case EventType::kPropertyChange:
      return "PropertyChange";
  }
  return "Unknown";
}

}  // namespace af
