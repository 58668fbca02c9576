#include "proto/decode.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <tuple>
#include <type_traits>

#include "common/error.h"
#include "proto/events.h"
#include "proto/framing.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/types.h"

namespace af {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

// A short printable view of a possibly binary string for decode lines.
void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  size_t shown = 0;
  for (char c : s) {
    if (shown++ == 32) {
      out->append("...");
      break;
    }
    if (c >= 0x20 && c < 0x7f && c != '"') {
      out->push_back(c);
    } else {
      out->push_back('.');
    }
  }
  out->push_back('"');
}

// One " name=value" per field of a request body, in its wire order:
// strings quoted, byte vectors as their length, masks and flags in hex.
// Counted raw bytes (the play data) are left out; their count is a field.
template <typename T>
void AppendFields(std::string* line, const T& body);

template <typename M>
void AppendValue(std::string* line, const char* name, const M& v, FieldFormat format) {
  if constexpr (std::is_same_v<M, std::string>) {
    Appendf(line, " %s=", name);
    AppendQuoted(line, v);
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    Appendf(line, " %s_bytes=%zu", name, v.size());
  } else if constexpr (HasFields<M>) {
    AppendFields(line, v);
  } else if constexpr (std::is_signed_v<M>) {
    Appendf(line, " %s=%d", name, static_cast<int>(v));
  } else {
    Appendf(line, format == FieldFormat::kHex ? " %s=0x%x" : " %s=%u", name,
            static_cast<uint32_t>(v));
  }
}

template <typename T, typename M>
void AppendRow(std::string* line, const T& body, const FieldRow<T, M>& row) {
  AppendValue(line, row.name, body.*row.member, row.format);
}
template <typename T>
void AppendRow(std::string*, const T&, const CountedBytesRow<T>&) {}

template <typename T>
void AppendFields(std::string* line, const T& body) {
  std::apply([&](const auto&... row) { (AppendRow(line, body, row), ...); }, T::Fields());
}

// Decodes the body of one request into the tail of *line. The reader is
// positioned after the 4-byte header; the caller appends <truncated> if
// the bounds-checked read went sour.
template <typename Body>
void AppendRequestBody(std::string* line, WireReader& r) {
  Body body;
  if (Body::Decode(r, &body)) {
    AppendFields(line, body);
  }
}

}  // namespace

std::string DecodeRequestLine(std::span<const uint8_t> msg, WireOrder order) {
  std::string line;
  WireReader r(msg, order);
  RequestHeader header;
  if (!DecodeRequestHeader(r, &header)) {
    return "Request <truncated header>";
  }
  const uint8_t opi = static_cast<uint8_t>(header.opcode);
  if (opi < kMinOpcode || opi > kMaxOpcode) {
    Appendf(&line, "Request op=%u <unknown> len=%zu", opi, header.TotalBytes());
    return line;
  }
  Appendf(&line, "%s len=%zu", OpcodeName(header.opcode), header.TotalBytes());
  if (header.ext != 0) {
    Appendf(&line, " ext=%u", header.ext);
  }
  switch (header.opcode) {
#define AF_APPEND_REQUEST_BODY(value, name, body) \
  case Opcode::k##name:                           \
    AppendRequestBody<body>(&line, r);            \
    break;
    AF_REQUESTS(AF_APPEND_REQUEST_BODY)
#undef AF_APPEND_REQUEST_BODY
  }
  if (!r.ok()) {
    line.append(" <truncated>");
  }
  return line;
}

std::string DecodeServerLine(std::span<const uint8_t> msg, WireOrder order) {
  std::string line;
  if (msg.empty()) {
    return "<empty>";
  }
  const uint8_t type = msg[0];
  if (type == kErrorPacketType) {
    ErrorPacket err;
    if (msg.size() < kReplyBaseBytes ||
        !ErrorPacket::Decode(msg.first(kReplyBaseBytes), order, &err)) {
      return "Error <truncated>";
    }
    Appendf(&line, "Error %s seq=%u op=%s value=%u", ErrorText(err.code), err.seq,
            OpcodeName(err.opcode), err.value);
    return line;
  }
  if (type == kReplyPacketType) {
    ReplyHeader rh;
    if (msg.size() < kReplyBaseBytes ||
        !PeekReplyHeader(msg.first(kReplyBaseBytes), order, &rh)) {
      return "Reply <truncated>";
    }
    Appendf(&line, "Reply seq=%u extra=%u words", rh.seq, rh.extra_words);
    if (rh.data0 != 0) {
      Appendf(&line, " data0=%u", rh.data0);
    }
    if (msg.size() < kReplyBaseBytes + size_t{rh.extra_words} * 4) {
      line.append(" <truncated>");
    }
    return line;
  }
  if (type >= kMinEventType && type <= kMaxEventType) {
    AEvent ev;
    if (!AEvent::Decode(msg, order, &ev)) {
      return "Event <truncated>";
    }
    Appendf(&line, "Event %s detail=%u seq=%u dev=%u dev_time=%u host_us=%" PRIu64,
            EventTypeName(ev.type), ev.detail, ev.seq, ev.device, ev.dev_time,
            ev.host_time_us);
    if (ev.type == EventType::kPropertyChange) {
      Appendf(&line, " atom=%u %s", ev.w0,
              ev.w1 == kPropertyDeleted ? "deleted" : "new-value");
    }
    return line;
  }
  Appendf(&line, "<unknown packet type %u>", type);
  return line;
}

std::string DecodeSetupRequestLine(std::span<const uint8_t> msg) {
  SetupRequest req;
  if (!SetupRequest::Decode(msg, &req)) {
    return "Setup <truncated>";
  }
  std::string line;
  Appendf(&line, "Setup order=%s proto=%u.%u auth_name=%zu auth_data=%zu",
          req.order == WireOrder::kLittle ? "l" : "B", req.proto_major, req.proto_minor,
          req.auth_name.size(), req.auth_data.size());
  return line;
}

std::string DecodeSetupReplyLine(std::span<const uint8_t> msg, WireOrder order) {
  SetupReply reply;
  if (!SetupReply::Decode(msg, order, &reply)) {
    return "SetupReply <truncated>";
  }
  std::string line;
  if (reply.success) {
    Appendf(&line, "SetupReply ok vendor=");
    AppendQuoted(&line, reply.vendor);
    Appendf(&line, " devices=%zu id_base=0x%x", reply.devices.size(), reply.resource_id_base);
  } else {
    Appendf(&line, "SetupReply failed reason=");
    AppendQuoted(&line, reply.failure_reason);
  }
  return line;
}

void StreamDecoder::Feed(std::span<const uint8_t> data, const Sink& sink) {
  if (saw_error_) {
    return;  // stream already declared undecodable
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
  const bool to_server = dir_ == Dir::kClientToServer;
  for (;;) {
    const size_t total = to_server ? FrameClientMessage(buf_, setup_done_, order_)
                                   : FrameServerMessage(buf_, setup_done_, order_);
    if (total == kFrameNeedMore) {
      return;
    }
    if (total == kFrameMalformed) {
      saw_error_ = true;
      sink("<undecodable stream; sniffing stopped>");
      buf_.clear();
      return;
    }
    const std::span<const uint8_t> msg(buf_.data(), total);
    std::string line;
    if (setup_done_) {
      line = to_server ? DecodeRequestLine(msg, order_) : DecodeServerLine(msg, order_);
    } else if (to_server) {
      line = DecodeSetupRequestLine(msg);
      SetupRequest req;
      if (SetupRequest::Decode(msg, &req)) {
        SetOrder(req.order);
      }
    } else {
      line = DecodeSetupReplyLine(msg, order_);
    }
    setup_done_ = true;
    ++messages_;
    sink(line);
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(total));
  }
}

}  // namespace af
