#include "proto/framing.h"

#include "proto/requests.h"
#include "proto/setup.h"

namespace af {

namespace {

// A message of `length` bytes is framed once all of it is buffered.
size_t Whole(std::span<const uint8_t> buf, size_t length) {
  return buf.size() >= length ? length : kFrameNeedMore;
}

}  // namespace

size_t FrameClientMessage(std::span<const uint8_t> buf, bool setup_done, WireOrder order) {
  if (!setup_done) {
    if (buf.size() < SetupRequest::kFixedBytes) {
      return kFrameNeedMore;
    }
    if (buf[0] != kLittleEndianMark && buf[0] != kBigEndianMark) {
      return kFrameMalformed;
    }
    // The mark, a pad byte and the major and minor versions, then the
    // lengths of the auth name and data, in the order the mark announces.
    WireReader r(buf, buf[0] == kLittleEndianMark ? WireOrder::kLittle : WireOrder::kBig);
    r.Skip(6);
    const size_t name_bytes = r.U16();
    const size_t data_bytes = r.U16();
    return Whole(buf, SetupRequest::kFixedBytes + Pad4(name_bytes) + Pad4(data_bytes));
  }
  if (buf.size() < kRequestHeaderBytes) {
    return kFrameNeedMore;
  }
  WireReader r(buf, order);
  RequestHeader header;
  DecodeRequestHeader(r, &header);
  if (header.length_words == 0) {
    return kFrameMalformed;
  }
  return Whole(buf, header.TotalBytes());
}

size_t FrameServerMessage(std::span<const uint8_t> buf, bool setup_done, WireOrder order) {
  if (!setup_done) {
    if (buf.size() < SetupReply::kFixedBytes) {
      return kFrameNeedMore;
    }
    // The status, a pad byte and the major and minor versions, then how
    // many words follow the prefix.
    WireReader r(buf, order);
    r.Skip(6);
    return Whole(buf, SetupReply::kFixedBytes + size_t{r.U16()} * 4);
  }
  if (buf.size() < kReplyBaseBytes) {
    return kFrameNeedMore;
  }
  size_t length = kReplyBaseBytes;  // an error, an event or an unknown type
  ReplyHeader header;
  if (PeekReplyHeader(buf, order, &header)) {
    length += size_t{header.extra_words} * 4;
  }
  return Whole(buf, length);
}

}  // namespace af
