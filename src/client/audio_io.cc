// AFPlaySamples / AFRecordSamples: the two requests that move audio data,
// with the client library's 8 KB chunking (CRL 93/8 Sections 5.7 and 10.1).
#include <algorithm>
#include <cstring>

#include "client/audio_context.h"

namespace af {

namespace {

// One sample frame's worth of client bytes for an AC's encoding/channels.
size_t FrameBytesOf(const ACAttributes& attrs) {
  return SamplesToBytes(attrs.encoding, 1, attrs.channels);
}

}  // namespace

const DeviceDesc& AC::device() const { return conn_->devices()[device_]; }

void AC::ChangeAttributes(uint32_t value_mask, const ACAttributes& attrs) {
  ChangeACAttributesReq req;
  req.ac = id_;
  req.value_mask = value_mask;
  req.attrs = attrs;
  conn_->QueueRequest(Opcode::kChangeACAttributes, req);
  attrs_ = ApplyACAttributes(attrs_, value_mask, attrs);
}

Result<ATime> AC::PlaySamples(ATime start_time, std::span<const uint8_t> buf) {
  const size_t frame_bytes = std::max<size_t>(1, FrameBytesOf(attrs_));
  // Chunk boundaries stay frame-aligned so every request is well-formed.
  const size_t chunk = std::max(frame_bytes, chunk_bytes_ - (chunk_bytes_ % frame_bytes));

  uint32_t base_flags = 0;
  if (attrs_.big_endian_data != 0) {
    base_flags |= kPlayBigEndianData;
  }

  uint16_t last_seq = 0;
  size_t offset = 0;
  ATime t = start_time;
  do {
    const size_t n = std::min(chunk, buf.size() - offset);
    const bool last = offset + n >= buf.size();
    PlaySamplesReq req;
    req.ac = id_;
    req.start_time = t;
    req.nbytes = static_cast<uint32_t>(n);
    // Intermediate replies are unnecessary during a contiguous series of
    // play requests; only the final chunk asks for the time.
    req.flags = base_flags | (last ? 0 : kPlaySuppressReply);
    req.data = buf.subspan(offset, n);
    last_seq = conn_->QueueRequest(Opcode::kPlaySamples, req);
    offset += n;
    t += static_cast<ATime>(BytesToSamples(attrs_.encoding, n, attrs_.channels));
  } while (offset < buf.size());

  const auto reply = conn_->AwaitDecoded<PlaySamplesReply>(last_seq, Opcode::kPlaySamples);
  if (!reply.ok()) {
    return reply.status();
  }
  conn_->NoteDeviceTime(device_, reply.value().time);
  return reply.value().time;
}

Result<RecordResult> AC::RecordSamples(ATime start_time, std::span<uint8_t> buf, bool block) {
  const size_t frame_bytes = std::max<size_t>(1, FrameBytesOf(attrs_));
  const size_t chunk = std::max(frame_bytes, chunk_bytes_ - (chunk_bytes_ % frame_bytes));

  uint32_t base_flags = block ? 0 : kRecordNoBlock;
  if (attrs_.big_endian_data != 0) {
    base_flags |= kRecordBigEndianData;
  }

  RecordResult result;
  size_t offset = 0;
  ATime t = start_time;
  do {
    const size_t n = std::min(chunk, buf.size() - offset);
    RecordSamplesReq req;
    req.ac = id_;
    req.start_time = t;
    req.nbytes = static_cast<uint32_t>(n);
    req.flags = base_flags;
    // The samples are copied from the reply view straight into the
    // caller's buffer.
    const auto reply = conn_->RoundTrip<RecordSamplesView>(Opcode::kRecordSamples, req);
    if (!reply.ok()) {
      return reply.status();
    }
    const std::span<const uint8_t> samples = reply.value().data;
    const size_t got = std::min(samples.size(), n);
    if (got > 0) {  // an empty reply carries a null span; memcpy forbids it
      std::memcpy(buf.data() + offset, samples.data(), got);
    }
    result.time = reply.value().time;
    conn_->NoteDeviceTime(device_, result.time);
    offset += got;
    t += static_cast<ATime>(BytesToSamples(attrs_.encoding, got, attrs_.channels));
    if (got < n) {
      break;  // non-blocking record ran out of available data
    }
  } while (offset < buf.size());

  result.actual_bytes = offset;
  return result;
}

}  // namespace af
