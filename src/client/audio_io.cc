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
  if (value_mask & kACPlayGain) {
    attrs_.play_gain_db = attrs.play_gain_db;
  }
  if (value_mask & kACRecordGain) {
    attrs_.record_gain_db = attrs.record_gain_db;
  }
  if (value_mask & kACPreemption) {
    attrs_.preempt = attrs.preempt;
  }
  if (value_mask & kACEndian) {
    attrs_.big_endian_data = attrs.big_endian_data;
  }
  if (value_mask & kACEncodingType) {
    attrs_.encoding = attrs.encoding;
  }
  if (value_mask & kACChannels) {
    attrs_.channels = attrs.channels;
  }
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

  auto reply = conn_->AwaitReply(last_seq);
  if (!reply.ok()) {
    return reply.status();
  }
  PlaySamplesReply decoded;
  if (!PlaySamplesReply::Decode(reply.value(), conn_->order(), &decoded)) {
    return Status(AfError::kConnectionLost, "bad PlaySamples reply");
  }
  conn_->NoteDeviceTime(device_, decoded.time);
  return decoded.time;
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
    const uint16_t seq = conn_->QueueRequest(Opcode::kRecordSamples, req);
    auto reply = conn_->AwaitReply(seq);
    if (!reply.ok()) {
      return reply.status();
    }
    // The samples are copied from the reply view straight into the
    // caller's buffer.
    ATime time = 0;
    std::span<const uint8_t> samples;
    if (!RecordSamplesReply::DecodeView(reply.value(), conn_->order(), &time, &samples)) {
      return Status(AfError::kConnectionLost, "bad RecordSamples reply");
    }
    const size_t got = std::min(samples.size(), n);
    if (got > 0) {  // an empty reply carries a null span; memcpy forbids it
      std::memcpy(buf.data() + offset, samples.data(), got);
    }
    result.time = time;
    conn_->NoteDeviceTime(device_, time);
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
