#include "proto/oplog.h"

#include <algorithm>
#include <cstring>

namespace af {

const char* OplogTypeName(OplogType t) {
  switch (t) {
    case OplogType::kClientConnect: return "client_connect";
    case OplogType::kClientDisconnect: return "client_disconnect";
    case OplogType::kACCreate: return "ac_create";
    case OplogType::kACChange: return "ac_change";
    case OplogType::kACFree: return "ac_free";
    case OplogType::kInputGain: return "input_gain";
    case OplogType::kOutputGain: return "output_gain";
    case OplogType::kEnableInput: return "enable_input";
    case OplogType::kEnableOutput: return "enable_output";
    case OplogType::kSelectEvents: return "select_events";
    case OplogType::kWatermark: return "watermark";
  }
  return "?";
}

void EncodeOplogHello(WireWriter& w) {
  w.U32(kOplogMagic);
  w.U8(kOplogVersion);
  w.U8(w.order() == WireOrder::kLittle ? 'l' : 'B');
  w.U16(static_cast<uint16_t>(kOplogRecordBytes));
}

std::optional<OplogHello> DecodeOplogHello(std::span<const uint8_t> data) {
  if (data.size() < kOplogHelloBytes) {
    return std::nullopt;
  }
  // The magic doubles as the order probe: read little-endian, and if it
  // comes out byte-swapped the primary is big-endian.
  WireReader probe(data, WireOrder::kLittle);
  const uint32_t magic = probe.U32();
  OplogHello hello;
  if (magic == kOplogMagic) {
    hello.order = WireOrder::kLittle;
  } else if (magic == __builtin_bswap32(kOplogMagic)) {
    hello.order = WireOrder::kBig;
  } else {
    return std::nullopt;
  }
  WireReader r(data, hello.order);
  r.Skip(4);
  const uint8_t version = r.U8();
  r.Skip(1);  // order byte, informational (the magic already told us)
  hello.record_bytes = r.U16();
  if (!r.ok() || version != kOplogVersion ||
      hello.record_bytes < kOplogRecordBytesV1) {
    return std::nullopt;
  }
  return hello;
}

void EncodeOplogRecord(WireWriter& w, const OplogRecord& rec) {
  const size_t start = w.size();
  EncodeFields(w, rec);
  w.Zero(kOplogRecordBytes - (w.size() - start));
}

bool DecodeOplogRecord(std::span<const uint8_t> data, WireOrder order,
                       size_t record_bytes, OplogRecord* out) {
  if (record_bytes < kOplogRecordBytesV1 || data.size() < record_bytes) {
    return false;
  }
  // A shorter record than this build's is an older primary's: decode it
  // zero-extended, and drop the fields it predates (a version-1 primary's
  // kOplogRecordBytesV1 record ends before corr). Longer records carry
  // fields this build does not know; their tail is skipped.
  uint8_t record[kOplogRecordBytes] = {};
  std::memcpy(record, data.data(), std::min(record_bytes, kOplogRecordBytes));
  WireReader r(record, order);
  DecodeFields(r, out);
  if (record_bytes < kOplogRecordBytes) {
    out->corr = 0;
  }
  return r.ok();
}

void EncodeOplogAck(WireWriter& w, uint64_t seq) { w.U64(seq); }

std::optional<uint64_t> DecodeOplogAck(std::span<const uint8_t> data, WireOrder order) {
  if (data.size() < kOplogAckBytes) {
    return std::nullopt;
  }
  WireReader r(data, order);
  const uint64_t seq = r.U64();
  if (!r.ok()) {
    return std::nullopt;
  }
  return seq;
}

}  // namespace af
