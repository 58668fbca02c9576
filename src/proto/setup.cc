#include "proto/setup.h"

namespace af {

std::vector<uint8_t> SetupRequest::Encode() const {
  WireWriter w(order);
  w.U8(order == WireOrder::kLittle ? kLittleEndianMark : kBigEndianMark);
  w.U8(0);
  w.U16(proto_major);
  w.U16(proto_minor);
  w.U16(static_cast<uint16_t>(auth_name.size()));
  w.U16(static_cast<uint16_t>(auth_data.size()));
  w.U16(0);
  w.PaddedString(auth_name);
  w.PaddedString(auth_data);
  return w.Take();
}

bool SetupRequest::Decode(std::span<const uint8_t> msg, SetupRequest* out) {
  if (msg.empty() || (msg[0] != kLittleEndianMark && msg[0] != kBigEndianMark)) {
    return false;
  }
  out->order = msg[0] == kLittleEndianMark ? WireOrder::kLittle : WireOrder::kBig;
  WireReader r(msg, out->order);
  r.Skip(2);
  out->proto_major = r.U16();
  out->proto_minor = r.U16();
  const uint16_t name_len = r.U16();
  const uint16_t data_len = r.U16();
  r.Skip(2);
  out->auth_name = r.PaddedString(name_len);
  out->auth_data = r.PaddedString(data_len);
  return r.ok();
}

std::vector<uint8_t> SetupReply::Encode(WireOrder order) const {
  WireWriter variable(order);
  if (success) {
    variable.U32(resource_id_base);
    variable.U32(resource_id_mask);
    variable.U16(static_cast<uint16_t>(vendor.size()));
    variable.U8(static_cast<uint8_t>(devices.size()));
    variable.U8(0);
    variable.PaddedString(vendor);
    for (const DeviceDesc& dev : devices) {
      dev.Encode(variable);
    }
  } else {
    variable.U32(static_cast<uint32_t>(failure_reason.size()));
    variable.PaddedString(failure_reason);
  }

  WireWriter w(order);
  w.U8(success ? 1 : 0);
  w.U8(0);
  w.U16(proto_major);
  w.U16(proto_minor);
  w.U16(static_cast<uint16_t>(variable.size() / 4));
  w.Bytes(variable.data());
  return w.Take();
}

bool SetupReply::Decode(std::span<const uint8_t> msg, WireOrder order, SetupReply* out) {
  WireReader r(msg, order);
  out->success = r.U8() != 0;
  r.Skip(1);
  out->proto_major = r.U16();
  out->proto_minor = r.U16();
  r.U16();  // the additional length in words, which framed msg
  if (!out->success) {
    const uint32_t len = r.U32();
    out->failure_reason = r.PaddedString(len);
    return r.ok();
  }
  out->resource_id_base = r.U32();
  out->resource_id_mask = r.U32();
  const uint16_t vendor_len = r.U16();
  const uint8_t ndevices = r.U8();
  r.Skip(1);
  out->vendor = r.PaddedString(vendor_len);
  out->devices.resize(ndevices);
  for (uint8_t i = 0; i < ndevices; ++i) {
    if (!DeviceDesc::Decode(r, &out->devices[i])) {
      return false;
    }
  }
  return r.ok();
}

}  // namespace af
