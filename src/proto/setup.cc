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

bool SetupRequest::DecodeFixed(std::span<const uint8_t> data, SetupRequest* out,
                               uint16_t* auth_name_len, uint16_t* auth_data_len) {
  if (data.size() < kFixedBytes) {
    return false;
  }
  if (data[0] == kLittleEndianMark) {
    out->order = WireOrder::kLittle;
  } else if (data[0] == kBigEndianMark) {
    out->order = WireOrder::kBig;
  } else {
    return false;
  }
  WireReader r(data, out->order);
  r.Skip(2);
  out->proto_major = r.U16();
  out->proto_minor = r.U16();
  *auth_name_len = r.U16();
  *auth_data_len = r.U16();
  r.Skip(2);
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

bool SetupReply::DecodeFixed(std::span<const uint8_t> data, WireOrder order, bool* success,
                             uint32_t* additional_words) {
  if (data.size() < kFixedBytes) {
    return false;
  }
  WireReader r(data, order);
  *success = r.U8() != 0;
  r.Skip(1);
  r.U16();  // proto_major
  r.U16();  // proto_minor
  *additional_words = r.U16();
  return r.ok();
}

bool SetupReply::DecodeVariable(std::span<const uint8_t> data, WireOrder order, bool success,
                                SetupReply* out) {
  out->success = success;
  WireReader r(data, order);
  if (!success) {
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
