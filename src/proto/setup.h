// Connection setup handshake.
//
// At connection setup the client and server exchange version information
// and the client provides authentication data, exactly as in the X Window
// System (CRL 93/8 Section 5.3). The client's first byte announces its byte
// order; everything after it on this connection uses that order. The
// success reply describes every audio device the server exports (Section
// 5.4's audio device attributes) plus the client's resource-id range for
// allocating audio context ids.
#ifndef AF_PROTO_SETUP_H_
#define AF_PROTO_SETUP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "proto/types.h"
#include "proto/wire.h"

namespace af {

struct SetupRequest {
  WireOrder order = HostWireOrder();
  uint16_t proto_major = kProtoMajor;
  uint16_t proto_minor = kProtoMinor;
  std::string auth_name;
  std::string auth_data;

  // Full encode including the byte-order mark.
  std::vector<uint8_t> Encode() const;
  // Fixed prefix length before the variable auth strings.
  static constexpr size_t kFixedBytes = 12;
  // Decodes a whole request, framed by FrameClientMessage (proto/framing.h),
  // from its byte-order mark on. False on a bad mark or a short message.
  static bool Decode(std::span<const uint8_t> msg, SetupRequest* out);
};

// One abstract audio device, as described at connection setup. Mirrors the
// paper's AudioDeviceRec attribute groups visible to clients.
struct DeviceDesc {
  uint32_t index = 0;
  DevType type = DevType::kCodec;
  uint32_t play_sample_rate = 8000;
  uint32_t play_buffer_samples = 0;  // server play buffer length
  uint32_t play_nchannels = 1;
  AEncodeType play_encoding = AEncodeType::kMu255;
  uint32_t rec_sample_rate = 8000;
  uint32_t rec_buffer_samples = 0;
  uint32_t rec_nchannels = 1;
  AEncodeType rec_encoding = AEncodeType::kMu255;
  uint32_t number_of_inputs = 1;
  uint32_t number_of_outputs = 1;
  uint32_t inputs_from_phone = 0;  // mask: inputs wired to a telephone line
  uint32_t outputs_to_phone = 0;   // mask: outputs wired to a telephone line

  // The normative layout, one 32-bit word per field.
  static constexpr auto Fields() {
    return std::tuple(Field("index", &DeviceDesc::index), Field("type", &DeviceDesc::type),
                      Field("play_rate", &DeviceDesc::play_sample_rate),
                      Field("play_buffer", &DeviceDesc::play_buffer_samples),
                      Field("play_channels", &DeviceDesc::play_nchannels),
                      Field("play_enc", &DeviceDesc::play_encoding),
                      Field("rec_rate", &DeviceDesc::rec_sample_rate),
                      Field("rec_buffer", &DeviceDesc::rec_buffer_samples),
                      Field("rec_channels", &DeviceDesc::rec_nchannels),
                      Field("rec_enc", &DeviceDesc::rec_encoding),
                      Field("inputs", &DeviceDesc::number_of_inputs),
                      Field("outputs", &DeviceDesc::number_of_outputs),
                      Field("inputs_from_phone", &DeviceDesc::inputs_from_phone),
                      Field("outputs_to_phone", &DeviceDesc::outputs_to_phone));
  }
  void Encode(WireWriter& w) const { EncodeFields(w, *this); }
  static bool Decode(WireReader& r, DeviceDesc* out) { return DecodeFields(r, out); }

  double BufferSeconds() const {
    return play_sample_rate == 0
               ? 0.0
               : static_cast<double>(play_buffer_samples) / play_sample_rate;
  }
};

struct SetupReply {
  bool success = false;
  std::string failure_reason;
  uint16_t proto_major = kProtoMajor;
  uint16_t proto_minor = kProtoMinor;
  uint32_t resource_id_base = 0;
  uint32_t resource_id_mask = 0;
  std::string vendor;
  std::vector<DeviceDesc> devices;

  // Encodes in the given order (the client's).
  std::vector<uint8_t> Encode(WireOrder order) const;
  // Fixed 8-byte prefix: status, versions, additional length in words.
  static constexpr size_t kFixedBytes = 8;
  // Decodes a whole reply, framed by FrameServerMessage (proto/framing.h).
  // False on a short message.
  static bool Decode(std::span<const uint8_t> msg, WireOrder order, SetupReply* out);
};

}  // namespace af

#endif  // AF_PROTO_SETUP_H_
