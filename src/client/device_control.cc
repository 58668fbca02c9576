// Device I/O control and host access control calls (CRL 93/8 Tables 3/4).
#include "client/connection.h"

namespace af {

void AFAudioConn::SetInputGain(DeviceId device, int gain_db) {
  SetGainReq req;
  req.device = device;
  req.gain_db = gain_db;
  QueueRequest(Opcode::kSetInputGain, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_input_gain = true;
  r.input_gain_db = gain_db;
}

void AFAudioConn::SetOutputGain(DeviceId device, int gain_db) {
  SetGainReq req;
  req.device = device;
  req.gain_db = gain_db;
  QueueRequest(Opcode::kSetOutputGain, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_output_gain = true;
  r.output_gain_db = gain_db;
}

Result<QueryGainReply> AFAudioConn::QueryInputGain(DeviceId device) {
  QueryGainReq req;
  req.device = device;
  return RoundTrip<QueryGainReply>(Opcode::kQueryInputGain, req);
}

Result<QueryGainReply> AFAudioConn::QueryOutputGain(DeviceId device) {
  QueryGainReq req;
  req.device = device;
  return RoundTrip<QueryGainReply>(Opcode::kQueryOutputGain, req);
}

void AFAudioConn::EnableInput(DeviceId device, uint32_t mask) {
  IOEnableReq req;
  req.device = device;
  req.mask = mask;
  QueueRequest(Opcode::kEnableInput, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_input_mask = true;
  r.input_mask |= mask;
}

void AFAudioConn::DisableInput(DeviceId device, uint32_t mask) {
  IOEnableReq req;
  req.device = device;
  req.mask = mask;
  QueueRequest(Opcode::kDisableInput, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_input_mask = true;
  r.input_mask &= ~mask;
}

void AFAudioConn::EnableOutput(DeviceId device, uint32_t mask) {
  IOEnableReq req;
  req.device = device;
  req.mask = mask;
  QueueRequest(Opcode::kEnableOutput, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_output_mask = true;
  r.output_mask |= mask;
}

void AFAudioConn::DisableOutput(DeviceId device, uint32_t mask) {
  IOEnableReq req;
  req.device = device;
  req.mask = mask;
  QueueRequest(Opcode::kDisableOutput, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_output_mask = true;
  r.output_mask &= ~mask;
}

void AFAudioConn::SetAccessControl(bool enabled) {
  SetAccessControlReq req;
  req.enabled = enabled ? 1 : 0;
  QueueRequest(Opcode::kSetAccessControl, req);
}

void AFAudioConn::AddHost(uint16_t family, std::span<const uint8_t> address) {
  ChangeHostsReq req;
  req.mode = HostChangeMode::kInsert;
  req.family = family;
  req.address.assign(address.begin(), address.end());
  QueueRequest(Opcode::kChangeHosts, req);
}

void AFAudioConn::RemoveHost(uint16_t family, std::span<const uint8_t> address) {
  ChangeHostsReq req;
  req.mode = HostChangeMode::kDelete;
  req.family = family;
  req.address.assign(address.begin(), address.end());
  QueueRequest(Opcode::kChangeHosts, req);
}

Result<ListHostsReply> AFAudioConn::ListHosts() {
  return RoundTrip<ListHostsReply>(Opcode::kListHosts, EmptyReq{});
}

}  // namespace af
