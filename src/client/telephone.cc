// Telephone control calls (CRL 93/8 Tables 3/4, Section 5.5). Dialing is
// deliberately absent here: clients dial by synthesizing DTMF and playing
// it at exact device times (see afutil/dial.cc).
#include "client/connection.h"

namespace af {

void AFAudioConn::HookSwitch(DeviceId device, bool off_hook) {
  HookSwitchReq req;
  req.device = device;
  req.off_hook = off_hook ? 1 : 0;
  QueueRequest(Opcode::kHookSwitch, req);
}

void AFAudioConn::FlashHook(DeviceId device, unsigned duration_ms) {
  FlashHookReq req;
  req.device = device;
  req.duration_ms = duration_ms;
  QueueRequest(Opcode::kFlashHook, req);
}

Result<QueryPhoneReply> AFAudioConn::QueryPhone(DeviceId device) {
  QueryPhoneReq req;
  req.device = device;
  return RoundTrip<QueryPhoneReply>(Opcode::kQueryPhone, req);
}

void AFAudioConn::EnablePassThrough(DeviceId a, DeviceId b) {
  PassThroughReq req;
  req.device_a = a;
  req.device_b = b;
  QueueRequest(Opcode::kEnablePassThrough, req);
}

void AFAudioConn::DisablePassThrough(DeviceId a, DeviceId b) {
  PassThroughReq req;
  req.device_a = a;
  req.device_b = b;
  QueueRequest(Opcode::kDisablePassThrough, req);
}

}  // namespace af
