// Atoms and properties: the inter-client communication surface adopted
// from X (CRL 93/8 Section 5.9).
#include "client/connection.h"

namespace af {

Result<Atom> AFAudioConn::InternAtom(std::string_view atom_name, bool only_if_exists) {
  InternAtomReq req;
  req.only_if_exists = only_if_exists ? 1 : 0;
  req.name = std::string(atom_name);
  const auto reply = RoundTrip<InternAtomReply>(Opcode::kInternAtom, req);
  if (!reply.ok()) {
    return reply.status();
  }
  return reply.value().atom;
}

Result<std::string> AFAudioConn::GetAtomName(Atom atom) {
  GetAtomNameReq req;
  req.atom = atom;
  auto reply = RoundTrip<GetAtomNameReply>(Opcode::kGetAtomName, req);
  if (!reply.ok()) {
    return reply.status();
  }
  return std::move(reply.value().name);
}

void AFAudioConn::ChangeProperty(DeviceId device, Atom property, Atom type, uint32_t format,
                                 PropertyMode mode, std::span<const uint8_t> data) {
  ChangePropertyReq req;
  req.device = device;
  req.property = property;
  req.type = type;
  req.format = format;
  req.mode = mode;
  req.data.assign(data.begin(), data.end());
  QueueRequest(Opcode::kChangeProperty, req);
}

void AFAudioConn::DeleteProperty(DeviceId device, Atom property) {
  DeletePropertyReq req;
  req.device = device;
  req.property = property;
  QueueRequest(Opcode::kDeleteProperty, req);
}

Result<GetPropertyReply> AFAudioConn::GetProperty(DeviceId device, Atom property, Atom type,
                                                  uint32_t long_offset, uint32_t long_length,
                                                  bool do_delete) {
  GetPropertyReq req;
  req.device = device;
  req.property = property;
  req.type = type;
  req.long_offset = long_offset;
  req.long_length = long_length;
  req.do_delete = do_delete ? 1 : 0;
  return RoundTrip<GetPropertyReply>(Opcode::kGetProperty, req);
}

Result<std::vector<Atom>> AFAudioConn::ListProperties(DeviceId device) {
  ListPropertiesReq req;
  req.device = device;
  auto reply = RoundTrip<ListPropertiesReply>(Opcode::kListProperties, req);
  if (!reply.ok()) {
    return reply.status();
  }
  return std::move(reply.value().atoms);
}

}  // namespace af
