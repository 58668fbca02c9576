// Replication op-log wire format (PR 8).
//
// The primary streams its control-plane state changes — connection table,
// AC attributes, device settings, ATime watermarks, never bulk audio — to
// a backup as a sequence of fixed-size records over any byte stream. The
// stream opens with a hello frame carrying a magic (which also reveals the
// primary's byte order), a version, and the record size; records follow
// back to back, each exactly record_bytes long. Evolution is append-only
// like the rest of the protocol: new fields append inside the record, the
// hello's record_bytes grows, and old decoders skip the tail they do not
// know. Acks flow backup-to-primary as bare cumulative sequence numbers.
#ifndef AF_PROTO_OPLOG_H_
#define AF_PROTO_OPLOG_H_

#include <cstdint>
#include <optional>
#include <span>

#include "proto/requests.h"
#include "proto/types.h"
#include "proto/wire.h"

namespace af {

constexpr uint32_t kOplogMagic = 0x41464f4c;  // "AFOL"
constexpr uint8_t kOplogVersion = 1;

enum class OplogType : uint16_t {
  kClientConnect = 1,     // client = client number
  kClientDisconnect = 2,  // client
  kACCreate = 3,          // client, device, ac, value_mask, attrs
  kACChange = 4,          // client, ac, value_mask, attrs
  kACFree = 5,            // client, ac
  kInputGain = 6,         // device; value = gain dB (as int64)
  kOutputGain = 7,        // device; value = gain dB
  kEnableInput = 8,       // device; value = 0/1
  kEnableOutput = 9,      // device; value = 0/1
  kSelectEvents = 10,     // client, device; value = event mask
  kWatermark = 11,        // device; value = device time (ATime)
};

const char* OplogTypeName(OplogType t);

// One op-log record. A single fixed shape covers every type; fields a type
// does not use stay zero. device carries DeviceId + 1 so 0 means "no
// device" (DeviceId 0 is valid).
struct OplogRecord {
  uint64_t seq = 0;         // assigned by the primary, starts at 1
  uint16_t type = 0;        // OplogType
  uint16_t flags = 0;       // reserved
  uint32_t client = 0;      // client number, 0 = none
  uint32_t device = 0;      // DeviceId + 1, 0 = none
  uint32_t ac = 0;          // ACId, 0 = none
  uint32_t value_mask = 0;  // AC attribute mask / unused
  ACAttributes attrs;       // kACCreate / kACChange only
  uint64_t value = 0;       // type-specific scalar
  uint64_t corr = 0;        // correlation ID of the causing request, 0 = none

  // The normative layout; zero pad follows to kOplogRecordBytes.
  static constexpr auto Fields() {
    return std::tuple(Field("seq", &OplogRecord::seq), Field("type", &OplogRecord::type),
                      Field("flags", &OplogRecord::flags),
                      Field("client", &OplogRecord::client),
                      Field("device", &OplogRecord::device), Field("ac", &OplogRecord::ac),
                      Field("value_mask", &OplogRecord::value_mask),
                      Field("attrs", &OplogRecord::attrs), Field("value", &OplogRecord::value),
                      Field("corr", &OplogRecord::corr));  // appended after V1
  }
};

// Fixed record size as this build encodes it. PR 9 appended the
// correlation ID after value (68 payload bytes padded to 72);
// kOplogRecordBytesV1 is the PR 8 size and stays the decode minimum — the
// hello's record_bytes tells the decoder which fields are present.
constexpr size_t kOplogRecordBytes = 72;
constexpr size_t kOplogRecordBytesV1 = 64;
static_assert(detail::FixedBytes<OplogRecord>() <= kOplogRecordBytes);
constexpr size_t kOplogHelloBytes = 8;
constexpr size_t kOplogAckBytes = 8;

struct OplogHello {
  WireOrder order = WireOrder::kLittle;
  size_t record_bytes = 0;
};

// Hello frame: magic u32, version u8, order u8 ('l'/'B'), record_bytes u16.
void EncodeOplogHello(WireWriter& w);
// Infers the byte order from the magic. Nullopt on bad magic/version or a
// record size too small to hold the version-1 fields.
std::optional<OplogHello> DecodeOplogHello(std::span<const uint8_t> data);

// Appends exactly kOplogRecordBytes.
void EncodeOplogRecord(WireWriter& w, const OplogRecord& rec);
// Consumes one record of record_bytes (from the hello) at data's front.
bool DecodeOplogRecord(std::span<const uint8_t> data, WireOrder order,
                       size_t record_bytes, OplogRecord* out);

// Backup-to-primary cumulative ack: the highest record seq applied.
void EncodeOplogAck(WireWriter& w, uint64_t seq);
std::optional<uint64_t> DecodeOplogAck(std::span<const uint8_t> data, WireOrder order);

}  // namespace af

#endif  // AF_PROTO_OPLOG_H_
