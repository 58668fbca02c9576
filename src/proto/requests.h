// Request bodies, replies and error packets for the requests of the
// table in proto/opcodes.h. Each request body and each reply declares its
// wire fields once (see "Request body layouts" and ReplyBody below); its
// encoder and decoder derive from that list.
//
// Framing: every request starts with a 4-byte header { opcode, extension,
// 16-bit length in 32-bit words, including the header }. Request data is
// naturally aligned and padded to a 32-bit boundary. Server-to-client
// traffic is a sequence of 32-byte units: type 0 = error, type 1 = reply
// (optionally followed by extra data whose length in words is in the
// header), types 2..6 = events.
#ifndef AF_PROTO_REQUESTS_H_
#define AF_PROTO_REQUESTS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/atime.h"
#include "common/error.h"
#include "proto/opcodes.h"
#include "proto/types.h"
#include "proto/wire.h"

namespace af {

// ---------------------------------------------------------------------------
// Request framing

struct RequestHeader {
  Opcode opcode;
  uint8_t ext;
  uint16_t length_words;  // total request length including the header

  size_t TotalBytes() const { return static_cast<size_t>(length_words) * 4; }
};

// Request extension-byte flags. The extension byte has been 0 since the
// original protocol; bits defined here flag optional aux data appended
// AFTER the request body's natural end (inside the padded length), which
// decoders that predate the bit never look at — the same append-only rule
// the reply blocks follow, applied to requests.
//
// kRequestExtCorrId: the final 8 bytes of the padded request carry the
// client-minted 64-bit correlation ID (proto byte order), linking every
// server-side trace record back to the client's enqueue record.
constexpr uint8_t kRequestExtCorrId = 1u << 0;

// Writes a header with a zero length placeholder; returns its byte offset.
size_t BeginRequest(WireWriter& w, Opcode op, uint8_t ext = 0);
// Pads the body to a 4-byte boundary and patches the length field.
void EndRequest(WireWriter& w, size_t header_offset);
// Reads a header from the first 4 bytes.
bool DecodeRequestHeader(WireReader& r, RequestHeader* out);

// ---------------------------------------------------------------------------
// Request body layouts
//
// Each body below lists its wire fields once, in wire order, in
// `static constexpr auto Fields()` (proto/wire.h); these lists are the
// normative body layouts. RequestBody<T> derives Encode and Decode from the
// list, and asniff's decoder (proto/decode.cc) prints it. A request body
// keeps the protocol's word rule: every scalar field is one 32-bit word.

namespace detail {

template <HasFields T>
constexpr bool WordRows();
template <typename T, typename M>
constexpr bool IsWordRow(const FieldRow<T, M>&) {
  if constexpr (HasFields<M>) {
    return WordRows<M>();
  } else {
    return std::is_same_v<M, std::string> || std::is_same_v<M, std::vector<uint8_t>> ||
           sizeof(M) == 4;
  }
}
template <typename T>
constexpr bool IsWordRow(const CountedBytesRow<T>&) {
  return true;
}
template <HasFields T>
constexpr bool WordRows() {
  return std::apply([](const auto&... row) { return (true && ... && IsWordRow(row)); },
                    T::Fields());
}

}  // namespace detail

// Base of every request body T: Encode and Decode derived from T::Fields().
// Decode fails (bounds-checked reader) on a truncated body.
template <typename T>
struct RequestBody {
  void Encode(WireWriter& w) const { EncodeFields(w, static_cast<const T&>(*this)); }
  static bool Decode(WireReader& r, T* out) {
    static_assert(detail::WordRows<T>(), "a request body's scalar fields are 32-bit words");
    return DecodeFields(r, out);
  }
};

// ---------------------------------------------------------------------------
// Audio context attributes

// Value mask bits for CreateAC / ChangeACAttributes: bit i selects row i of
// ACAttributes::Fields().
constexpr uint32_t kACPlayGain = 1u << 0;
constexpr uint32_t kACRecordGain = 1u << 1;
constexpr uint32_t kACPreemption = 1u << 2;
constexpr uint32_t kACEndian = 1u << 3;
constexpr uint32_t kACEncodingType = 1u << 4;
constexpr uint32_t kACChannels = 1u << 5;

struct ACAttributes {
  int32_t play_gain_db = 0;
  int32_t record_gain_db = 0;
  uint32_t preempt = 0;          // 0 = mix (default), 1 = preempt
  uint32_t big_endian_data = 0;  // sample byte order for multi-byte types
  AEncodeType encoding = AEncodeType::kMu255;
  uint32_t channels = 1;

  static constexpr auto Fields() {
    return std::tuple(Field("play_gain", &ACAttributes::play_gain_db),
                      Field("rec_gain", &ACAttributes::record_gain_db),
                      Field("preempt", &ACAttributes::preempt),
                      Field("big_endian", &ACAttributes::big_endian_data),
                      Field("enc", &ACAttributes::encoding),
                      Field("ch", &ACAttributes::channels));
  }
};

static_assert(std::tuple_size_v<decltype(ACAttributes::Fields())> == 6 &&
                  std::get<0>(ACAttributes::Fields()).member == &ACAttributes::play_gain_db &&
                  std::get<1>(ACAttributes::Fields()).member == &ACAttributes::record_gain_db &&
                  std::get<2>(ACAttributes::Fields()).member == &ACAttributes::preempt &&
                  std::get<3>(ACAttributes::Fields()).member == &ACAttributes::big_endian_data &&
                  std::get<4>(ACAttributes::Fields()).member == &ACAttributes::encoding &&
                  std::get<5>(ACAttributes::Fields()).member == &ACAttributes::channels &&
                  kACPlayGain == 1u << 0 && kACRecordGain == 1u << 1 &&
                  kACPreemption == 1u << 2 && kACEndian == 1u << 3 &&
                  kACEncodingType == 1u << 4 && kACChannels == 1u << 5,
              "bit i of an AC value mask selects row i of ACAttributes::Fields()");

// Returns `base` with each field of `from` whose bit is set in `mask`
// copied over: the effective set of CreateAC (base: the defaults with the
// device's encoding and channels) and of ChangeACAttributes (base: the
// current set), on the server and in the client's mirror.
ACAttributes ApplyACAttributes(ACAttributes base, uint32_t mask, const ACAttributes& from);

// ---------------------------------------------------------------------------
// Requests (body layouts; header handled by Begin/End/DecodeRequestHeader)

struct SelectEventsReq : RequestBody<SelectEventsReq> {
  DeviceId device = 0;
  uint32_t mask = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &SelectEventsReq::device),
                      Field("mask", &SelectEventsReq::mask, FieldFormat::kHex));
  }
};

struct CreateACReq : RequestBody<CreateACReq> {
  ACId ac = 0;
  DeviceId device = 0;
  uint32_t value_mask = 0;
  ACAttributes attrs;
  static constexpr auto Fields() {
    return std::tuple(Field("ac", &CreateACReq::ac), Field("dev", &CreateACReq::device),
                      Field("mask", &CreateACReq::value_mask, FieldFormat::kHex),
                      Field("attrs", &CreateACReq::attrs));
  }
};

struct ChangeACAttributesReq : RequestBody<ChangeACAttributesReq> {
  ACId ac = 0;
  uint32_t value_mask = 0;
  ACAttributes attrs;
  static constexpr auto Fields() {
    return std::tuple(Field("ac", &ChangeACAttributesReq::ac),
                      Field("mask", &ChangeACAttributesReq::value_mask, FieldFormat::kHex),
                      Field("attrs", &ChangeACAttributesReq::attrs));
  }
};

struct FreeACReq : RequestBody<FreeACReq> {
  ACId ac = 0;
  static constexpr auto Fields() { return std::tuple(Field("ac", &FreeACReq::ac)); }
};

// PlaySamples flags.
constexpr uint32_t kPlaySuppressReply = 1u << 0;  // no time reply wanted
constexpr uint32_t kPlayBigEndianData = 1u << 1;  // sample data byte order

struct PlaySamplesReq : RequestBody<PlaySamplesReq> {
  ACId ac = 0;
  ATime start_time = 0;
  uint32_t nbytes = 0;
  uint32_t flags = 0;
  std::span<const uint8_t> data;  // nbytes sample bytes
  static constexpr auto Fields() {
    return std::tuple(Field("ac", &PlaySamplesReq::ac),
                      Field("time", &PlaySamplesReq::start_time),
                      Field("nbytes", &PlaySamplesReq::nbytes),
                      Field("flags", &PlaySamplesReq::flags, FieldFormat::kHex),
                      CountedBytes("data", &PlaySamplesReq::data, &PlaySamplesReq::nbytes));
  }
};

// RecordSamples flags.
constexpr uint32_t kRecordNoBlock = 1u << 0;       // return what is available
constexpr uint32_t kRecordBigEndianData = 1u << 1; // requested reply byte order

struct RecordSamplesReq : RequestBody<RecordSamplesReq> {
  ACId ac = 0;
  ATime start_time = 0;
  uint32_t nbytes = 0;
  uint32_t flags = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("ac", &RecordSamplesReq::ac),
                      Field("time", &RecordSamplesReq::start_time),
                      Field("nbytes", &RecordSamplesReq::nbytes),
                      Field("flags", &RecordSamplesReq::flags, FieldFormat::kHex));
  }
};

struct GetTimeReq : RequestBody<GetTimeReq> {
  DeviceId device = 0;
  static constexpr auto Fields() { return std::tuple(Field("dev", &GetTimeReq::device)); }
};

// ResyncTime (opcode 40): after a failover reconnect the client re-anchors
// its device-time model. client_watermark is the last device time the
// client observed on its old connection (0 = none); the server answers
// with current device time so the client can measure the audio gap, and
// reports whether this server promoted itself from a backup (and if so the
// op-log watermark it promoted at).
struct ResyncTimeReq : RequestBody<ResyncTimeReq> {
  DeviceId device = 0;
  ATime client_watermark = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &ResyncTimeReq::device),
                      Field("watermark", &ResyncTimeReq::client_watermark));
  }
};

// Telephony ------------------------------------------------------------------

struct QueryPhoneReq : RequestBody<QueryPhoneReq> {
  DeviceId device = 0;
  static constexpr auto Fields() { return std::tuple(Field("dev", &QueryPhoneReq::device)); }
};

struct PassThroughReq : RequestBody<PassThroughReq> {  // Enable/DisablePassThrough
  DeviceId device_a = 0;
  DeviceId device_b = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("dev_a", &PassThroughReq::device_a),
                      Field("dev_b", &PassThroughReq::device_b));
  }
};

struct HookSwitchReq : RequestBody<HookSwitchReq> {
  DeviceId device = 0;
  uint32_t off_hook = 0;  // 1 = off-hook, 0 = on-hook
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &HookSwitchReq::device),
                      Field("off_hook", &HookSwitchReq::off_hook));
  }
};

struct FlashHookReq : RequestBody<FlashHookReq> {
  DeviceId device = 0;
  uint32_t duration_ms = 500;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &FlashHookReq::device),
                      Field("duration_ms", &FlashHookReq::duration_ms));
  }
};

struct GainControlReq : RequestBody<GainControlReq> {  // Enable/DisableGainControl
  DeviceId device = 0;
  static constexpr auto Fields() { return std::tuple(Field("dev", &GainControlReq::device)); }
};

struct DialPhoneReq : RequestBody<DialPhoneReq> {  // obsolete: answered with Obsolete
  DeviceId device = 0;
  std::string number;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &DialPhoneReq::device),
                      Field("number", &DialPhoneReq::number));
  }
};

// I/O control ----------------------------------------------------------------

struct SetGainReq : RequestBody<SetGainReq> {  // SetInputGain / SetOutputGain
  DeviceId device = 0;
  int32_t gain_db = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &SetGainReq::device), Field("gain", &SetGainReq::gain_db));
  }
};

struct QueryGainReq : RequestBody<QueryGainReq> {  // QueryInputGain / QueryOutputGain
  DeviceId device = 0;
  static constexpr auto Fields() { return std::tuple(Field("dev", &QueryGainReq::device)); }
};

struct IOEnableReq : RequestBody<IOEnableReq> {  // Enable/Disable Input/Output
  DeviceId device = 0;
  uint32_t mask = ~0u;  // which inputs/outputs, bit per connector
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &IOEnableReq::device),
                      Field("mask", &IOEnableReq::mask, FieldFormat::kHex));
  }
};

// Access control ---------------------------------------------------------

struct SetAccessControlReq : RequestBody<SetAccessControlReq> {
  uint32_t enabled = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("enabled", &SetAccessControlReq::enabled));
  }
};

enum class HostChangeMode : uint32_t { kInsert = 0, kDelete = 1 };

struct ChangeHostsReq : RequestBody<ChangeHostsReq> {
  HostChangeMode mode = HostChangeMode::kInsert;
  uint32_t family = 0;  // 0 = IPv4, 1 = IPv6, 2 = local
  std::vector<uint8_t> address;
  static constexpr auto Fields() {
    return std::tuple(Field("mode", &ChangeHostsReq::mode),
                      Field("family", &ChangeHostsReq::family),
                      Field("addr", &ChangeHostsReq::address));
  }
};

// Atoms and properties ----------------------------------------------------

struct InternAtomReq : RequestBody<InternAtomReq> {
  uint32_t only_if_exists = 0;
  std::string name;
  static constexpr auto Fields() {
    return std::tuple(Field("only_if_exists", &InternAtomReq::only_if_exists),
                      Field("name", &InternAtomReq::name));
  }
};

struct GetAtomNameReq : RequestBody<GetAtomNameReq> {
  Atom atom = 0;
  static constexpr auto Fields() { return std::tuple(Field("atom", &GetAtomNameReq::atom)); }
};

enum class PropertyMode : uint32_t { kReplace = 0, kPrepend = 1, kAppend = 2 };

struct ChangePropertyReq : RequestBody<ChangePropertyReq> {
  DeviceId device = 0;
  Atom property = 0;
  Atom type = 0;
  uint32_t format = 8;  // 8, 16, or 32
  PropertyMode mode = PropertyMode::kReplace;
  std::vector<uint8_t> data;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &ChangePropertyReq::device),
                      Field("prop", &ChangePropertyReq::property),
                      Field("type", &ChangePropertyReq::type),
                      Field("format", &ChangePropertyReq::format),
                      Field("mode", &ChangePropertyReq::mode),
                      Field("data", &ChangePropertyReq::data));
  }
};

struct DeletePropertyReq : RequestBody<DeletePropertyReq> {
  DeviceId device = 0;
  Atom property = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &DeletePropertyReq::device),
                      Field("prop", &DeletePropertyReq::property));
  }
};

struct GetPropertyReq : RequestBody<GetPropertyReq> {
  DeviceId device = 0;
  Atom property = 0;
  Atom type = kAnyPropertyType;
  uint32_t long_offset = 0;  // in 32-bit units, as in X
  uint32_t long_length = ~0u;
  uint32_t do_delete = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("dev", &GetPropertyReq::device),
                      Field("prop", &GetPropertyReq::property),
                      Field("type", &GetPropertyReq::type),
                      Field("long_offset", &GetPropertyReq::long_offset),
                      Field("long_length", &GetPropertyReq::long_length),
                      Field("delete", &GetPropertyReq::do_delete));
  }
};

struct ListPropertiesReq : RequestBody<ListPropertiesReq> {
  DeviceId device = 0;
  static constexpr auto Fields() { return std::tuple(Field("dev", &ListPropertiesReq::device)); }
};

// Housekeeping -------------------------------------------------------------

struct QueryExtensionReq : RequestBody<QueryExtensionReq> {
  std::string name;
  static constexpr auto Fields() { return std::tuple(Field("name", &QueryExtensionReq::name)); }
};

struct KillClientReq : RequestBody<KillClientReq> {
  uint32_t resource = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("resource", &KillClientReq::resource));
  }
};

// GetTrace flags. Enable applies before the drain, disable after, so
// enable|disable captures exactly one window.
constexpr uint32_t kTraceFlagEnable = 1u << 0;
constexpr uint32_t kTraceFlagDisable = 1u << 1;

struct GetTraceReq : RequestBody<GetTraceReq> {
  uint32_t flags = 0;
  static constexpr auto Fields() {
    return std::tuple(Field("flags", &GetTraceReq::flags, FieldFormat::kHex));
  }
};

// The body of ListHosts, NoOperation, SyncConnection, ListExtensions and
// GetServerStats.
struct EmptyReq : RequestBody<EmptyReq> {
  static constexpr auto Fields() { return std::tuple<>(); }
};

// ---------------------------------------------------------------------------
// Server-to-client packets

constexpr uint8_t kErrorPacketType = 0;
constexpr uint8_t kReplyPacketType = 1;

struct ErrorPacket {
  AfError code = AfError::kSuccess;
  uint16_t seq = 0;
  Opcode opcode = Opcode::kNoOperation;
  uint8_t ext = 0;
  uint32_t value = 0;  // offending value, when meaningful
  void Encode(WireWriter& w) const;
  // data must be exactly 32 bytes beginning with the type byte 0.
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ErrorPacket* out);
};

// Generic reply header view: first 8 bytes of any reply.
struct ReplyHeader {
  uint8_t data0 = 0;
  uint16_t seq = 0;
  uint32_t extra_words = 0;
};
// Parses the fixed part of a 32-byte reply unit.
bool PeekReplyHeader(std::span<const uint8_t> unit, WireOrder order, ReplyHeader* out);

// Base of every reply T with a table layout: Encode and Decode derived
// from T::Fields(). The 32-byte unit is the type byte 1, a zero data byte,
// the sequence number and the extra data's length in words, then T's fixed
// fields and zero pad; a Trailing row's items follow it as the extra data.
// Decode takes the whole reply (32 bytes + extra) and rejects a wrong type
// byte, a short unit, or a Trailing count longer than the extra data.
template <typename T>
struct ReplyBody {
  void Encode(WireWriter& w, uint16_t seq) const {
    const T& self = static_cast<const T&>(*this);
    const size_t start = w.size();
    w.U8(kReplyPacketType);
    w.U8(0);
    w.U16(seq);
    w.U32(static_cast<uint32_t>(ExtraBytes(self) / 4));
    EncodeFields(w, self);
    w.Zero(kReplyBaseBytes - (w.size() - start));
    std::apply([&](const auto&... row) { (detail::EncodeTrailing(w, self, row), ...); },
               T::Fields());
  }
  static bool Decode(std::span<const uint8_t> data, WireOrder order, T* out) {
    static_assert(detail::FixedBytes<T>() <= kReplyBaseBytes - 8,
                  "a reply's fixed fields fit its 32-byte unit");
    static_assert(detail::TrailingRowIsLast(T::Fields()), "extra data is the last row");
    if (data.size() < kReplyBaseBytes || data[0] != kReplyPacketType) {
      return false;
    }
    WireReader r(data, order);
    r.Skip(8);
    return DecodeFields(r, out);
  }

 private:
  static size_t ExtraBytes(const T& self) {
    return std::apply(
        [&](const auto&... row) { return (size_t{0} + ... + detail::TrailingBytes(self, row)); },
        T::Fields());
  }
};

// GetTime's reply, and PlaySamples' (paper: play and record return device
// time as a convenience).
struct GetTimeReply : ReplyBody<GetTimeReply> {
  ATime time = 0;
  static constexpr auto Fields() { return std::tuple(Field("time", &GetTimeReply::time)); }
};
using PlaySamplesReply = GetTimeReply;

struct ResyncTimeReply : ReplyBody<ResyncTimeReply> {
  ATime server_time = 0;          // device time when the resync was served
  ATime promoted_watermark = 0;   // op-log device-time watermark at promotion
  uint32_t promoted = 0;          // 1 if this server promoted from a backup
  static constexpr auto Fields() {
    return std::tuple(Field("server_time", &ResyncTimeReply::server_time),
                      Field("promoted_watermark", &ResyncTimeReply::promoted_watermark),
                      Field("promoted", &ResyncTimeReply::promoted));
  }
};

// The RecordSamples reply as a view: `data` is the caller's span when
// encoding (the server writes straight from the device's scratch arena) and
// a view into the reply when decoding (the library's record path copies it
// straight into the caller's buffer), so neither direction stages a copy.
struct RecordSamplesView : ReplyBody<RecordSamplesView> {
  ATime time = 0;                 // current device time
  std::span<const uint8_t> data;  // the sample bytes
  static constexpr auto Fields() {
    return std::tuple(Field("time", &RecordSamplesView::time),
                      Trailing("data", &RecordSamplesView::data));
  }
};

// The RecordSamples reply holding its samples: RecordSamplesView's layout,
// with Decode copying the samples out of the reply.
struct RecordSamplesReply {
  ATime time = 0;  // current device time
  std::vector<uint8_t> data;
  void Encode(WireWriter& w, uint16_t seq) const { EncodeTo(w, seq, time, data); }
  static void EncodeTo(WireWriter& w, uint16_t seq, ATime time,
                       std::span<const uint8_t> data) {
    RecordSamplesView view;
    view.time = time;
    view.data = data;
    view.Encode(w, seq);
  }
  static bool Decode(std::span<const uint8_t> data, WireOrder order, RecordSamplesReply* out) {
    RecordSamplesView view;
    if (!RecordSamplesView::Decode(data, order, &view)) {
      return false;
    }
    out->time = view.time;
    out->data.assign(view.data.begin(), view.data.end());
    return true;
  }
};

struct QueryPhoneReply : ReplyBody<QueryPhoneReply> {
  uint32_t off_hook = 0;      // hookswitch state
  uint32_t loop_current = 0;  // extension phone state
  static constexpr auto Fields() {
    return std::tuple(Field("off_hook", &QueryPhoneReply::off_hook),
                      Field("loop_current", &QueryPhoneReply::loop_current));
  }
};

struct QueryGainReply : ReplyBody<QueryGainReply> {
  int32_t gain_db = 0;
  int32_t min_db = kGainMinDb;
  int32_t max_db = kGainMaxDb;
  static constexpr auto Fields() {
    return std::tuple(Field("gain", &QueryGainReply::gain_db),
                      Field("min", &QueryGainReply::min_db),
                      Field("max", &QueryGainReply::max_db));
  }
};

struct InternAtomReply : ReplyBody<InternAtomReply> {
  Atom atom = 0;
  static constexpr auto Fields() { return std::tuple(Field("atom", &InternAtomReply::atom)); }
};

struct GetAtomNameReply : ReplyBody<GetAtomNameReply> {
  std::string name;
  static constexpr auto Fields() { return std::tuple(Trailing("name", &GetAtomNameReply::name)); }
};

struct GetPropertyReply : ReplyBody<GetPropertyReply> {
  Atom type = 0;
  uint32_t format = 0;
  uint32_t bytes_after = 0;
  std::vector<uint8_t> data;
  static constexpr auto Fields() {
    return std::tuple(Field("type", &GetPropertyReply::type),
                      Field("format", &GetPropertyReply::format),
                      Field("bytes_after", &GetPropertyReply::bytes_after),
                      Trailing("data", &GetPropertyReply::data));
  }
};

struct ListPropertiesReply : ReplyBody<ListPropertiesReply> {
  std::vector<Atom> atoms;
  static constexpr auto Fields() {
    return std::tuple(Trailing("atoms", &ListPropertiesReply::atoms));
  }
};

// Empty-bodied acknowledgement (SyncConnection).
struct EmptyReply : ReplyBody<EmptyReply> {
  static constexpr auto Fields() { return std::tuple<>(); }
};

// ListHosts' host entries carry 16-bit counts and pad each entry to 4, so
// this reply keeps a hand-written codec (DESIGN.md section 5).
struct HostEntry {
  uint16_t family = 0;
  std::vector<uint8_t> address;
};

struct ListHostsReply {
  uint32_t enabled = 0;
  std::vector<HostEntry> hosts;
  void Encode(WireWriter& w, uint16_t seq) const;
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ListHostsReply* out);
};

}  // namespace af

#endif  // AF_PROTO_REQUESTS_H_
