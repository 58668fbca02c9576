// Cursor-based wire encoding and decoding.
//
// All multi-byte integers travel in the byte order the client announced at
// connection setup ('l' or 'B'); the peer that differs swaps. WireWriter
// and WireReader take the order explicitly so the swap path is exercised on
// every host. Data is kept naturally aligned inside requests and padded to
// 32-bit boundaries, as the protocol specifies.
#ifndef AF_PROTO_WIRE_H_
#define AF_PROTO_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/endian.h"
#include "proto/types.h"

namespace af {

enum class WireOrder : uint8_t { kLittle, kBig };

constexpr WireOrder HostWireOrder() {
  return HostIsLittleEndian() ? WireOrder::kLittle : WireOrder::kBig;
}

// Pads n up to the next multiple of 4.
constexpr size_t Pad4(size_t n) { return (n + 3) & ~size_t{3}; }

// Output buffer capacity either end keeps across flushes (the argument to
// WireWriter::Reset after the client's Flush and after a full drain of the
// server's SendBuffer).
constexpr size_t kWriterKeepCapacity = 65536;

class WireWriter {
 public:
  explicit WireWriter(WireOrder order = HostWireOrder()) : order_(order) {}

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Bytes(std::span<const uint8_t> data);
  void Bytes(const void* data, size_t n);
  // String bytes followed by zero padding to a 4-byte boundary.
  void PaddedString(std::string_view s);
  // Zero padding to a 4-byte boundary.
  void AlignPad();
  // n zero bytes.
  void Zero(size_t n);

  // Overwrites a previously written 16/32-bit field at a byte offset.
  void PatchU16(size_t offset, uint16_t v);
  void PatchU32(size_t offset, uint32_t v);

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  WireOrder order() const { return order_; }

  // Drops the first n bytes, moving the rest to the front; the capacity is
  // kept. Offsets held into the buffer shift down by n.
  void DropFront(size_t n) { buf_.erase(buf_.begin(), buf_.begin() + n); }

  // Clears the buffer for reuse. The heap allocation is kept so
  // steady-state replies do not reallocate each flush cycle; capacity
  // above max_keep_capacity is released so one oversized reply does not
  // pin its memory for the life of the connection.
  void Reset(size_t max_keep_capacity) {
    if (buf_.capacity() > max_keep_capacity) {
      std::vector<uint8_t>().swap(buf_);
    } else {
      buf_.clear();
    }
  }

 private:
  WireOrder order_;
  std::vector<uint8_t> buf_;
};

// Bounds-checked reader. Any out-of-range read sets a sticky failure flag
// and returns zeroes; callers check ok() once at the end (the server turns
// a failed decode into a BadLength error).
class WireReader {
 public:
  WireReader(std::span<const uint8_t> data, WireOrder order = HostWireOrder())
      : data_(data), order_(order) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  // A view of n raw bytes (no copy). Empty on bounds failure.
  std::span<const uint8_t> Bytes(size_t n);
  // n string bytes plus padding consumed to the 4-byte boundary.
  std::string PaddedString(size_t n);
  void Skip(size_t n);
  void AlignSkip();  // skip to next 4-byte boundary

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  WireOrder order() const { return order_; }

 private:
  bool Need(size_t n);

  std::span<const uint8_t> data_;
  WireOrder order_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Wire structs
//
// A wire struct lists its fields once, in wire order, in
// `static constexpr auto Fields()`; these lists are the normative layouts
// of the request bodies, replies, events, op-log records and device
// descriptions, and EncodeFields and DecodeFields derive from them. The
// member's type decides the wire form:
//   uint8_t, uint16_t, uint64_t        that many bytes
//   uint32_t, int32_t, enum            one 32-bit word (an enum by its width)
//   std::string, std::vector<uint8_t>  32-bit count, the bytes, zero pad to 4
//   a struct with its own Fields()     its fields in order
// Two row kinds put their bytes elsewhere:
//   CountedBytes  raw bytes counted by another field of the same body (a
//                 request's play data; EndRequest pads them)
//   Trailing      a reply's extra data: the count word sits in the fixed
//                 part and the items follow the 32-byte unit (ReplyBody)
// The rows expand at compile time, so the codecs are the same straight-line
// reads and writes a hand-written one would be.

// How asniff prints a word field: masks and flags read best in hex.
enum class FieldFormat : uint8_t { kDecimal, kHex };

template <typename T, typename M>
struct FieldRow {
  const char* name;
  M T::*member;
  FieldFormat format;
};

// Raw bytes whose count travels in another field of the same body.
template <typename T>
struct CountedBytesRow {
  const char* name;
  std::span<const uint8_t> T::*member;
  uint32_t T::*count;
};

// A reply's extra data, the last row of its struct: bytes (a string, a byte
// vector or a view) padded to 4, or 32-bit words (std::vector<uint32_t>).
template <typename T, typename M>
struct TrailingRow {
  const char* name;
  M T::*member;
};

template <typename T, typename M>
constexpr FieldRow<T, M> Field(const char* name, M T::*member,
                               FieldFormat format = FieldFormat::kDecimal) {
  return {name, member, format};
}

template <typename T>
constexpr CountedBytesRow<T> CountedBytes(const char* name,
                                          std::span<const uint8_t> T::*member,
                                          uint32_t T::*count) {
  return {name, member, count};
}

template <typename T, typename M>
constexpr TrailingRow<T, M> Trailing(const char* name, M T::*member) {
  return {name, member};
}

template <typename T>
concept HasFields = requires { T::Fields(); };

template <HasFields T>
void EncodeFields(WireWriter& w, const T& v);
// False when the bounds-checked reader ran out.
template <HasFields T>
bool DecodeFields(WireReader& r, T* v);

namespace detail {

template <typename M>
void EncodeValue(WireWriter& w, const M& v) {
  if constexpr (std::is_same_v<M, std::string>) {
    w.U32(static_cast<uint32_t>(v.size()));
    w.PaddedString(v);
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    w.U32(static_cast<uint32_t>(v.size()));
    w.Bytes(v);
    w.AlignPad();
  } else if constexpr (HasFields<M>) {
    EncodeFields(w, v);
  } else {
    static_assert(std::is_integral_v<M> || std::is_enum_v<M>,
                  "a scalar field is an integer or enum");
    if constexpr (sizeof(M) == 1) {
      w.U8(static_cast<uint8_t>(v));
    } else if constexpr (sizeof(M) == 2) {
      w.U16(static_cast<uint16_t>(v));
    } else if constexpr (sizeof(M) == 4) {
      w.U32(static_cast<uint32_t>(v));
    } else {
      static_assert(sizeof(M) == 8, "a scalar field is 1, 2, 4 or 8 bytes");
      w.U64(static_cast<uint64_t>(v));
    }
  }
}

template <typename M>
void DecodeValue(WireReader& r, M* v) {
  if constexpr (std::is_same_v<M, std::string>) {
    const uint32_t len = r.U32();
    *v = r.PaddedString(len);
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    const uint32_t len = r.U32();
    const std::span<const uint8_t> bytes = r.Bytes(len);
    v->assign(bytes.begin(), bytes.end());
    r.AlignSkip();
  } else if constexpr (HasFields<M>) {
    DecodeFields(r, v);
  } else if constexpr (sizeof(M) == 1) {
    *v = static_cast<M>(r.U8());
  } else if constexpr (sizeof(M) == 2) {
    *v = static_cast<M>(r.U16());
  } else if constexpr (sizeof(M) == 4) {
    *v = static_cast<M>(r.U32());
  } else {
    *v = static_cast<M>(r.U64());
  }
}

template <typename M>
constexpr size_t kItemBytes = std::is_same_v<M, std::vector<uint32_t>> ? 4 : 1;

template <typename T, typename M>
void EncodeRow(WireWriter& w, const T& body, const FieldRow<T, M>& row) {
  EncodeValue(w, body.*row.member);
}
template <typename T>
void EncodeRow(WireWriter& w, const T& body, const CountedBytesRow<T>& row) {
  w.Bytes(body.*row.member);
}
template <typename T, typename M>
void EncodeRow(WireWriter& w, const T& body, const TrailingRow<T, M>& row) {
  w.U32(static_cast<uint32_t>((body.*row.member).size()));  // the items follow the unit
}
template <typename T, typename M>
void DecodeRow(WireReader& r, T* body, const FieldRow<T, M>& row) {
  DecodeValue(r, &(body->*row.member));
}
template <typename T>
void DecodeRow(WireReader& r, T* body, const CountedBytesRow<T>& row) {
  body->*row.member = r.Bytes(body->*row.count);  // a view into the request
}
// r reads the whole reply from its first byte (ReplyBody::Decode). The
// count is checked against the extra data once, in size_t arithmetic, so a
// lying count can neither wrap the check nor size an allocation.
template <typename T, typename M>
void DecodeRow(WireReader& r, T* body, const TrailingRow<T, M>& row) {
  const uint32_t count = r.U32();
  r.Skip(kReplyBaseBytes - r.position());  // past the unit's pad
  const std::span<const uint8_t> items = r.Bytes(size_t{count} * kItemBytes<M>);
  M& v = body->*row.member;
  if constexpr (std::is_same_v<M, std::span<const uint8_t>>) {
    v = items;  // a view into the reply
  } else if constexpr (std::is_same_v<M, std::vector<uint32_t>>) {
    WireReader words(items, r.order());
    v.resize(items.size() / 4);
    for (uint32_t& word : v) {
      word = words.U32();
    }
  } else {
    v.assign(items.begin(), items.end());
  }
}

// A Trailing row's items: the reply's extra data, padded to 4.
template <typename T, typename Row>
size_t TrailingBytes(const T&, const Row&) {
  return 0;
}
template <typename T, typename M>
size_t TrailingBytes(const T& body, const TrailingRow<T, M>& row) {
  return Pad4((body.*row.member).size() * kItemBytes<M>);
}
template <typename T, typename Row>
void EncodeTrailing(WireWriter&, const T&, const Row&) {}
template <typename T, typename M>
void EncodeTrailing(WireWriter& w, const T& body, const TrailingRow<T, M>& row) {
  const M& v = body.*row.member;
  if constexpr (std::is_same_v<M, std::vector<uint32_t>>) {
    for (const uint32_t word : v) {
      w.U32(word);
    }
  } else {
    w.Bytes(v.data(), v.size());
    w.AlignPad();
  }
}

// Wire bytes of a struct's fixed part (scalar and nested rows, and a
// Trailing row's count word).
template <HasFields T>
constexpr size_t FixedBytes();
template <typename T, typename M>
constexpr size_t RowBytes(const FieldRow<T, M>&) {
  if constexpr (HasFields<M>) {
    return FixedBytes<M>();
  } else {
    static_assert(std::is_integral_v<M> || std::is_enum_v<M>, "a fixed part holds scalars");
    return sizeof(M);
  }
}
template <typename T, typename M>
constexpr size_t RowBytes(const TrailingRow<T, M>&) {
  return 4;
}
template <HasFields T>
constexpr size_t FixedBytes() {
  return std::apply([](const auto&... row) { return (size_t{0} + ... + RowBytes(row)); },
                    T::Fields());
}

// A Trailing row's items follow everything else, so it must be the last row.
template <typename Row>
constexpr bool kIsTrailing = false;
template <typename T, typename M>
constexpr bool kIsTrailing<TrailingRow<T, M>> = true;
template <typename... Rows>
constexpr bool TrailingRowIsLast(const std::tuple<Rows...>&) {
  const bool trailing[] = {kIsTrailing<Rows>..., false};
  for (size_t i = 0; i + 2 < std::size(trailing); ++i) {
    if (trailing[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

template <HasFields T>
void EncodeFields(WireWriter& w, const T& v) {
  std::apply([&](const auto&... row) { (detail::EncodeRow(w, v, row), ...); }, T::Fields());
}

template <HasFields T>
bool DecodeFields(WireReader& r, T* v) {
  std::apply([&](const auto&... row) { (detail::DecodeRow(r, v, row), ...); }, T::Fields());
  return r.ok();
}

}  // namespace af

#endif  // AF_PROTO_WIRE_H_
