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
#include <vector>

#include "common/endian.h"

namespace af {

enum class WireOrder : uint8_t { kLittle, kBig };

constexpr WireOrder HostWireOrder() {
  return HostIsLittleEndian() ? WireOrder::kLittle : WireOrder::kBig;
}

// Pads n up to the next multiple of 4.
constexpr size_t Pad4(size_t n) { return (n + 3) & ~size_t{3}; }

// Output buffer capacity either end keeps across flushes (the argument to
// WireWriter::Reset, and the server's cap on a recycled egress segment).
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

  // Hands the writer a (recycled) buffer to append into, replacing the
  // current one. Pairs with Take(): the egress path moves staged bytes out
  // and gives back a drained segment, so the steady state never allocates.
  void AdoptBuffer(std::vector<uint8_t> buf) {
    buf_ = std::move(buf);
    buf_.clear();
  }

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

}  // namespace af

#endif  // AF_PROTO_WIRE_H_
