// The receive side of a byte stream, shared by both ends of a connection:
// the server's per-client request input (ClientConn) and the client
// library's reply/event input (AFAudioConn).
//
// Bytes read from the socket land in spare capacity at the tail, which is
// never zero-filled first; messages are framed in place from the head. The
// storage is compacted (live bytes moved to the front) or grown only when
// less than one read chunk is free at the tail, and that happens only
// inside Tail(), i.e. inside a fill. So a view returned by Buffered()
// stays valid, byte for byte, until the next Tail() call - Consume() never
// moves a byte.
#ifndef AF_TRANSPORT_RECV_BUFFER_H_
#define AF_TRANSPORT_RECV_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace af {

class RecvBuffer {
 public:
  // The least spare capacity a fill offers the kernel.
  static constexpr size_t kReadChunk = 16384;

  // Bytes received and not yet consumed.
  std::span<const uint8_t> Buffered() const {
    return std::span<const uint8_t>(data_.get() + begin_, end_ - begin_);
  }
  size_t size() const { return end_ - begin_; }

  // Drops n bytes from the head. When that empties the buffer, both
  // offsets rewind to zero (no byte moves), so the steady state of one
  // message per read never compacts.
  void Consume(size_t n);

  // Spare capacity at the tail to read into: at least kReadChunk bytes,
  // compacting or growing first when less than that is free. Invalidates
  // every view handed out before the call.
  std::span<uint8_t> Tail();
  // Marks the first n bytes of the last Tail() as received.
  void Commit(size_t n) { end_ += n; }

  // Drops everything buffered; the storage is kept.
  void Clear() { begin_ = end_ = 0; }

 private:
  std::unique_ptr<uint8_t[]> data_;  // default-initialised: never zero-filled
  size_t capacity_ = 0;
  size_t begin_ = 0;  // first unconsumed byte
  size_t end_ = 0;    // one past the last received byte
};

}  // namespace af

#endif  // AF_TRANSPORT_RECV_BUFFER_H_
