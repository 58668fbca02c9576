// The send side of a byte stream: one buffer that encoders append to and
// plain writes drain. The server's ClientConn and the replication primary's
// link both queue their output here.
//
// Bytes move only inside Flush, never during an encode, so an offset into
// out() (a PatchU32 target) stays valid until the next Flush. A full drain
// resets the writer, releasing capacity above kWriterKeepCapacity. After a
// partial drain the sent prefix is dropped (one memmove) once it is at least
// as large as the unsent rest, so a peer that never catches up costs about
// twice its unsent bytes and no allocation per reply.
#ifndef AF_SERVER_SEND_BUFFER_H_
#define AF_SERVER_SEND_BUFFER_H_

#include <cstddef>

#include "proto/wire.h"
#include "transport/fault_stream.h"

namespace af {

class SendBuffer {
 public:
  explicit SendBuffer(WireOrder order = HostWireOrder()) : out_(order) {}

  // Encoders append here.
  WireWriter& out() { return out_; }
  // Bytes appended and not yet written.
  size_t unsent() const { return out_.size() - sent_; }

  // Writes the unsent bytes with plain stream writes, calling
  // on_write(bytes) after each write, until everything is sent (kOk) or
  // the stream reports kWouldBlock, kClosed or kError: the write that
  // stopped the flush is returned.
  template <typename OnWrite>
  IoResult Flush(FaultStream& stream, OnWrite on_write) {
    while (sent_ < out_.size()) {
      const IoResult r = stream.Write(out_.data().data() + sent_, unsent());
      if (r.status != IoStatus::kOk) {
        if (sent_ >= unsent()) {
          out_.DropFront(sent_);
          sent_ = 0;
        }
        return r;
      }
      sent_ += r.bytes;
      on_write(r.bytes);
    }
    Clear();
    return {IoStatus::kOk};
  }

  // Drops everything, sent or not.
  void Clear() {
    out_.Reset(kWriterKeepCapacity);
    sent_ = 0;
  }

 private:
  WireWriter out_;
  size_t sent_ = 0;  // leading bytes of out_ already written
};

}  // namespace af

#endif  // AF_SERVER_SEND_BUFFER_H_
