// Human-readable protocol decoding: one line per message, for every
// request opcode, the setup exchange, and every server-to-client packet
// type. Shared by the asniff proxy (the xscope analogue for AudioFile)
// and the decoder tests.
//
// All decoders are crash-safe on truncated or corrupt input: they read
// through the bounds-checked WireReader and annotate the line with
// "<truncated>" instead of trusting wire lengths.
#ifndef AF_PROTO_DECODE_H_
#define AF_PROTO_DECODE_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "proto/wire.h"

namespace af {

// msg is the complete framed request: 4-byte header plus body.
std::string DecodeRequestLine(std::span<const uint8_t> msg, WireOrder order);

// msg is one server-to-client message: a 32-byte unit (error/event) or a
// 32-byte reply unit followed by its extra data.
std::string DecodeServerLine(std::span<const uint8_t> msg, WireOrder order);

// msg is the complete setup request (byte-order mark onward) / reply.
std::string DecodeSetupRequestLine(std::span<const uint8_t> msg);
std::string DecodeSetupReplyLine(std::span<const uint8_t> msg, WireOrder order);

// Incremental framing decoder for one direction of a connection. Feed it
// raw bytes as they pass; it frames messages (setup first, then requests
// or reply/error/event units) and emits one decoded line per message.
//
// Messages are framed by the function for the decoder's direction
// (proto/framing.h), as the server and the client library frame them. The
// client-to-server direction learns the byte order from the setup
// byte-order mark; a sniffer propagates it to the paired server-to-client
// decoder via SetOrder. Once the client-to-server framing is malformed (a
// bad byte-order mark, a zero-length request) the decoder reports it once,
// sets saw_error(), and swallows the rest of the stream — a sniffer must
// not die just because the traffic did. The server-to-client framing never
// is: an unknown packet type is a bare unit, decoded as such.
class StreamDecoder {
 public:
  enum class Dir { kClientToServer, kServerToClient };
  using Sink = std::function<void(const std::string&)>;

  explicit StreamDecoder(Dir dir) : dir_(dir) {}

  void Feed(std::span<const uint8_t> data, const Sink& sink);

  void SetOrder(WireOrder order) {
    order_ = order;
    have_order_ = true;
  }
  WireOrder order() const { return order_; }
  bool have_order() const { return have_order_; }
  bool saw_error() const { return saw_error_; }
  uint64_t messages() const { return messages_; }

 private:
  Dir dir_;
  std::vector<uint8_t> buf_;
  WireOrder order_ = HostWireOrder();
  bool have_order_ = false;
  bool setup_done_ = false;
  bool saw_error_ = false;
  uint64_t messages_ = 0;
};

}  // namespace af

#endif  // AF_PROTO_DECODE_H_
