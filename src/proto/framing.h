// Message framing: where the next message in a byte stream ends, one
// function per direction. AudioFile frames its streams as X11 does (CRL
// 93/8 Section 5), and these functions are that rule: every reader (the
// server's connections, the client library, asniff, the tests' raw
// clients) asks them rather than working a length out itself.
#ifndef AF_PROTO_FRAMING_H_
#define AF_PROTO_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "proto/wire.h"

namespace af {

// The two results that are not a length. Every message is at least 4
// bytes long, so neither is ever one.
constexpr size_t kFrameNeedMore = 0;          // more bytes may complete it
constexpr size_t kFrameMalformed = SIZE_MAX;  // no bytes ever will

// The next client-to-server message at the head of buf. Until setup is
// done that is the setup request: a 12-byte prefix, then the auth name and
// data it announces, each padded to 4. After it, a request in `order`,
// whose header gives its length in 32-bit words. Returns the length once
// all of it is buffered and kFrameNeedMore before that. kFrameMalformed is
// a setup byte-order mark other than 'l' or 'B' (judged once the prefix is
// in) or a request header announcing zero words.
size_t FrameClientMessage(std::span<const uint8_t> buf, bool setup_done, WireOrder order);

// The next server-to-client message at the head of buf, in `order`. Until
// setup is done that is the setup reply: an 8-byte prefix, then the words
// it announces. After it, a 32-byte unit; a reply unit (type 1) is followed
// by the extra data its header counts in words. Any other type byte, known
// or not, is a bare unit, so this direction is never malformed: the result
// is the length once all of it is buffered, else kFrameNeedMore.
size_t FrameServerMessage(std::span<const uint8_t> buf, bool setup_done, WireOrder order);

}  // namespace af

#endif  // AF_PROTO_FRAMING_H_
