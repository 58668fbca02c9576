// Server-side audio contexts.
//
// An audio context (AC) encapsulates the per-client parameters of play and
// record: play gain, preemption flag, sample encoding, byte order, and
// channel count (CRL 93/8 Section 5.6). When an AC is created the device
// selects conversion handlers that translate between the client's encoding
// and the device's native one - the paper's ACOps conversion modules.
#ifndef AF_SERVER_AUDIO_CONTEXT_H_
#define AF_SERVER_AUDIO_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.h"
#include "proto/requests.h"
#include "proto/types.h"
#include "server/scratch_arena.h"

namespace af {

class AudioDevice;

// Conversion module: translates client sample bytes to device frame bytes
// (play) or back (record). big_endian_data describes the client's sample
// byte order for multi-byte encodings.
//
// Conversions are allocation-free at steady state: output is written into
// spans borrowed from the caller's ScratchArena (or, when the encodings
// and byte order already match, the input span is returned unchanged - a
// true pass-through). Returned spans are valid until the next request on
// the same arena.
struct ACOps {
  // Returns device-encoded bytes for frames [skip_frames, skip_frames +
  // nframes) of the request. The full request is passed so stateful
  // encodings (ADPCM nibble streams) can decode from the stream start; no
  // gain is applied (gain is separate).
  std::function<std::span<const uint8_t>(std::span<const uint8_t> client_bytes,
                                         bool big_endian, size_t skip_frames,
                                         size_t nframes, ScratchArena& arena)>
      convert_play;
  // Converts device frames to the client encoding/byte order.
  std::function<std::span<const uint8_t>(std::span<const uint8_t> device_bytes,
                                         bool big_endian, ScratchArena& arena)>
      convert_record;
  // How many device frames the given count of client bytes represents.
  std::function<size_t(size_t client_bytes)> client_bytes_to_frames;
  // How many client bytes carry the given count of device frames.
  std::function<size_t(size_t frames)> frames_to_client_bytes;
  // Partial-consumption granularity: a suspended play request may only be
  // split at multiples of this many frames (2 for 4-bit ADPCM).
  unsigned samples_per_unit = 1;
};

struct ServerAC {
  ACId id = 0;
  AudioDevice* device = nullptr;
  ACAttributes attrs;
  ACOps ops;
  // The first record under a context marks it recording; devices count
  // recording contexts to gate the record update (Section 7.4.1).
  bool recording = false;
  // Fan-in tracking: the device's update-window epoch this AC last played
  // in (BufferedAudioDevice counts distinct sources per window with it).
  // Touched only under the device lock, like the rest of the device.
  uint64_t play_epoch = 0;
};

}  // namespace af

#endif  // AF_SERVER_AUDIO_CONTEXT_H_
