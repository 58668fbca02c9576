// Reusable staging buffers for the play/record hot path.
//
// Every PlaySamples/RecordSamples request needs up to a handful of staging
// buffers (endian normalization, companded decode, mono channel
// extraction). Allocating them per request is exactly the steady-state
// churn CRL 93/8 Section 10 budgets against, so the server keeps one
// ScratchArena per buffered device: a fixed set of growable,
// never-shrinking byte buffers that conversion modules borrow spans from.
// After a short warm-up the arena reaches the high-water size of the
// traffic and the streaming path performs zero heap allocations.
//
// Ownership rules (documented in DESIGN.md):
//   - Spans are valid until the *same slot* is requested again; each
//     pipeline stage uses a distinct slot so stages can read the previous
//     stage's output.
//   - The arena is single-threaded, like the server loop that owns it.
//   - Conversion results handed upward (convert_play / convert_record /
//     Record) alias the arena (or the caller's input, for pass-through)
//     and must be consumed before the next request on the same device.
#ifndef AF_SERVER_SCRATCH_ARENA_H_
#define AF_SERVER_SCRATCH_ARENA_H_

#include <cstdint>
#include <span>
#include <vector>

namespace af {

class ScratchArena {
 public:
  // Pipeline-stage roles; one buffer per role so stages never alias by
  // accident.
  enum Slot {
    kConvertA = 0,  // first conversion stage (decode / endian normalize)
    kConvertB,      // second conversion stage (re-encode)
    kStage,         // device-buffer read staging (updates, record gather)
    kChannel,       // mono channel extraction from interleaved frames
    kSlotCount
  };

  // A span of n bytes backed by the slot's buffer. Grows the buffer
  // geometrically when needed; never shrinks (steady state: no
  // allocation). Contents are uninitialized.
  std::span<uint8_t> Bytes(Slot slot, size_t n) {
    std::vector<uint8_t>& buf = bufs_[slot];
    if (buf.size() < n) {
      buf.resize(n < 2 * buf.size() ? 2 * buf.size() : n);
    }
    return std::span<uint8_t>(buf.data(), n);
  }

  // The same storage viewed as n int16 samples (vector storage is
  // malloc-aligned, well above alignof(int16_t)).
  std::span<int16_t> Lin16(Slot slot, size_t n) {
    std::span<uint8_t> bytes = Bytes(slot, n * 2);
    return std::span<int16_t>(reinterpret_cast<int16_t*>(bytes.data()), n);
  }

  // Whether p points into one of the arena's buffers: distinguishes a
  // staged conversion from a zero-copy window of the client's own bytes.
  bool Owns(const void* p) const {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    for (const std::vector<uint8_t>& buf : bufs_) {
      if (!buf.empty() && b >= buf.data() && b < buf.data() + buf.size()) {
        return true;
      }
    }
    return false;
  }

  // High-water footprint, for tests and introspection.
  size_t TotalBytes() const {
    size_t total = 0;
    for (const std::vector<uint8_t>& buf : bufs_) {
      total += buf.size();
    }
    return total;
  }

 private:
  std::vector<uint8_t> bufs_[kSlotCount];
};

}  // namespace af

#endif  // AF_SERVER_SCRATCH_ARENA_H_
