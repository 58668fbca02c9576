// Floor microbenches: each layer's public entry points timed alone, at a
// workload's exact request shape, outside the timed phase (no server
// threads are running while they do).
#ifndef AF_PERFBENCH_FLOORS_H_
#define AF_PERFBENCH_FLOORS_H_

#include <cstdint>

#include "workloads.h"

namespace af::perfbench {

// Medians over repeated batches. A value the shape does not exercise
// (record on a play workload, play on the record workload) stays 0.
struct Floors {
  double proto_encode_ns = 0;         // one op's requests encoded
  double proto_decode_ns = 0;         // one op's replies decoded
  double transport_pingpong_us = 0;   // one op's round trips on a bare socketpair
  double transport_copy_ns = 0;       // one op's bytes written and read, one thread
  double devices_play_ns = 0;         // AudioDevice::Play of one block
  double devices_update_ns = 0;       // AudioDevice::Update after one block of time
  double devices_record_ns = 0;       // AudioDevice::Record of one 8 KiB chunk
  double dsp_encode_ns = 0;           // EncodeMulawBlock at the block size
  double dsp_decode_ns = 0;           // DecodeMulawBlock at the block size
  double dsp_mix_gain_ns = 0;         // MixMulawGainBlock at the block size
};

Floors RunFloors(const Shape& shape, uint64_t seed);

}  // namespace af::perfbench

#endif  // AF_PERFBENCH_FLOORS_H_
