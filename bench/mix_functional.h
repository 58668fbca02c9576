// Functional (decode-add-encode per sample) block mixes: the non-table
// path the paper's 64K AF_mix_u / AF_mix_a tables replace. The server
// mixes only through the tables (dsp/mix.h); these forms exist for the
// table-versus-functional comparison in bench_ablation and bench_dsp.
#ifndef AF_BENCH_MIX_FUNCTIONAL_H_
#define AF_BENCH_MIX_FUNCTIONAL_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "dsp/mix.h"

namespace af::bench {

inline void MixMulawBlockFunctional(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  const size_t n = std::min(dst.size(), src.size());
  for (size_t i = 0; i < n; ++i) {
    dst[i] = MixMulaw(dst[i], src[i]);
  }
}

inline void MixAlawBlockFunctional(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  const size_t n = std::min(dst.size(), src.size());
  for (size_t i = 0; i < n; ++i) {
    dst[i] = MixAlaw(dst[i], src[i]);
  }
}

}  // namespace af::bench

#endif  // AF_BENCH_MIX_FUNCTIONAL_H_
