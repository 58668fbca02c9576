// Sample mixing.
//
// The server mixes play data from multiple clients into a common buffer by
// default (CRL 93/8 Section 7.2); preemptive play overwrites instead. For
// companded data the correct mix is decode-add-saturate-reencode; the paper
// provides a 64K two-operand lookup table (AF_mix_u / AF_mix_a) for speed.
// The block forms mix through the tables; the per-sample functional form
// (MixMulaw/MixAlaw) builds them, and bench/mix_functional.h runs it over
// whole blocks for the table-versus-functional comparison.
#ifndef AF_DSP_MIX_H_
#define AF_DSP_MIX_H_

#include <cstdint>
#include <span>

#include "dsp/gain.h"

namespace af {

// Mixes two encoded samples (decode, saturating add, re-encode).
uint8_t MixMulaw(uint8_t a, uint8_t b);
uint8_t MixAlaw(uint8_t a, uint8_t b);

// 64K lookup tables: row-major [a][b] -> mixed byte.
const uint8_t* MulawMixTable();
const uint8_t* AlawMixTable();

// Saturating add of two 16-bit samples.
int16_t MixLin16(int16_t a, int16_t b);

// dst[i] = mix(dst[i], src[i]) for the overlapping prefix. Dispatches to
// an unrolled (table) or SSE2/NEON (lin16) form per dsp/simd.h policy.
void MixMulawBlock(std::span<uint8_t> dst, std::span<const uint8_t> src);
void MixAlawBlock(std::span<uint8_t> dst, std::span<const uint8_t> src);
void MixLin16Block(std::span<int16_t> dst, std::span<const int16_t> src);

// The plain-loop reference the SIMD form must match bit for bit.
void MixLin16BlockScalar(std::span<int16_t> dst, std::span<const int16_t> src);

// Fused per-source gain + mix: dst[i] = mix(dst[i], gain(src[i])) in one
// walk over the region, with no staging copy of the scaled source. This is
// the conference-bridge fan-in path: every party carries its own gain into
// the shared device, so the two-pass apply-gain-then-mix form would touch
// each block twice per party. Bit-exact with the two-pass form by
// construction: the companded kernels chain the same 256-entry gain table
// into the same 64K mix table, and the lin16 kernel applies the identical
// Q15 scale (dsp/gain.h GainQ15) before the identical saturating add.
void MixMulawGainBlock(std::span<uint8_t> dst, std::span<const uint8_t> src,
                       const GainTable& gain);
void MixAlawGainBlock(std::span<uint8_t> dst, std::span<const uint8_t> src,
                      const GainTable& gain);
void MixLin16GainBlock(std::span<int16_t> dst, std::span<const int16_t> src, int32_t q15);

// Plain-loop references the unrolled/SIMD fused forms must match bit for bit.
void MixTableGainBlockScalar(const uint8_t* mix_table, const GainTable& gain,
                             uint8_t* dst, const uint8_t* src, size_t n);
void MixLin16GainBlockScalar(std::span<int16_t> dst, std::span<const int16_t> src,
                             int32_t q15);

}  // namespace af

#endif  // AF_DSP_MIX_H_
