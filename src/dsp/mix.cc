#include "dsp/mix.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "dsp/g711.h"
#include "dsp/simd.h"

#if defined(AF_SIMD_SSE2)
#include <emmintrin.h>
#elif defined(AF_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace af {

int16_t MixLin16(int16_t a, int16_t b) {
  const int sum = static_cast<int>(a) + static_cast<int>(b);
  return static_cast<int16_t>(std::clamp(sum, -32768, 32767));
}

uint8_t MixMulaw(uint8_t a, uint8_t b) {
  return MulawFromLinear16(MixLin16(MulawToLinear16(a), MulawToLinear16(b)));
}

uint8_t MixAlaw(uint8_t a, uint8_t b) {
  return AlawFromLinear16(MixLin16(AlawToLinear16(a), AlawToLinear16(b)));
}

namespace {

std::unique_ptr<uint8_t[]> BuildMixTable(uint8_t (*mix)(uint8_t, uint8_t)) {
  auto table = std::make_unique<uint8_t[]>(256 * 256);
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      table[(a << 8) | b] = mix(static_cast<uint8_t>(a), static_cast<uint8_t>(b));
    }
  }
  return table;
}

}  // namespace

const uint8_t* MulawMixTable() {
  static const std::unique_ptr<uint8_t[]> table = BuildMixTable(&MixMulaw);
  return table.get();
}

const uint8_t* AlawMixTable() {
  static const std::unique_ptr<uint8_t[]> table = BuildMixTable(&MixAlaw);
  return table.get();
}

namespace {

// Table mixes are gather-bound, so no integer SIMD applies; the optimized
// form unrolls x4 to give the core independent loads to overlap. Both
// forms index the same table, so outputs are identical by construction —
// the golden test asserts it anyway.
void MixTableBlockScalar(const uint8_t* table, uint8_t* dst, const uint8_t* src,
                         size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = table[(static_cast<size_t>(dst[i]) << 8) | src[i]];
  }
}

void MixTableBlockUnrolled(const uint8_t* table, uint8_t* dst, const uint8_t* src,
                           size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t m0 = table[(static_cast<size_t>(dst[i + 0]) << 8) | src[i + 0]];
    const uint8_t m1 = table[(static_cast<size_t>(dst[i + 1]) << 8) | src[i + 1]];
    const uint8_t m2 = table[(static_cast<size_t>(dst[i + 2]) << 8) | src[i + 2]];
    const uint8_t m3 = table[(static_cast<size_t>(dst[i + 3]) << 8) | src[i + 3]];
    dst[i + 0] = m0;
    dst[i + 1] = m1;
    dst[i + 2] = m2;
    dst[i + 3] = m3;
  }
  MixTableBlockScalar(table, dst + i, src + i, n - i);
}

void MixTableBlock(const uint8_t* table, uint8_t* dst, const uint8_t* src, size_t n) {
  if (SimdEnabled()) {
    MixTableBlockUnrolled(table, dst, src, n);
  } else {
    MixTableBlockScalar(table, dst, src, n);
  }
}

}  // namespace

void MixMulawBlock(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  const size_t n = std::min(dst.size(), src.size());
  MixTableBlock(MulawMixTable(), dst.data(), src.data(), n);
}

void MixAlawBlock(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  const size_t n = std::min(dst.size(), src.size());
  MixTableBlock(AlawMixTable(), dst.data(), src.data(), n);
}

void MixLin16BlockScalar(std::span<int16_t> dst, std::span<const int16_t> src) {
  const size_t n = std::min(dst.size(), src.size());
  for (size_t i = 0; i < n; ++i) {
    dst[i] = MixLin16(dst[i], src[i]);
  }
}

namespace {

// Fused gain table -> mix table walk; gather-bound like the plain table
// mix, so the optimized form is the same x4 unroll.
void MixTableGainBlockUnrolled(const uint8_t* table, const GainTable& gain, uint8_t* dst,
                               const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t m0 = table[(static_cast<size_t>(dst[i + 0]) << 8) | gain[src[i + 0]]];
    const uint8_t m1 = table[(static_cast<size_t>(dst[i + 1]) << 8) | gain[src[i + 1]]];
    const uint8_t m2 = table[(static_cast<size_t>(dst[i + 2]) << 8) | gain[src[i + 2]]];
    const uint8_t m3 = table[(static_cast<size_t>(dst[i + 3]) << 8) | gain[src[i + 3]]];
    dst[i + 0] = m0;
    dst[i + 1] = m1;
    dst[i + 2] = m2;
    dst[i + 3] = m3;
  }
  MixTableGainBlockScalar(table, gain, dst + i, src + i, n - i);
}

void MixTableGainBlock(const uint8_t* table, const GainTable& gain, uint8_t* dst,
                       const uint8_t* src, size_t n) {
  if (SimdEnabled()) {
    MixTableGainBlockUnrolled(table, gain, dst, src, n);
  } else {
    MixTableGainBlockScalar(table, gain, dst, src, n);
  }
}

}  // namespace

void MixTableGainBlockScalar(const uint8_t* mix_table, const GainTable& gain, uint8_t* dst,
                             const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = mix_table[(static_cast<size_t>(dst[i]) << 8) | gain[src[i]]];
  }
}

void MixMulawGainBlock(std::span<uint8_t> dst, std::span<const uint8_t> src,
                       const GainTable& gain) {
  const size_t n = std::min(dst.size(), src.size());
  MixTableGainBlock(MulawMixTable(), gain, dst.data(), src.data(), n);
}

void MixAlawGainBlock(std::span<uint8_t> dst, std::span<const uint8_t> src,
                      const GainTable& gain) {
  const size_t n = std::min(dst.size(), src.size());
  MixTableGainBlock(AlawMixTable(), gain, dst.data(), src.data(), n);
}

void MixLin16GainBlockScalar(std::span<int16_t> dst, std::span<const int16_t> src,
                             int32_t q15) {
  const size_t n = std::min(dst.size(), src.size());
  for (size_t i = 0; i < n; ++i) {
    const int64_t scaled = (static_cast<int64_t>(src[i]) * q15) >> 15;
    const auto s = static_cast<int16_t>(std::clamp<int64_t>(scaled, -32768, 32767));
    dst[i] = MixLin16(dst[i], s);
  }
}

void MixLin16GainBlock(std::span<int16_t> dst, std::span<const int16_t> src, int32_t q15) {
  if (!SimdEnabled() || q15 < 0 || q15 > 32767) {
    // Boost factors need the 32-bit intermediate; stay on the scalar form.
    MixLin16GainBlockScalar(dst, src, q15);
    return;
  }
  const size_t n = std::min(dst.size(), src.size());
  size_t i = 0;
#if defined(AF_SIMD_SSE2)
  // Same widening/shift/pack steps as Lin16GainSse2 (each matches the
  // scalar shift-then-clamp bit for bit), then the saturating add.
  const __m128i vq = _mm_set1_epi16(static_cast<int16_t>(q15));
  for (; i + 8 <= n; i += 8) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&src[i]));
    const __m128i lo = _mm_mullo_epi16(s, vq);
    const __m128i hi = _mm_mulhi_epi16(s, vq);
    const __m128i p0 = _mm_srai_epi32(_mm_unpacklo_epi16(lo, hi), 15);
    const __m128i p1 = _mm_srai_epi32(_mm_unpackhi_epi16(lo, hi), 15);
    const __m128i scaled = _mm_packs_epi32(p0, p1);
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&dst[i]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&dst[i]), _mm_adds_epi16(d, scaled));
  }
#elif defined(AF_SIMD_NEON)
  // Literal transcription of the scalar form: widen to 32 bits, shift by
  // 15, narrow with saturation, saturating add.
  const int16x4_t vq = vdup_n_s16(static_cast<int16_t>(q15));
  for (; i + 8 <= n; i += 8) {
    const int16x8_t s = vld1q_s16(&src[i]);
    const int32x4_t p0 = vshrq_n_s32(vmull_s16(vget_low_s16(s), vq), 15);
    const int32x4_t p1 = vshrq_n_s32(vmull_s16(vget_high_s16(s), vq), 15);
    const int16x8_t scaled = vcombine_s16(vqmovn_s32(p0), vqmovn_s32(p1));
    vst1q_s16(&dst[i], vqaddq_s16(vld1q_s16(&dst[i]), scaled));
  }
#endif
  if (i < n) {
    MixLin16GainBlockScalar(dst.subspan(i), src.subspan(i), q15);
  }
}

void MixLin16Block(std::span<int16_t> dst, std::span<const int16_t> src) {
  if (!SimdEnabled()) {
    MixLin16BlockScalar(dst, src);
    return;
  }
  const size_t n = std::min(dst.size(), src.size());
  size_t i = 0;
#if defined(AF_SIMD_SSE2)
  // _mm_adds_epi16 is exactly the scalar clamp(-32768, 32767) add, lanewise.
  for (; i + 8 <= n; i += 8) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&dst[i]));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&src[i]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&dst[i]), _mm_adds_epi16(a, b));
  }
#elif defined(AF_SIMD_NEON)
  // vqaddq_s16 saturates identically to the scalar form.
  for (; i + 8 <= n; i += 8) {
    const int16x8_t a = vld1q_s16(&dst[i]);
    const int16x8_t b = vld1q_s16(&src[i]);
    vst1q_s16(&dst[i], vqaddq_s16(a, b));
  }
#endif
  for (; i < n; ++i) {
    dst[i] = MixLin16(dst[i], src[i]);
  }
}

}  // namespace af
