// Kernel dispatch policy for the hot mix/gain/conversion loops.
//
// Each hot kernel has a plain scalar form (the golden reference — tests
// compare the optimized output against it bit for bit) and an optimized
// form: manually unrolled for the table-driven companded kernels, SSE2 or
// NEON intrinsics for the 16-bit linear ones. Which form runs is a single
// relaxed-atomic check per block call:
//
//   - SetSimdEnabled(false) forces the scalar reference everywhere.
//   - Otherwise the optimized form runs, using whatever the target
//     supports (SSE2 is unconditional on x86-64; NEON on AArch64; plain
//     unrolled loops elsewhere).
//
// Optimized forms must be bit-exact against scalar: saturating-add and
// Q15-multiply lanes map exactly onto _mm_adds_epi16 / vqaddq_s16 and the
// widening-multiply + pack sequences; anything that cannot be made exact
// (e.g. rounding multiplies) stays scalar.
#ifndef AF_DSP_SIMD_H_
#define AF_DSP_SIMD_H_

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define AF_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define AF_SIMD_NEON 1
#endif

namespace af {

enum class SimdLevel {
  kScalar,  // plain reference loops
  kSSE2,    // x86-64 128-bit integer intrinsics
  kNEON,    // AArch64 128-bit integer intrinsics
};

// What this build can run (fixed at compile time).
constexpr SimdLevel CompiledSimdLevel() {
#if defined(AF_SIMD_SSE2)
  return SimdLevel::kSSE2;
#elif defined(AF_SIMD_NEON)
  return SimdLevel::kNEON;
#else
  return SimdLevel::kScalar;
#endif
}

// True when the optimized kernel forms are active (the default). One
// relaxed load; never allocates.
bool SimdEnabled();

// Runtime override; the golden tests use it to reach the scalar forms.
void SetSimdEnabled(bool enabled);

// The level kernels actually dispatch to right now.
SimdLevel ActiveSimdLevel();

const char* SimdLevelName(SimdLevel level);

}  // namespace af

#endif  // AF_DSP_SIMD_H_
