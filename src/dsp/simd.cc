#include "dsp/simd.h"

#include <atomic>

namespace af {

namespace {

std::atomic<bool> g_simd_enabled{true};

}  // namespace

bool SimdEnabled() {
  // The optimized forms include the portable unrolled table kernels, so
  // this is meaningful even when no intrinsics were compiled in.
  return g_simd_enabled.load(std::memory_order_relaxed);
}

void SetSimdEnabled(bool enabled) {
  g_simd_enabled.store(enabled, std::memory_order_relaxed);
}

SimdLevel ActiveSimdLevel() {
  return SimdEnabled() ? CompiledSimdLevel() : SimdLevel::kScalar;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSSE2:
      return "sse2";
    case SimdLevel::kNEON:
      return "neon";
  }
  return "unknown";
}

}  // namespace af
