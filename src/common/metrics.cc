#include "common/metrics.h"

namespace af {

uint64_t HistogramQuantile(std::span<const uint64_t> buckets, double q) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based; q=0 picks the first sample.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketUpperBound(static_cast<int>(i));
  }
  return Histogram::BucketUpperBound(static_cast<int>(buckets.size()) - 1);
}

}  // namespace af
