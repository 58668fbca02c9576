// Server-wide observability primitives: monotonic counters, gauges, and
// fixed-bucket histograms, plus the row kinds of the metric tables.
//
// Hot-path contract (the play/record path is allocation-free per PR 1, and
// metrics recording must not break that): Counter::Add and
// Histogram::Record never allocate, never take a lock, and never branch on
// anything but a single clamp. Counters are relaxed atomics — the server
// loop is single-threaded, but snapshots (GetServerStats, SIGUSR1 dump)
// may be read while a bench thread drives traffic, so torn reads must be
// impossible rather than merely unlikely.
//
// Histograms use power-of-two buckets: bucket i holds values v with
// bit_width(v) == i, i.e. bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3},
// bucket i = [2^(i-1), 2^i). Values at or above 2^(kBuckets-2) saturate
// into the last bucket. Recording is one std::bit_width, one clamp, and
// two relaxed adds. With kBuckets = 28 the top regular bucket covers up to
// 2^26 microseconds (~67 s), ample for service times and update lag.
#ifndef AF_COMMON_METRICS_H_
#define AF_COMMON_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace af {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Last-written instantaneous value (may go down).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket power-of-two histogram; see the header comment for layout.
class Histogram {
 public:
  static constexpr int kBuckets = 28;

  static constexpr int BucketIndex(uint64_t v) {
    const int b = std::bit_width(v);
    return b < kBuckets ? b : kBuckets - 1;
  }
  // Inclusive upper bound of bucket i (the value reported for percentiles
  // landing in that bucket). The last bucket is open-ended; we report its
  // lower bound so saturated histograms do not invent huge outliers.
  static constexpr uint64_t BucketUpperBound(int i) {
    if (i <= 0) return 0;
    if (i >= kBuckets - 1) return uint64_t{1} << (kBuckets - 2);
    return (uint64_t{1} << i) - 1;
  }

  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int i) const { return buckets_[i].load(std::memory_order_relaxed); }

  // Copies all bucket counts into out[0..kBuckets).
  void Snapshot(uint64_t out[kBuckets]) const {
    for (int i = 0; i < kBuckets; ++i) out[i] = BucketCount(i);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Estimates the q-th quantile (q in [0,1]) from bucket counts laid out as
// above: returns the upper bound of the bucket containing the q-th sample.
// Shared by the server's text dump and the astat client so both report the
// same numbers from the same wire data. Returns 0 for an empty histogram.
uint64_t HistogramQuantile(std::span<const uint64_t> buckets, double q);

// How a metric-table row (proto/stats.h) behaves across time and shards.
// A counter is monotonic and sums across shards; a gauge is a
// point-in-time sample that sums across shards; a gauge-max sample
// aggregates to the largest shard's value. Gauges of either kind stay
// absolute under astat --watch.
enum class MetricKind : uint8_t { kCounter, kGauge, kGaugeMax };

// The field type backing a row of the given kind.
template <MetricKind K>
using MetricCell = std::conditional_t<K == MetricKind::kCounter, Counter, Gauge>;

// X-macro row visitors for the tables: a row's name, its kind, its field
// declaration, and its field's value as a wire word.
#define AF_METRIC_NAME(name, kind) #name,
#define AF_METRIC_KIND(name, kind) ::af::MetricKind::kind,
#define AF_METRIC_FIELD(name, kind) ::af::MetricCell<::af::MetricKind::kind> name;
#define AF_METRIC_VALUE(name, kind) static_cast<uint64_t>(name.Value()),

}  // namespace af

#endif  // AF_COMMON_METRICS_H_
