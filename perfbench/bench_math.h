// The benchmark's own arithmetic: percentiles over raw samples, deltas of
// two GetServerStats snapshots, and the latency-budget telescoping check.
// Header-only so bench_math_test.cc covers exactly what the benchmark runs.
#ifndef AF_PERFBENCH_BENCH_MATH_H_
#define AF_PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "clients/cores.h"
#include "proto/stats.h"

namespace af::perfbench {

// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when empty.
// The samples are partially reordered.
template <typename T>
double PercentileOf(std::span<T> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t idx = std::min(samples.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(idx), samples.end());
  return static_cast<double>(samples[idx]);
}

template <typename T>
double Percentile(std::vector<T>& samples, double q) {
  return PercentileOf(std::span<T>(samples), q);
}

template <typename T>
double Median(std::vector<T> samples) {
  return Percentile(samples, 0.5);
}

// A uniform random sample (Algorithm R) of at most `capacity` values from
// a stream of any length. The storage is allocated and written up front, so
// the benchmark's own memory does not grow with the number of ops.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity) : samples_(capacity) {}

  void Add(uint32_t v) {
    if (seen_ < samples_.size()) {
      samples_[seen_] = v;
    } else {
      // xorshift64: cheap, and the sample choice never feeds the program.
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      const uint64_t j = state_ % (seen_ + 1);
      if (j < samples_.size()) {
        samples_[j] = v;
      }
    }
    ++seen_;
  }

  uint64_t seen() const { return seen_; }
  void Clear() { seen_ = 0; }

  // Nearest-rank percentile of the kept sample (reorders it).
  double Quantile(double q) {
    const size_t kept = static_cast<size_t>(std::min<uint64_t>(seen_, samples_.size()));
    return PercentileOf(std::span<uint32_t>(samples_.data(), kept), q);
  }

 private:
  std::vector<uint32_t> samples_;
  uint64_t seen_ = 0;
  uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

// Position of a name in a counter-name table, or -1.
template <size_t N>
int IndexOf(const char* const (&names)[N], const char* name) {
  for (size_t i = 0; i < N; ++i) {
    if (std::strcmp(names[i], name) == 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Server-wide counter by name (0 when the snapshot's array is shorter).
inline uint64_t ServerCounter(const ServerStatsWire& s, const char* name) {
  const int i = IndexOf(kServerCounterNames, name);
  return i >= 0 && static_cast<size_t>(i) < s.counters.size() ? s.counters[i] : 0;
}

// Device counter summed over every device in the snapshot.
inline uint64_t DeviceCounterSum(const ServerStatsWire& s, const char* name) {
  const int i = IndexOf(kDeviceCounterNames, name);
  uint64_t sum = 0;
  for (const DeviceStatsWire& d : s.devices) {
    if (i >= 0 && static_cast<size_t>(i) < d.counters.size()) {
      sum += d.counters[i];
    }
  }
  return sum;
}

// Two snapshots of one server, taken around a timed phase.
struct StatsWindow {
  ServerStatsWire before;
  ServerStatsWire after;

  // Growth of a monotonic server counter over the window.
  uint64_t Counter(const char* name) const {
    const uint64_t a = ServerCounter(after, name);
    const uint64_t b = ServerCounter(before, name);
    return a >= b ? a - b : 0;
  }
  uint64_t Device(const char* name) const {
    const uint64_t a = DeviceCounterSum(after, name);
    const uint64_t b = DeviceCounterSum(before, name);
    return a >= b ? a - b : 0;
  }
};

// Bucketwise a - b, clamped at zero and to the shorter array.
inline std::vector<uint64_t> BucketDelta(std::span<const uint64_t> a,
                                         std::span<const uint64_t> b) {
  std::vector<uint64_t> d(std::min(a.size(), b.size()));
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = a[i] >= b[i] ? a[i] - b[i] : 0;
  }
  return d;
}

// Service-time buckets of one opcode accumulated over the window.
inline std::vector<uint64_t> OpcodeBucketDelta(const StatsWindow& w, Opcode op) {
  const size_t i = static_cast<size_t>(op);
  if (i >= w.before.opcodes.size() || i >= w.after.opcodes.size()) {
    return {};
  }
  return BucketDelta(w.after.opcodes[i].buckets, w.before.opcodes[i].buckets);
}

// The seven components of a budget row, in request order.
inline int64_t BudgetComponentSum(const LatencyBudgetRow& r) {
  return r.client_queue_us + r.wire_us + r.poll_wake_us + r.dispatch_us + r.mailbox_us +
         r.mix_us + r.egress_us;
}

// True when a row's components sum exactly to its total.
inline bool Telescopes(const LatencyBudgetRow& r) {
  return BudgetComponentSum(r) == r.total_us;
}

// Median of one component over a set of budget rows.
inline double BudgetMedian(const std::vector<LatencyBudgetRow>& rows,
                           int64_t LatencyBudgetRow::*field) {
  std::vector<int64_t> v;
  v.reserve(rows.size());
  for (const LatencyBudgetRow& r : rows) {
    v.push_back(r.*field);
  }
  return Percentile(v, 0.5);
}

// Quotient that reads 0 rather than dividing by zero.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace af::perfbench

#endif  // AF_PERFBENCH_BENCH_MATH_H_
