// The server-wide metrics spine: one field per AF_SERVER_METRICS row
// (proto/stats.h), named as the row, plus the per-code, per-opcode, and
// loop histograms. Fields have stable addresses, so hot-path call sites
// are a single relaxed atomic op away.
#ifndef AF_SERVER_SERVER_METRICS_H_
#define AF_SERVER_SERVER_METRICS_H_

#include <array>

#include "common/metrics.h"
#include "proto/opcodes.h"
#include "proto/stats.h"

namespace af {

// One slot per wire error code (1..13; 0 and the client-local 14 stay
// unused but keep indexing trivial).
constexpr size_t kErrorCodeSlots = 16;

struct ServerMetrics {
  AF_SERVER_METRICS(AF_METRIC_FIELD)

  std::array<Counter, kErrorCodeSlots> errors_by_code;
  std::array<Counter, kMaxOpcode + 1> op_count;      // indexed by opcode
  std::array<Histogram, kMaxOpcode + 1> op_micros;   // service time per opcode
  Histogram poll_wake_micros;  // readiness wake-up past the requested timeout

  // Every row's value, in wire order.
  std::array<uint64_t, kNumServerCounters> Values() const {
    return {AF_SERVER_METRICS(AF_METRIC_VALUE)};
  }

  // Calls f(name, cell) for every row in wire order; cell is the row's
  // Counter or Gauge.
  template <typename F>
  void ForEachRow(F&& f) const {
#define AF_METRIC_VISIT(name, kind) f(#name, name);
    AF_SERVER_METRICS(AF_METRIC_VISIT)
#undef AF_METRIC_VISIT
  }
};

}  // namespace af

#endif  // AF_SERVER_SERVER_METRICS_H_
