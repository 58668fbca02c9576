// The traced run: a separate pass over a set-up rig with client and server
// tracing on, drained in windows, merged onto one clock and decomposed by
// ComputeLatencyBudget. Only public APIs are used: SetClientTracing,
// GetTrace, MergeClientServerTrace, ComputeLatencyBudget.
#ifndef AF_PERFBENCH_TRACED_H_
#define AF_PERFBENCH_TRACED_H_

#include <cstdint>

#include "workloads.h"

namespace af::perfbench {

struct Traced {
  // Medians over the budget rows of the workload's opcode, µs (the trace
  // ring's resolution).
  double client_queue_us = 0;
  double wire_us = 0;
  double poll_wake_us = 0;
  double dispatch_us = 0;
  double mailbox_us = 0;
  double mix_us = 0;
  double egress_us = 0;
  double rtt_p50_us = 0;      // client-observed op latency with tracing on
  uint64_t ops = 0;
  uint64_t requests = 0;      // workload requests issued while traced
  uint64_t rows = 0;          // of those, budget rows recovered
  uint64_t failed_ops = 0;
  uint64_t ring_drops = 0;    // server + client records lost to ring wraps
  uint64_t bad_rows = 0;      // rows whose components do not sum to total
};

// False when a trace drain fails outright (reason on stderr).
bool RunTraced(Rig& rig, Traced* out);

}  // namespace af::perfbench

#endif  // AF_PERFBENCH_TRACED_H_
