// The server-wide metrics spine: every counter and histogram the loop,
// dispatcher, and transport layer record, in one struct with stable
// addresses so hot-path call sites are a single relaxed atomic add away.
//
// Wire order of CounterList() must match kServerCounterNames in
// proto/stats.h; GetServerStats and the SIGUSR1 text dump both read
// through that table.
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
  // Dispatch.
  Counter requests_dispatched;
  Counter events_sent;
  Counter errors_sent;
  Counter bytes_in;    // request bytes of dispatched requests
  Counter bytes_out;   // reply/error/event bytes flushed to sockets
  std::array<Counter, kErrorCodeSlots> errors_by_code;
  std::array<Counter, kMaxOpcode + 1> op_count;      // indexed by opcode
  std::array<Histogram, kMaxOpcode + 1> op_micros;   // service time per opcode

  // Transport / server loop.
  Counter clients_accepted;
  Counter clients_reaped;
  Counter loop_iterations;
  Counter highwater_hits;   // input flood guard engaged
  Counter suspends;         // requests parked by flow control
  Counter resumes;          // parked requests re-dispatched
  Counter faults_applied;   // fault-injection schedule applications
  Counter trace_dropped_events;  // trace-ring records overwritten undrained
  Counter writev_calls;     // egress flush syscalls (writev, or write fallback)
  Counter writev_iovecs;    // iovec entries submitted across those calls
  Histogram poll_wake_micros;  // readiness wake-up past the requested timeout

  // Loop-state gauges, sampled into the trailing wire positions by
  // SnapshotStats (kServerCounterNames documents the order).
  Gauge poller_backend;  // 0 = poll, 1 = epoll
  Gauge watched_fds;     // current readiness interest-set size

  // Inbox and cross-shard traffic (PR 6).
  Counter cross_shard_posted;   // messages posted into this shard's inbox
  Counter cross_shard_drained;  // inbox messages this shard's loop ran
  Counter cross_shard_events;   // AEvents this shard posted to other shards
  Counter cross_shard_plays;    // device requests run against another shard's device
  Counter mailbox_wakes;        // inbox drains that found at least one message
  Counter mailbox_spills;       // retired (the SPSC mailbox's spill); reads 0

  // Replication / failover (PR 8). Per-shard monotonic counters; the
  // server-global replication gauges (oplog_acked, repl_overflows,
  // failovers_promoted) live on the ReplicationPrimary/AFServer and are
  // patched into the aggregate at snapshot time.
  Counter oplog_records;        // op-log records emitted toward the backup
  Counter resyncs;              // ResyncTime requests served

  // Counters in kServerCounterNames wire order (the leading, counter-backed
  // positions; the two gauges above fill positions 15 and 16).
  std::array<const Counter*, kNumServerCounterSlots> CounterList() const {
    return {&requests_dispatched, &events_sent, &errors_sent, &clients_accepted,
            &clients_reaped,      &loop_iterations, &bytes_in, &bytes_out,
            &highwater_hits,      &suspends,    &resumes,     &faults_applied,
            &trace_dropped_events, &writev_calls, &writev_iovecs};
  }

  // The PR 6 extra-region counters, wire positions kFirstExtraCounterSlot
  // onward (mailbox_depth_hw - the inbox's largest drained batch - and
  // shards after them are gauge samples).
  std::array<const Counter*, kNumExtraCounterSlots> ExtraCounterList() const {
    return {&cross_shard_posted, &cross_shard_drained, &cross_shard_events,
            &cross_shard_plays,  &mailbox_wakes,       &mailbox_spills};
  }

  // The PR 8 replication-region counters, wire positions
  // kFirstReplCounterSlot onward (the three replication gauges after them
  // are patched in at aggregation time).
  std::array<const Counter*, kNumReplCounterSlots> ReplCounterList() const {
    return {&oplog_records, &resyncs};
  }
};

}  // namespace af

#endif  // AF_SERVER_SERVER_METRICS_H_
