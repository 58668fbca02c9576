// GetServerStats: the wire form of the server's metrics spine.
//
// The reply's extra data is a versioned, length-prefixed block (layout in
// PROTOCOL.md). Every array is prefixed with its element count, and
// decoders read the counts from the wire rather than assuming this build's
// constants — that is the versioning rule: new counters append to the end
// of a count-prefixed array, old readers simply show fewer rows, new
// readers of old servers see shorter arrays. The version number bumps only
// on an incompatible relayout.
//
// Encoding and decoding allocate freely; stats snapshots are not on the
// play/record hot path.
#ifndef AF_PROTO_STATS_H_
#define AF_PROTO_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "proto/wire.h"

namespace af {

constexpr uint32_t kServerStatsVersion = 1;

// Global counter order on the wire. astat and the server's text dump both
// label positions from this table so they can never disagree.
inline constexpr const char* kServerCounterNames[] = {
    "requests_dispatched", "events_sent",    "errors_sent", "clients_accepted",
    "clients_reaped",      "loop_iterations", "bytes_in",    "bytes_out",
    "highwater_hits",      "suspends",       "resumes",     "faults_applied",
    "trace_dropped_events",  // appended in PR 4; old readers show fewer rows
    // Appended in PR 5. The last two are gauges sampled at snapshot time
    // (poller_backend: 0=poll 1=epoll; watched_fds: current interest-set
    // size), carried in the counters array to stay within the append-only
    // versioning rule.
    "writev_calls",        "writev_iovecs",  "poller_backend", "watched_fds",
    // Appended in PR 6 (sharding). The first six are monotonic counters
    // (ServerMetrics::ExtraCounterList()); mailbox_depth_hw and shards are
    // gauges sampled at snapshot time like poller_backend/watched_fds.
    // The cross_shard_posted/drained, mailbox_wakes and mailbox_depth_hw
    // slots describe each shard's inbox, cross_shard_plays
    // counts device requests run against another shard's device, and
    // mailbox_spills is a retired slot that reads 0.
    "cross_shard_posted",  "cross_shard_drained", "cross_shard_events",
    "cross_shard_plays",   "mailbox_wakes",       "mailbox_spills",
    "mailbox_depth_hw",    "shards",
    // Appended in PR 8 (replication + failover). The first two are
    // monotonic per-shard counters (ServerMetrics::ReplCounterList()):
    // oplog_records is op-log records emitted toward the backup, resyncs is
    // ResyncTime requests served after a client reconnect. The last three
    // are server-global gauges patched in at aggregation time:
    // oplog_acked is the backup's cumulative ack watermark, repl_overflows
    // counts times the unacked window overflowed and dropped the link, and
    // failovers_promoted is 1 once this server promoted itself from backup.
    "oplog_records",       "resyncs",
    "oplog_acked",         "repl_overflows",      "failovers_promoted",
};
constexpr size_t kNumServerCounters =
    sizeof(kServerCounterNames) / sizeof(kServerCounterNames[0]);
// The leading kNumServerCounterSlots positions are monotonic counters with
// stable addresses in ServerMetrics::CounterList(); positions 15 and 16
// are the PR 5 gauges, fixed forever by the append-only rule.
constexpr size_t kNumServerCounterSlots = 15;
// The PR 6 extra region: six more monotonic counters starting right after
// the PR 5 gauges (ServerMetrics::ExtraCounterList()), then two more gauge
// samples.
constexpr size_t kFirstExtraCounterSlot = kNumServerCounterSlots + 2;
constexpr size_t kNumExtraCounterSlots = 6;
// The PR 8 replication region: two more per-shard monotonic counters
// (ServerMetrics::ReplCounterList()) after the PR 6 gauges, then three
// server-global gauges (oplog_acked, repl_overflows, failovers_promoted).
constexpr size_t kFirstReplCounterSlot =
    kFirstExtraCounterSlot + kNumExtraCounterSlots + 2;
constexpr size_t kNumReplCounterSlots = 2;
constexpr size_t kFirstReplGaugeSlot = kFirstReplCounterSlot + kNumReplCounterSlots;
constexpr size_t kNumReplGaugeSlots = 3;

// True for positions that carry point-in-time gauge samples rather than
// monotonic counters. astat's watch mode uses this to diff only the
// monotonic positions and to detect a server restart (monotonic counter
// went backwards).
constexpr bool IsServerGaugeSlot(size_t i) {
  return i == kNumServerCounterSlots || i == kNumServerCounterSlots + 1 ||
         i == kFirstExtraCounterSlot + kNumExtraCounterSlots ||
         i == kFirstExtraCounterSlot + kNumExtraCounterSlots + 1 ||
         (i >= kFirstReplGaugeSlot && i < kFirstReplGaugeSlot + kNumReplGaugeSlots);
}

// Per-device counter order on the wire (matches DeviceMetrics). The
// device counters array is count-prefixed like every other array in the
// block, so appending names here is wire-safe: old decoders show fewer
// rows per device.
inline constexpr const char* kDeviceCounterNames[] = {
    "play_underruns",   "play_underrun_samples", "record_overruns",
    "record_overrun_frames", "silence_filled_frames", "preempt_writes",
    "mixed_writes",     "passthrough_plays",     "converted_plays",
    "updates",
    // Appended in PR 7 (conference bridge fan-in). play_discarded_frames
    // counts play data clipped to the past - the request-side samples
    // lost, identical on the preempt and mix paths. mix_shared_writes /
    // preempt_clobber_writes split the mixed/preempt write counts by
    // fan-in degree (another source was active in the same update window);
    // mix_fanin_hw is the high-water distinct-source count per window;
    // gain_fused_writes counts writes that took the single-pass per-source
    // gain+mix path.
    "play_discarded_frames", "mix_shared_writes", "preempt_clobber_writes",
    "mix_fanin_hw",     "gain_fused_writes",
};
constexpr size_t kNumDeviceCounters =
    sizeof(kDeviceCounterNames) / sizeof(kDeviceCounterNames[0]);

// A histogram snapshot: count, sum, then one bucket count per power-of-two
// bucket (layout as in common/metrics.h, bucket count carried separately
// in ServerStatsWire::hist_buckets).
struct StatsHistogramWire {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;
};

struct OpcodeStatsWire {
  uint64_t count = 0;
  uint64_t sum_micros = 0;
  std::vector<uint64_t> buckets;  // service-time histogram buckets
};

struct DeviceStatsWire {
  uint32_t index = 0;
  std::vector<uint64_t> counters;  // kDeviceCounterNames order
  StatsHistogramWire update_lag;   // micros behind the scheduled deadline
};

// One shard's slice of the aggregate (appended in PR 6; decoders built
// before it see the aggregate block end after the devices array). The
// counters array uses the same kServerCounterNames positions as the
// aggregate; dispatch merges the shard's per-opcode service times into one
// histogram so astat --shards can show a per-shard dispatch p95.
struct ShardStatsWire {
  uint32_t index = 0;
  std::vector<uint64_t> counters;  // kServerCounterNames order
  StatsHistogramWire dispatch;     // merged per-opcode service micros
};

struct ServerStatsWire {
  uint32_t version = kServerStatsVersion;
  std::vector<uint64_t> counters;        // kServerCounterNames order
  std::vector<uint64_t> errors_by_code;  // indexed by wire error code
  uint32_t hist_buckets = 0;             // buckets per histogram in this block
  std::vector<OpcodeStatsWire> opcodes;  // indexed by opcode (entry 0 unused)
  StatsHistogramWire poll_wake;          // poll(2) wake latency micros
  std::vector<DeviceStatsWire> devices;
  std::vector<ShardStatsWire> shards;    // appended in PR 6; may be empty

  // Emits the full reply packet (32-byte unit + extra data).
  void Encode(WireWriter& w, uint16_t seq) const;
  // Consumes the full reply packet.
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ServerStatsWire* out);
};

}  // namespace af

#endif  // AF_PROTO_STATS_H_
