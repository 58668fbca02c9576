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
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "proto/wire.h"

namespace af {

constexpr uint32_t kServerStatsVersion = 1;

// The server metrics table: one row per slot of the counters array, in
// wire order, each with its kind (common/metrics.h). Rows are append-only:
// a new metric is one row at the end plus its recording call, and old
// readers simply show fewer rows. ServerMetrics (server/server_metrics.h)
// gets one field per row under the row's name; the name and kind arrays,
// the per-shard slices and their merge, the flight-recorder list, and
// astat's labels all derive from this list.
#define AF_SERVER_METRICS(X)                                                            \
  X(requests_dispatched, kCounter)  /* requests run through dispatch */                 \
  X(events_sent, kCounter)          /* events queued to clients */                      \
  X(errors_sent, kCounter)          /* error replies queued to clients */               \
  X(clients_accepted, kCounter)     /* connections accepted or adopted */               \
  X(clients_reaped, kCounter)       /* connections closed and removed */                \
  X(loop_iterations, kCounter)      /* server loop iterations */                        \
  X(bytes_in, kCounter)             /* request bytes of dispatched requests */          \
  X(bytes_out, kCounter)            /* reply/error/event bytes flushed to sockets */    \
  X(highwater_hits, kCounter)       /* input flood guard engaged */                     \
  X(suspends, kCounter)             /* requests parked by flow control */               \
  X(resumes, kCounter)              /* parked requests re-dispatched */                 \
  X(faults_applied, kCounter)       /* fault-injection schedule applications */         \
  X(trace_dropped_events, kCounter) /* trace-ring records overwritten undrained */      \
  X(writev_calls, kCounter)         /* egress write syscalls */                         \
  X(writev_iovecs, kCounter)        /* buffers sent by them: one per write */           \
  X(poller_backend, kGaugeMax)      /* retired backend slot; reads 1 (epoll) */         \
  X(watched_fds, kGauge)            /* current readiness interest-set size */           \
  X(cross_shard_posted, kCounter)   /* messages posted into the shard's inbox */        \
  X(cross_shard_drained, kCounter)  /* inbox messages the shard's loop ran */           \
  X(cross_shard_events, kCounter)   /* AEvents posted to other shards */                \
  X(cross_shard_plays, kCounter)    /* device requests on another shard's device */     \
  X(mailbox_wakes, kCounter)        /* inbox drains that found a message */             \
  X(mailbox_spills, kCounter)       /* retired (the SPSC mailbox's spill); reads 0 */   \
  X(mailbox_depth_hw, kGaugeMax)    /* largest batch one inbox drain found */           \
  X(shards, kGaugeMax)              /* the server's shard count */                      \
  X(oplog_records, kCounter)        /* op-log records emitted toward the backup */      \
  X(resyncs, kCounter)              /* ResyncTime requests served after reconnect */    \
  X(oplog_acked, kGaugeMax)         /* backup's cumulative ack watermark (shard 0) */   \
  X(repl_overflows, kGaugeMax)      /* link drops on ack-window overflow (shard 0) */   \
  X(failovers_promoted, kGaugeMax)  /* 1 once promoted from backup (shard 0) */         \
  X(egress_highwater_hits, kCounter) /* egress guard engaged: unsent output capped */

// The per-device table (DeviceMetrics in server/audio_device.h), same rules.
#define AF_DEVICE_METRICS(X)                                                            \
  X(play_underruns, kCounter)         /* play updates run after the hw drained */       \
  X(play_underrun_samples, kCounter)  /* samples the hw backfilled across those */      \
  X(record_overruns, kCounter)        /* record updates that found history lost */      \
  X(record_overrun_frames, kCounter)  /* frames lost (served as silence) in those */    \
  X(silence_filled_frames, kCounter)  /* play-side frames lazily filled with silence */ \
  X(preempt_writes, kCounter)         /* play requests written preemptively */          \
  X(mixed_writes, kCounter)           /* play requests mixed into existing data */      \
  X(passthrough_plays, kCounter)      /* play conversions that were zero-copy */        \
  X(converted_plays, kCounter)        /* play conversions staged through the arena */   \
  X(updates, kCounter)                /* periodic Update() runs */                      \
  X(play_discarded_frames, kCounter)  /* play frames clipped to the past */             \
  X(mix_shared_writes, kCounter)      /* mixed writes, >= 2 sources in the window */    \
  X(preempt_clobber_writes, kCounter) /* preempt writes, >= 2 sources in the window */  \
  X(mix_fanin_hw, kCounter)           /* most distinct play sources in one window */    \
  X(gain_fused_writes, kCounter)      /* writes that took the fused gain+mix path */

inline constexpr const char* kServerCounterNames[] = {AF_SERVER_METRICS(AF_METRIC_NAME)};
inline constexpr MetricKind kServerMetricKinds[] = {AF_SERVER_METRICS(AF_METRIC_KIND)};
constexpr size_t kNumServerCounters = std::size(kServerCounterNames);
inline constexpr const char* kDeviceCounterNames[] = {AF_DEVICE_METRICS(AF_METRIC_NAME)};
constexpr size_t kNumDeviceCounters = std::size(kDeviceCounterNames);

// True for slots that carry point-in-time samples rather than monotonic
// counts. astat's watch mode keeps these absolute, and a monotonic slot
// going backwards is how it detects a server restart.
constexpr bool IsServerGaugeSlot(size_t i) {
  return i < kNumServerCounters && kServerMetricKinds[i] != MetricKind::kCounter;
}

// Wire slot of the named row, or the table's size when no row has that
// name.
template <size_t N>
constexpr size_t MetricSlot(const char* const (&names)[N], std::string_view name) {
  for (size_t i = 0; i < N; ++i) {
    if (name == names[i]) {
      return i;
    }
  }
  return N;
}
constexpr size_t ServerCounterSlot(std::string_view name) {
  return MetricSlot(kServerCounterNames, name);
}
constexpr size_t DeviceCounterSlot(std::string_view name) {
  return MetricSlot(kDeviceCounterNames, name);
}

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

// Renders a decoded stats block: astat prints it, and the server's SIGUSR1
// dump is the table form. The table groups counters, per-opcode dispatch
// latency (nonzero rows only, p50/p95/p99 via HistogramQuantile), and
// per-device audio-health counters; the JSON form is a single object with
// the same content. shards appends the per-shard breakdown; restarted
// annotates a watch interval that spans a server restart. Counters the
// wire carries beyond this build's tables (a newer server) are labelled
// counter<N>.
std::string FormatServerStats(const ServerStatsWire& stats, bool json,
                              bool shards = false, bool restarted = false);

// Prometheus text exposition (version 0.0.4): counter slots become
// af_<name>_total, gauge slots af_<name>, histograms af_*_micros with
// cumulative le buckets ending at +Inf.
std::string FormatServerStatsProm(const ServerStatsWire& stats);

}  // namespace af

#endif  // AF_PROTO_STATS_H_
