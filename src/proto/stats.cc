#include "proto/stats.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/error.h"
#include "proto/opcodes.h"
#include "proto/requests.h"
#include "proto/types.h"

namespace af {

namespace {

// Decoders read array counts from the wire (the versioning rule), so a
// corrupt block could otherwise demand absurd allocations; anything past
// these limits is treated as damage.
constexpr uint32_t kMaxWireArray = 4096;

size_t HistogramWireBytes(uint32_t buckets) { return 16 + size_t{8} * buckets; }

void EncodeHistogram(WireWriter& w, const StatsHistogramWire& h, uint32_t buckets) {
  w.U64(h.count);
  w.U64(h.sum);
  for (uint32_t i = 0; i < buckets; ++i) {
    w.U64(i < h.buckets.size() ? h.buckets[i] : 0);
  }
}

bool DecodeHistogram(WireReader& r, uint32_t buckets, StatsHistogramWire* out) {
  out->count = r.U64();
  out->sum = r.U64();
  out->buckets.resize(buckets);
  for (uint32_t i = 0; i < buckets; ++i) {
    out->buckets[i] = r.U64();
  }
  return r.ok();
}

}  // namespace

void ServerStatsWire::Encode(WireWriter& w, uint16_t seq) const {
  // Extra-data size must be known up front for the reply header.
  size_t extra = 4;                                // version
  extra += 4 + 8 * counters.size();                // global counters
  extra += 4 + 8 * errors_by_code.size();          // errors by code
  extra += 4;                                      // hist_buckets
  extra += 4 + opcodes.size() * (16 + size_t{8} * hist_buckets);
  extra += HistogramWireBytes(hist_buckets);       // poll_wake
  extra += 4;                                      // n_devices
  for (const DeviceStatsWire& d : devices) {
    extra += 8 + 8 * d.counters.size() + HistogramWireBytes(hist_buckets);
  }
  extra += 4;                                      // n_shards
  for (const ShardStatsWire& s : shards) {
    extra += 8 + 8 * s.counters.size() + HistogramWireBytes(hist_buckets);
  }
  extra = Pad4(extra);

  w.U8(kReplyPacketType);
  w.U8(0);
  w.U16(seq);
  w.U32(static_cast<uint32_t>(extra / 4));
  w.Zero(kReplyBaseBytes - 8);

  w.U32(version);
  w.U32(static_cast<uint32_t>(counters.size()));
  for (uint64_t c : counters) w.U64(c);
  w.U32(static_cast<uint32_t>(errors_by_code.size()));
  for (uint64_t c : errors_by_code) w.U64(c);
  w.U32(hist_buckets);
  w.U32(static_cast<uint32_t>(opcodes.size()));
  for (const OpcodeStatsWire& op : opcodes) {
    w.U64(op.count);
    w.U64(op.sum_micros);
    for (uint32_t i = 0; i < hist_buckets; ++i) {
      w.U64(i < op.buckets.size() ? op.buckets[i] : 0);
    }
  }
  EncodeHistogram(w, poll_wake, hist_buckets);
  w.U32(static_cast<uint32_t>(devices.size()));
  for (const DeviceStatsWire& d : devices) {
    w.U32(d.index);
    w.U32(static_cast<uint32_t>(d.counters.size()));
    for (uint64_t c : d.counters) w.U64(c);
    EncodeHistogram(w, d.update_lag, hist_buckets);
  }
  w.U32(static_cast<uint32_t>(shards.size()));
  for (const ShardStatsWire& s : shards) {
    w.U32(s.index);
    w.U32(static_cast<uint32_t>(s.counters.size()));
    for (uint64_t c : s.counters) w.U64(c);
    EncodeHistogram(w, s.dispatch, hist_buckets);
  }
  w.AlignPad();
}

bool ServerStatsWire::Decode(std::span<const uint8_t> data, WireOrder order,
                             ServerStatsWire* out) {
  if (data.size() < kReplyBaseBytes || data[0] != kReplyPacketType) {
    return false;
  }
  WireReader r(data, order);
  r.Skip(kReplyBaseBytes);

  out->version = r.U32();
  const uint32_t n_counters = r.U32();
  if (!r.ok() || n_counters > kMaxWireArray) return false;
  out->counters.resize(n_counters);
  for (uint32_t i = 0; i < n_counters; ++i) out->counters[i] = r.U64();

  const uint32_t n_errors = r.U32();
  if (!r.ok() || n_errors > kMaxWireArray) return false;
  out->errors_by_code.resize(n_errors);
  for (uint32_t i = 0; i < n_errors; ++i) out->errors_by_code[i] = r.U64();

  out->hist_buckets = r.U32();
  const uint32_t n_opcodes = r.U32();
  if (!r.ok() || out->hist_buckets > kMaxWireArray || n_opcodes > kMaxWireArray) {
    return false;
  }
  out->opcodes.resize(n_opcodes);
  for (OpcodeStatsWire& op : out->opcodes) {
    op.count = r.U64();
    op.sum_micros = r.U64();
    op.buckets.resize(out->hist_buckets);
    for (uint32_t i = 0; i < out->hist_buckets; ++i) op.buckets[i] = r.U64();
    if (!r.ok()) return false;
  }
  if (!DecodeHistogram(r, out->hist_buckets, &out->poll_wake)) return false;

  const uint32_t n_devices = r.U32();
  if (!r.ok() || n_devices > kMaxWireArray) return false;
  out->devices.resize(n_devices);
  for (DeviceStatsWire& d : out->devices) {
    d.index = r.U32();
    const uint32_t n_dev_counters = r.U32();
    if (!r.ok() || n_dev_counters > kMaxWireArray) return false;
    d.counters.resize(n_dev_counters);
    for (uint32_t i = 0; i < n_dev_counters; ++i) d.counters[i] = r.U64();
    if (!DecodeHistogram(r, out->hist_buckets, &d.update_lag)) return false;
  }

  // Shard slices were appended in PR 6; older servers end the block here
  // (at most 3 bytes of alignment padding remain).
  out->shards.clear();
  if (r.remaining() >= 4) {
    const uint32_t n_shards = r.U32();
    if (!r.ok() || n_shards > kMaxWireArray) return false;
    out->shards.resize(n_shards);
    for (ShardStatsWire& s : out->shards) {
      s.index = r.U32();
      const uint32_t n_shard_counters = r.U32();
      if (!r.ok() || n_shard_counters > kMaxWireArray) return false;
      s.counters.resize(n_shard_counters);
      for (uint32_t i = 0; i < n_shard_counters; ++i) s.counters[i] = r.U64();
      if (!DecodeHistogram(r, out->hist_buckets, &s.dispatch)) return false;
    }
  }
  return r.ok();
}

// --- renderers ------------------------------------------------------------

namespace {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

// Name for counter position i, falling back to counter<N> for positions a
// newer server appended beyond this build's table.
std::string CounterLabel(const char* const* names, size_t known, size_t i) {
  if (i < known) {
    return names[i];
  }
  return "counter" + std::to_string(i);
}

std::string OpcodeLabel(size_t i) {
  if (i >= kMinOpcode && i <= kMaxOpcode) {
    return OpcodeName(static_cast<Opcode>(i));
  }
  return "opcode" + std::to_string(i);
}

// Value of the named row inside a shard's counter block; 0 when the wire
// block is short.
uint64_t ShardCounter(const ShardStatsWire& sh, std::string_view name) {
  const size_t i = ServerCounterSlot(name);
  return i < kNumServerCounters && i < sh.counters.size() ? sh.counters[i] : 0;
}

struct Quantiles {
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

Quantiles QuantilesOf(std::span<const uint64_t> buckets) {
  Quantiles q;
  q.p50 = HistogramQuantile(buckets, 0.50);
  q.p95 = HistogramQuantile(buckets, 0.95);
  q.p99 = HistogramQuantile(buckets, 0.99);
  return q;
}

// --- table form -----------------------------------------------------------

void TableHistogramLine(std::string* out, const char* label,
                        const StatsHistogramWire& h) {
  const Quantiles q = QuantilesOf(h.buckets);
  Appendf(out, "  %-28s count=%-10" PRIu64 " sum=%-12" PRIu64 " p50=%-8" PRIu64
               " p95=%-8" PRIu64 " p99=%" PRIu64 "\n",
          label, h.count, h.sum, q.p50, q.p95, q.p99);
}

// The --shards breakdown: one row per shard with the load-balance and
// cross-shard-traffic signals (who accepted what, how hot each dispatch
// path runs, how deep the inboxes got).
void TableShards(std::string* out, const ServerStatsWire& s) {
  if (s.shards.empty()) {
    *out += "\nshards: (server predates per-shard stats)\n";
    return;
  }
  *out += "\nshards:\n";
  Appendf(out, "  %-5s %10s %12s %8s %8s %10s %10s %8s\n", "shard", "accepted",
          "dispatched", "disp_p95", "disp_p99", "xs_posted", "xs_drained",
          "mbox_hw");
  for (const ShardStatsWire& sh : s.shards) {
    const Quantiles q = QuantilesOf(sh.dispatch.buckets);
    Appendf(out,
            "  %-5" PRIu32 " %10" PRIu64 " %12" PRIu64 " %8" PRIu64 " %8" PRIu64
            " %10" PRIu64 " %10" PRIu64 " %8" PRIu64 "\n",
            sh.index, ShardCounter(sh, "clients_accepted"),
            ShardCounter(sh, "requests_dispatched"), q.p95, q.p99,
            ShardCounter(sh, "cross_shard_posted"),
            ShardCounter(sh, "cross_shard_drained"),
            ShardCounter(sh, "mailbox_depth_hw"));
  }
}

std::string FormatTable(const ServerStatsWire& s, bool shards, bool restarted) {
  std::string out;
  Appendf(&out, "AudioFile server statistics (format v%" PRIu32 ")\n", s.version);
  if (restarted) {
    out += "  note: server restarted during interval; counts are since restart\n";
  }

  out += "\ncounters:\n";
  for (size_t i = 0; i < s.counters.size(); ++i) {
    Appendf(&out, "  %-28s %" PRIu64 "\n",
            CounterLabel(kServerCounterNames, kNumServerCounters, i).c_str(),
            s.counters[i]);
  }

  bool any_errors = false;
  for (size_t code = 0; code < s.errors_by_code.size(); ++code) {
    if (s.errors_by_code[code] == 0) {
      continue;
    }
    if (!any_errors) {
      out += "\nerrors by code:\n";
      any_errors = true;
    }
    Appendf(&out, "  code %-2zu %-21s %" PRIu64 "\n", code,
            ErrorText(static_cast<AfError>(code)), s.errors_by_code[code]);
  }

  out += "\ndispatch latency (micros):\n";
  Appendf(&out, "  %-22s %10s %12s %8s %8s %8s\n", "opcode", "count", "sum_us",
          "p50", "p95", "p99");
  for (size_t i = 0; i < s.opcodes.size(); ++i) {
    const OpcodeStatsWire& op = s.opcodes[i];
    if (op.count == 0) {
      continue;
    }
    const Quantiles q = QuantilesOf(op.buckets);
    Appendf(&out, "  %-22s %10" PRIu64 " %12" PRIu64 " %8" PRIu64 " %8" PRIu64
                 " %8" PRIu64 "\n",
            OpcodeLabel(i).c_str(), op.count, op.sum_micros, q.p50, q.p95, q.p99);
  }

  out += "\nserver loop:\n";
  TableHistogramLine(&out, "poll_wake_micros", s.poll_wake);

  for (const DeviceStatsWire& dev : s.devices) {
    Appendf(&out, "\ndevice %" PRIu32 ":\n", dev.index);
    for (size_t i = 0; i < dev.counters.size(); ++i) {
      Appendf(&out, "  %-28s %" PRIu64 "\n",
              CounterLabel(kDeviceCounterNames, kNumDeviceCounters, i).c_str(),
              dev.counters[i]);
    }
    TableHistogramLine(&out, "update_lag_micros", dev.update_lag);
  }
  if (shards) {
    TableShards(&out, s);
  }
  return out;
}

// --- JSON form ------------------------------------------------------------

void JsonHistogram(std::string* out, const StatsHistogramWire& h) {
  const Quantiles q = QuantilesOf(h.buckets);
  Appendf(out, "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"p50\":%" PRIu64
               ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
          h.count, h.sum, q.p50, q.p95, q.p99);
}

void JsonShards(std::string* out, const ServerStatsWire& s) {
  *out += ",\"shards\":[";
  for (size_t i = 0; i < s.shards.size(); ++i) {
    const ShardStatsWire& sh = s.shards[i];
    Appendf(out, "%s{\"index\":%" PRIu32 ",\"counters\":{", i == 0 ? "" : ",",
            sh.index);
    for (size_t c = 0; c < sh.counters.size(); ++c) {
      Appendf(out, "%s\"%s\":%" PRIu64, c == 0 ? "" : ",",
              CounterLabel(kServerCounterNames, kNumServerCounters, c).c_str(),
              sh.counters[c]);
    }
    *out += "},\"dispatch\":";
    JsonHistogram(out, sh.dispatch);
    *out += "}";
  }
  *out += "]";
}

std::string FormatJson(const ServerStatsWire& s, bool shards, bool restarted) {
  std::string out;
  Appendf(&out, "{\"version\":%" PRIu32 ",\"server_restarted\":%s,\"counters\":{",
          s.version, restarted ? "true" : "false");
  for (size_t i = 0; i < s.counters.size(); ++i) {
    Appendf(&out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
            CounterLabel(kServerCounterNames, kNumServerCounters, i).c_str(),
            s.counters[i]);
  }
  out += "},\"errors_by_code\":[";
  bool first = true;
  for (size_t code = 0; code < s.errors_by_code.size(); ++code) {
    if (s.errors_by_code[code] == 0) {
      continue;
    }
    Appendf(&out, "%s{\"code\":%zu,\"name\":\"%s\",\"count\":%" PRIu64 "}",
            first ? "" : ",", code, ErrorText(static_cast<AfError>(code)),
            s.errors_by_code[code]);
    first = false;
  }
  out += "],\"dispatch\":[";
  first = true;
  for (size_t i = 0; i < s.opcodes.size(); ++i) {
    const OpcodeStatsWire& op = s.opcodes[i];
    if (op.count == 0) {
      continue;
    }
    const Quantiles q = QuantilesOf(op.buckets);
    Appendf(&out,
            "%s{\"opcode\":\"%s\",\"count\":%" PRIu64 ",\"sum_micros\":%" PRIu64
            ",\"p50\":%" PRIu64 ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
            first ? "" : ",", OpcodeLabel(i).c_str(), op.count, op.sum_micros,
            q.p50, q.p95, q.p99);
    first = false;
  }
  out += "],\"poll_wake\":";
  JsonHistogram(&out, s.poll_wake);
  out += ",\"devices\":[";
  for (size_t d = 0; d < s.devices.size(); ++d) {
    const DeviceStatsWire& dev = s.devices[d];
    Appendf(&out, "%s{\"index\":%" PRIu32 ",\"counters\":{", d == 0 ? "" : ",",
            dev.index);
    for (size_t i = 0; i < dev.counters.size(); ++i) {
      Appendf(&out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
              CounterLabel(kDeviceCounterNames, kNumDeviceCounters, i).c_str(),
              dev.counters[i]);
    }
    out += "},\"update_lag\":";
    JsonHistogram(&out, dev.update_lag);
    out += "}";
  }
  out += "]";
  if (shards) {
    JsonShards(&out, s);
  }
  out += "}";
  return out;
}

// --- Prometheus text exposition (--prom) ----------------------------------

// One histogram in Prometheus form: cumulative le buckets (only up to the
// last nonzero bucket, then +Inf), _sum, and _count. labels is either ""
// or a comma-separated list without braces (e.g. "opcode=\"PlaySamples\"").
void PromHistogram(std::string* out, const char* metric, const std::string& labels,
                   std::span<const uint64_t> buckets, uint64_t count, uint64_t sum) {
  const char* sep = labels.empty() ? "" : ",";
  size_t last = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] != 0) {
      last = i;
    }
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= last && i < buckets.size(); ++i) {
    cumulative += buckets[i];
    Appendf(out, "%s_bucket{%s%sle=\"%" PRIu64 "\"} %" PRIu64 "\n", metric,
            labels.c_str(), sep, Histogram::BucketUpperBound(static_cast<int>(i)),
            cumulative);
  }
  Appendf(out, "%s_bucket{%s%sle=\"+Inf\"} %" PRIu64 "\n", metric, labels.c_str(),
          sep, count);
  if (labels.empty()) {
    Appendf(out, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n", metric, sum, metric,
            count);
  } else {
    Appendf(out, "%s_sum{%s} %" PRIu64 "\n%s_count{%s} %" PRIu64 "\n", metric,
            labels.c_str(), sum, metric, labels.c_str(), count);
  }
}

}  // namespace

std::string FormatServerStatsProm(const ServerStatsWire& s) {
  std::string out;
  // Aggregate counters: monotonic slots as counters (_total), gauge slots
  // (queue depths, high-waters that DiffServerStats treats as absolute) as
  // gauges under their bare name.
  for (size_t i = 0; i < s.counters.size(); ++i) {
    const std::string name =
        CounterLabel(kServerCounterNames, kNumServerCounters, i);
    if (IsServerGaugeSlot(i)) {
      Appendf(&out, "# TYPE af_%s gauge\naf_%s %" PRIu64 "\n", name.c_str(),
              name.c_str(), s.counters[i]);
    } else {
      Appendf(&out, "# TYPE af_%s_total counter\naf_%s_total %" PRIu64 "\n",
              name.c_str(), name.c_str(), s.counters[i]);
    }
  }

  bool any_errors = false;
  for (size_t code = 0; code < s.errors_by_code.size(); ++code) {
    if (s.errors_by_code[code] == 0) {
      continue;
    }
    if (!any_errors) {
      out += "# TYPE af_errors_total counter\n";
      any_errors = true;
    }
    Appendf(&out, "af_errors_total{code=\"%s\"} %" PRIu64 "\n",
            ErrorText(static_cast<AfError>(code)), s.errors_by_code[code]);
  }

  out += "# TYPE af_dispatch_micros histogram\n";
  for (size_t i = 0; i < s.opcodes.size(); ++i) {
    const OpcodeStatsWire& op = s.opcodes[i];
    if (op.count == 0) {
      continue;
    }
    PromHistogram(&out, "af_dispatch_micros",
                  "opcode=\"" + OpcodeLabel(i) + "\"", op.buckets, op.count,
                  op.sum_micros);
  }

  out += "# TYPE af_poll_wake_micros histogram\n";
  PromHistogram(&out, "af_poll_wake_micros", "", s.poll_wake.buckets,
                s.poll_wake.count, s.poll_wake.sum);

  // Per-device counters: all samples of one metric name must sit under a
  // single TYPE line, so iterate counter-position outer, device inner.
  size_t max_dev_counters = 0;
  for (const DeviceStatsWire& dev : s.devices) {
    max_dev_counters = std::max(max_dev_counters, dev.counters.size());
  }
  for (size_t i = 0; i < max_dev_counters; ++i) {
    const std::string name = CounterLabel(kDeviceCounterNames, kNumDeviceCounters, i);
    Appendf(&out, "# TYPE af_device_%s_total counter\n", name.c_str());
    for (const DeviceStatsWire& dev : s.devices) {
      if (i < dev.counters.size()) {
        Appendf(&out, "af_device_%s_total{device=\"%" PRIu32 "\"} %" PRIu64 "\n",
                name.c_str(), dev.index, dev.counters[i]);
      }
    }
  }
  if (!s.devices.empty()) {
    out += "# TYPE af_device_update_lag_micros histogram\n";
    for (const DeviceStatsWire& dev : s.devices) {
      PromHistogram(&out, "af_device_update_lag_micros",
                    "device=\"" + std::to_string(dev.index) + "\"",
                    dev.update_lag.buckets, dev.update_lag.count, dev.update_lag.sum);
    }
  }

  if (!s.shards.empty()) {
    out += "# TYPE af_shard_dispatch_micros histogram\n";
    for (const ShardStatsWire& sh : s.shards) {
      PromHistogram(&out, "af_shard_dispatch_micros",
                    "shard=\"" + std::to_string(sh.index) + "\"",
                    sh.dispatch.buckets, sh.dispatch.count, sh.dispatch.sum);
    }
  }
  return out;
}

std::string FormatServerStats(const ServerStatsWire& stats, bool json,
                              bool shards, bool restarted) {
  return json ? FormatJson(stats, shards, restarted)
              : FormatTable(stats, shards, restarted);
}

}  // namespace af
