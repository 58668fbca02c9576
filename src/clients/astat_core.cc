// astat: report the server's metrics spine (counters, per-opcode dispatch
// latency, per-device audio health) as a table or as JSON. The bench
// harness uses the JSON form to add server-side columns to its output, and
// ci.sh validates it against a live server.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "clients/cores.h"
#include "common/metrics.h"
#include "proto/stats.h"

namespace af {

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

// Value of the named aggregate counter inside a shard's counter block
// (kServerCounterNames order); 0 when the wire block is short.
uint64_t ShardCounter(const ShardStatsWire& sh, const char* name) {
  for (size_t i = 0; i < kNumServerCounters && i < sh.counters.size(); ++i) {
    if (std::string_view(kServerCounterNames[i]) == name) {
      return sh.counters[i];
    }
  }
  return 0;
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

namespace {

uint64_t Sub(uint64_t cur, uint64_t prev) { return cur >= prev ? cur - prev : 0; }

void DiffHistogram(const StatsHistogramWire& prev, StatsHistogramWire* cur) {
  cur->count = Sub(cur->count, prev.count);
  cur->sum = Sub(cur->sum, prev.sum);
  const size_t n = std::min(prev.buckets.size(), cur->buckets.size());
  for (size_t i = 0; i < n; ++i) {
    cur->buckets[i] = Sub(cur->buckets[i], prev.buckets[i]);
  }
}

}  // namespace

ServerStatsWire DiffServerStats(const ServerStatsWire& prev, const ServerStatsWire& cur) {
  ServerStatsWire d = cur;
  for (size_t i = 0; i < std::min(prev.counters.size(), d.counters.size()); ++i) {
    d.counters[i] = Sub(d.counters[i], prev.counters[i]);
  }
  for (size_t i = 0; i < std::min(prev.errors_by_code.size(), d.errors_by_code.size());
       ++i) {
    d.errors_by_code[i] = Sub(d.errors_by_code[i], prev.errors_by_code[i]);
  }
  for (size_t i = 0; i < std::min(prev.opcodes.size(), d.opcodes.size()); ++i) {
    d.opcodes[i].count = Sub(d.opcodes[i].count, prev.opcodes[i].count);
    d.opcodes[i].sum_micros = Sub(d.opcodes[i].sum_micros, prev.opcodes[i].sum_micros);
    const size_t n = std::min(prev.opcodes[i].buckets.size(), d.opcodes[i].buckets.size());
    for (size_t b = 0; b < n; ++b) {
      d.opcodes[i].buckets[b] = Sub(d.opcodes[i].buckets[b], prev.opcodes[i].buckets[b]);
    }
  }
  DiffHistogram(prev.poll_wake, &d.poll_wake);
  for (size_t i = 0; i < std::min(prev.shards.size(), d.shards.size()); ++i) {
    if (prev.shards[i].index != d.shards[i].index) {
      continue;  // shard set changed between snapshots; keep absolutes
    }
    const size_t n =
        std::min(prev.shards[i].counters.size(), d.shards[i].counters.size());
    for (size_t c = 0; c < n; ++c) {
      d.shards[i].counters[c] = Sub(d.shards[i].counters[c], prev.shards[i].counters[c]);
    }
    DiffHistogram(prev.shards[i].dispatch, &d.shards[i].dispatch);
  }
  for (size_t i = 0; i < std::min(prev.devices.size(), d.devices.size()); ++i) {
    if (prev.devices[i].index != d.devices[i].index) {
      continue;  // device set changed between snapshots; keep absolutes
    }
    const size_t n =
        std::min(prev.devices[i].counters.size(), d.devices[i].counters.size());
    for (size_t c = 0; c < n; ++c) {
      d.devices[i].counters[c] = Sub(d.devices[i].counters[c], prev.devices[i].counters[c]);
    }
    DiffHistogram(prev.devices[i].update_lag, &d.devices[i].update_lag);
  }
  return d;
}

bool ServerStatsRegressed(const ServerStatsWire& prev, const ServerStatsWire& cur) {
  const size_t n = std::min(prev.counters.size(), cur.counters.size());
  for (size_t i = 0; i < n; ++i) {
    if (IsServerGaugeSlot(i)) {
      continue;  // gauges legitimately move both ways
    }
    if (cur.counters[i] < prev.counters[i]) {
      return true;
    }
  }
  return false;
}

std::string FormatServerStats(const ServerStatsWire& stats, bool json,
                              bool shards, bool restarted) {
  return json ? FormatJson(stats, shards, restarted)
              : FormatTable(stats, shards, restarted);
}

Result<std::string> RunAstat(AFAudioConn& aud, const AstatOptions& options) {
  const auto render = [&options](const ServerStatsWire& stats, bool restarted) {
    return options.prom
               ? FormatServerStatsProm(stats)
               : FormatServerStats(stats, options.json, options.shards, restarted);
  };
  if (options.watch_seconds <= 0) {
    auto stats = aud.GetServerStats();
    if (!stats.ok()) {
      return stats.status();
    }
    return render(stats.value(), false);
  }

  auto prev = aud.GetServerStats();
  if (!prev.ok()) {
    return prev.status();
  }
  std::string all;
  const size_t intervals = std::max<size_t>(1, options.watch_count);
  for (size_t i = 0; i < intervals; ++i) {
    std::this_thread::sleep_for(std::chrono::duration<double>(options.watch_seconds));
    auto cur = aud.GetServerStats();
    if (!cur.ok()) {
      return cur.status();
    }
    // A monotonic counter going backwards means a different server process
    // answered (restart or failover). The saturating diff would render an
    // all-zero interval forever; instead reset the baseline and report the
    // new process's counts since boot, annotated.
    const bool restarted = ServerStatsRegressed(prev.value(), cur.value());
    const std::string report = render(
        restarted ? cur.value() : DiffServerStats(prev.value(), cur.value()),
        restarted);
    if (options.on_report) {
      options.on_report(report);
    }
    all += report;
    all += "\n";
    prev = std::move(cur);
  }
  return all;
}

}  // namespace af
