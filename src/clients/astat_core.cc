// astat: fetch the server's metrics snapshot and render it (the renderers
// live next to the wire form in proto/stats.cc, shared with the server's
// SIGUSR1 dump), once or as per-interval deltas under --watch.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "clients/cores.h"
#include "proto/stats.h"

namespace af {

namespace {

uint64_t Sub(uint64_t cur, uint64_t prev) { return cur >= prev ? cur - prev : 0; }

// Differences the counter slots of a kServerCounterNames-ordered block;
// gauge slots are samples, not counts, and stay absolute.
void DiffServerCounters(const std::vector<uint64_t>& prev, std::vector<uint64_t>* cur) {
  for (size_t i = 0; i < std::min(prev.size(), cur->size()); ++i) {
    if (!IsServerGaugeSlot(i)) {
      (*cur)[i] = Sub((*cur)[i], prev[i]);
    }
  }
}

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
  DiffServerCounters(prev.counters, &d.counters);
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
    DiffServerCounters(prev.shards[i].counters, &d.shards[i].counters);
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
