#include "traced.h"

#include <cstdio>
#include <vector>

#include "bench_math.h"
#include "clients/cores.h"
#include "process.h"

namespace af::perfbench {

namespace {

constexpr size_t kWindows = 40;
// Workload requests per drain window. The client ring holds 1024 records
// and a request leaves about three there (enqueue, flush, reply); a shard
// ring holds 4096 and a request leaves about five. 64 keeps both far from
// wrapping, with the drain's own GetTrace records on top.
constexpr size_t kRequestsPerWindow = 64;

}  // namespace

bool RunTraced(Rig& rig, Traced* out) {
  *out = Traced();
  const Shape& shape = rig.shape();
  AFAudioConn& ctl = rig.conn(0);
  std::vector<uint64_t> client_drops(rig.parties());
  std::vector<TraceEvent> client_events;
  for (size_t p = 0; p < rig.parties(); ++p) {
    rig.conn(p).SetClientTracing(true);
    client_drops[p] = rig.conn(p).client_trace().dropped();
    rig.conn(p).client_trace().Drain(&client_events);
  }
  auto opened = ctl.GetTrace(kTraceFlagEnable);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: GetTrace enable failed: %s\n",
                 opened.status().ToString().c_str());
    return false;
  }
  const uint64_t server_drops_before = opened.value().dropped;
  uint64_t server_drops = server_drops_before;

  std::vector<LatencyBudgetRow> rows;
  std::vector<uint64_t> rtts;
  const size_t ops_per_window = kRequestsPerWindow / shape.RequestsPerOp();
  bool drained = true;
  for (size_t w = 0; w < kWindows && drained; ++w) {
    for (size_t i = 0; i < ops_per_window; ++i) {
      OpSample s;
      rig.Op(&s);
      ++out->ops;
      out->requests += shape.RequestsPerOp();
      out->failed_ops += s.ok ? 0 : 1;
      rtts.push_back(s.rtt_ns);
    }
    auto window = ctl.GetTrace(0);
    if (!window.ok()) {
      std::fprintf(stderr, "perfbench: GetTrace drain failed: %s\n",
                   window.status().ToString().c_str());
      drained = false;
      break;
    }
    TraceWire merged = window.take();
    server_drops = merged.dropped;  // cumulative since server start
    client_events.clear();
    for (size_t p = 0; p < rig.parties(); ++p) {
      rig.conn(p).client_trace().Drain(&client_events);
    }
    MergeClientServerTrace(&merged, std::move(client_events));
    for (const LatencyBudgetRow& r : ComputeLatencyBudget(merged)) {
      if (r.opcode != static_cast<uint8_t>(shape.opcode)) {
        continue;  // the drains' own GetTrace round trips
      }
      out->bad_rows += Telescopes(r) ? 0 : 1;
      rows.push_back(r);
    }
  }
  drained = ctl.GetTrace(kTraceFlagDisable).ok() && drained;
  out->ring_drops = server_drops - server_drops_before;
  for (size_t p = 0; p < rig.parties(); ++p) {
    rig.conn(p).SetClientTracing(false);
    out->ring_drops += rig.conn(p).client_trace().dropped() - client_drops[p];
  }

  out->rows = rows.size();
  out->rtt_p50_us = Percentile(rtts, 0.5) / 1000.0;
  out->client_queue_us = BudgetMedian(rows, &LatencyBudgetRow::client_queue_us);
  out->wire_us = BudgetMedian(rows, &LatencyBudgetRow::wire_us);
  out->poll_wake_us = BudgetMedian(rows, &LatencyBudgetRow::poll_wake_us);
  out->dispatch_us = BudgetMedian(rows, &LatencyBudgetRow::dispatch_us);
  out->mailbox_us = BudgetMedian(rows, &LatencyBudgetRow::mailbox_us);
  out->mix_us = BudgetMedian(rows, &LatencyBudgetRow::mix_us);
  out->egress_us = BudgetMedian(rows, &LatencyBudgetRow::egress_us);
  return drained;
}

}  // namespace af::perfbench
