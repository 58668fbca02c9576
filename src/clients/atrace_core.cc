// atrace: fetch the server's event trace (GetTrace, opcode 39) and render
// it as text or as Chrome trace_event JSON that Perfetto / chrome://tracing
// load directly. Request spans become "X" duration events on a track per
// connection; device-timeline instants land on a track per device with the
// device's SampleClock time in args, so host time and audio time can be
// read side by side.
//
// PR 9 additions: --merge captures a window with client-side tracing live,
// aligns the two clocks, splices the client ring into the server window,
// draws Perfetto flow arrows along each correlation ID, and prints the
// telescoped latency budget; --follow deduplicates polled windows by
// (shard, ring sequence) and marks ring-wrap losses with synthetic
// kTraceGap records; LoadFlightRecorderDump parses a crash handler's
// native-order dump back into the same renderers.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "clients/cores.h"
#include "common/flight_recorder.h"
#include "common/trace.h"
#include "proto/events.h"
#include "proto/opcodes.h"

namespace af {

namespace {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
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

bool IsOpcodeKind(TraceKind k) {
  return k == TraceKind::kRequest || k == TraceKind::kSuspend ||
         k == TraceKind::kResume || k == TraceKind::kClientEnqueue ||
         k == TraceKind::kClientReply || k == TraceKind::kRemoteExec;
}

// Kinds rendered as "X" duration events (host_us = start, dur_us = length).
bool IsSpanKind(TraceKind k) {
  return k == TraceKind::kRequest || k == TraceKind::kClientReply ||
         k == TraceKind::kRemoteExec;
}

bool IsClientKind(TraceKind k) {
  return k == TraceKind::kClientEnqueue || k == TraceKind::kClientFlush ||
         k == TraceKind::kClientReply;
}

std::string EventName(const TraceEvent& ev) {
  const auto kind = static_cast<TraceKind>(ev.kind);
  if (IsOpcodeKind(kind) && ev.arg >= kMinOpcode && ev.arg <= kMaxOpcode) {
    return OpcodeName(static_cast<Opcode>(ev.arg));
  }
  if (kind == TraceKind::kDeviceEvent) {
    return EventTypeName(static_cast<EventType>(ev.arg));
  }
  return TraceKindName(kind);
}

// Track ids: connections use their client number, devices sit above them,
// client-side records share one "client" track above those, and unbound
// (server-loop) records share track 0.
constexpr uint32_t kClientTrackId = 2000;

uint32_t TrackOf(const TraceEvent& ev) {
  if (IsClientKind(static_cast<TraceKind>(ev.kind))) {
    return kClientTrackId;
  }
  if (ev.device != 0) {
    return 1000 + ev.device - 1;
  }
  return ev.conn;
}

// The shared body of FormatTraceJson / FormatMergedTraceJson: the
// traceEvents array entries for the records plus the thread_name metadata,
// without the enclosing object.
void AppendTraceEventsJson(std::string* out, const TraceWire& trace, bool* first) {
  std::set<uint32_t> tracks;
  for (const TraceEvent& ev : trace.events) {
    const auto kind = static_cast<TraceKind>(ev.kind);
    const uint32_t tid = TrackOf(ev);
    tracks.insert(tid);
    const char* cat = tid == kClientTrackId
                          ? "client"
                          : (ev.device != 0 ? "device"
                                            : (ev.conn != 0 ? "conn" : "server"));
    if (IsSpanKind(kind)) {
      Appendf(out,
              "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%" PRIu64
              ",\"dur\":%" PRIu32 ",\"pid\":1,\"tid\":%" PRIu32
              ",\"args\":{\"bytes\":%" PRIu64,
              *first ? "" : ",", EventName(ev).c_str(),
              kind == TraceKind::kRequest ? "request" : cat, ev.host_us, ev.dur_us,
              tid, ev.value);
      if (ev.corr != 0) {
        Appendf(out, ",\"corr\":\"0x%" PRIx64 "\"", ev.corr);
      }
      *out += "}}";
    } else {
      Appendf(out,
              "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%" PRIu64
              ",\"pid\":1,\"tid\":%" PRIu32 ",\"args\":{\"value\":%" PRIu64,
              *first ? "" : ",", EventName(ev).c_str(), cat, ev.host_us, tid, ev.value);
      if (ev.device != 0) {
        Appendf(out, ",\"dev_time\":%" PRIu32, ev.dev_time);
      }
      if (ev.conn != 0) {
        Appendf(out, ",\"conn\":%" PRIu32, ev.conn);
      }
      if (ev.corr != 0) {
        Appendf(out, ",\"corr\":\"0x%" PRIx64 "\"", ev.corr);
      }
      *out += "}}";
    }
    *first = false;
  }
  for (const uint32_t tid : tracks) {
    std::string label;
    if (tid == kClientTrackId) {
      label = "client";
    } else if (tid >= 1000) {
      label = "device " + std::to_string(tid - 1000);
    } else if (tid == 0) {
      label = "server loop";
    } else {
      label = "conn " + std::to_string(tid);
    }
    Appendf(out,
            "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%" PRIu32
            ",\"args\":{\"name\":\"%s\"}}",
            *first ? "" : ",", tid, label.c_str());
    *first = false;
  }
}

// Perfetto flow arrows: one flow per correlation ID with at least two
// spans, stepping through the spans in start order. When the chain begins
// at the client reply span (which brackets the whole round trip) the flow
// finishes back on it just before its end, closing the client -> server ->
// client loop visually.
void AppendFlowEventsJson(std::string* out, const TraceWire& trace, bool* first) {
  struct Slice {
    uint64_t ts;
    uint32_t dur;
    uint32_t tid;
    bool client;
  };
  std::map<uint64_t, std::vector<Slice>> chains;
  for (const TraceEvent& ev : trace.events) {
    const auto kind = static_cast<TraceKind>(ev.kind);
    if (ev.corr == 0 || !IsSpanKind(kind)) {
      continue;
    }
    chains[ev.corr].push_back(
        {ev.host_us, ev.dur_us, TrackOf(ev), kind == TraceKind::kClientReply});
  }
  for (auto& [corr, slices] : chains) {
    if (slices.size() < 2) {
      continue;
    }
    std::stable_sort(slices.begin(), slices.end(),
                     [](const Slice& a, const Slice& b) { return a.ts < b.ts; });
    const bool loops_back = slices.front().client;
    auto emit = [&](const char* ph, uint64_t ts, uint32_t tid, bool bind_end) {
      Appendf(out,
              "%s{\"name\":\"corr\",\"cat\":\"flow\",\"ph\":\"%s\",\"id\":\"0x%" PRIx64
              "\",\"ts\":%" PRIu64 ",\"pid\":1,\"tid\":%" PRIu32,
              *first ? "" : ",", ph, corr, ts, tid);
      if (bind_end) {
        *out += ",\"bp\":\"e\"";
      }
      *out += "}";
      *first = false;
    };
    emit("s", slices.front().ts, slices.front().tid, false);
    for (size_t i = 1; i < slices.size(); ++i) {
      const bool last = i + 1 == slices.size() && !loops_back;
      emit(last ? "f" : "t", slices[i].ts, slices[i].tid, last);
    }
    if (loops_back) {
      const Slice& c = slices.front();
      emit("f", c.ts + (c.dur > 0 ? c.dur - 1 : 0), c.tid, true);
    }
  }
}

uint64_t MedianOf(std::vector<int64_t> v) {
  if (v.empty()) {
    return 0;
  }
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return static_cast<uint64_t>(std::max<int64_t>(0, v[mid]));
}

}  // namespace

std::string FormatTraceText(const TraceWire& trace) {
  std::string out;
  Appendf(&out,
          "trace: %zu events, dropped=%" PRIu64 ", tracing %s, host_now=%" PRIu64
          " us\n",
          trace.events.size(), trace.dropped, trace.enabled != 0 ? "on" : "off",
          trace.host_now_us);
  for (const TraceEvent& ev : trace.events) {
    const auto kind = static_cast<TraceKind>(ev.kind);
    Appendf(&out, "%12" PRIu64 " %-14s", ev.host_us, TraceKindName(kind));
    if (IsOpcodeKind(kind) || kind == TraceKind::kDeviceEvent) {
      Appendf(&out, " %s", EventName(ev).c_str());
    }
    if (ev.conn != 0) {
      Appendf(&out, " conn=%" PRIu32, ev.conn);
    }
    if (ev.device != 0) {
      Appendf(&out, " dev=%" PRIu32 " dev_time=%" PRIu32, ev.device - 1, ev.dev_time);
    }
    if (ev.dur_us != 0) {
      Appendf(&out, " dur=%" PRIu32 "us", ev.dur_us);
    }
    if (ev.corr != 0) {
      Appendf(&out, " corr=0x%" PRIx64, ev.corr);
    }
    Appendf(&out, " value=%" PRIu64 "\n", ev.value);
  }
  return out;
}

std::string FormatTraceJson(const TraceWire& trace) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  AppendTraceEventsJson(&out, trace, &first);
  out += "],\"otherData\":{";
  Appendf(&out, "\"dropped\":%" PRIu64 ",\"host_now_us\":%" PRIu64 "}}", trace.dropped,
          trace.host_now_us);
  return out;
}

int64_t MergeClientServerTrace(TraceWire* server, std::vector<TraceEvent> client_events) {
  // Offset = server clock minus client clock. For every corr with a client
  // round-trip span and a server dispatch span, the server span nests
  // inside the client one; the pair whose durations differ least (least
  // slack) bounds the offset tightest, and the midpoint-vs-midpoint
  // estimate splits the residual slack evenly between the outbound and
  // return legs.
  std::map<uint64_t, const TraceEvent*> server_spans;
  for (const TraceEvent& ev : server->events) {
    if (static_cast<TraceKind>(ev.kind) == TraceKind::kRequest && ev.corr != 0 &&
        server_spans.find(ev.corr) == server_spans.end()) {
      server_spans[ev.corr] = &ev;
    }
  }
  int64_t offset = 0;
  uint64_t best_slack = UINT64_MAX;
  for (const TraceEvent& ev : client_events) {
    if (static_cast<TraceKind>(ev.kind) != TraceKind::kClientReply || ev.corr == 0) {
      continue;
    }
    auto it = server_spans.find(ev.corr);
    if (it == server_spans.end() || ev.dur_us < it->second->dur_us) {
      continue;
    }
    const uint64_t slack = ev.dur_us - it->second->dur_us;
    if (slack < best_slack) {
      best_slack = slack;
      const int64_t client_mid =
          static_cast<int64_t>(ev.host_us) + static_cast<int64_t>(ev.dur_us) / 2;
      const int64_t server_mid = static_cast<int64_t>(it->second->host_us) +
                                 static_cast<int64_t>(it->second->dur_us) / 2;
      offset = server_mid - client_mid;
    }
  }
  for (TraceEvent& ev : client_events) {
    ev.host_us = static_cast<uint64_t>(static_cast<int64_t>(ev.host_us) + offset);
    server->events.push_back(ev);
  }
  std::stable_sort(server->events.begin(), server->events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.host_us < b.host_us;
                   });
  return offset;
}

std::vector<LatencyBudgetRow> ComputeLatencyBudget(const TraceWire& merged) {
  // Per-corr pieces gathered in one pass. Flush and read records are not
  // corr-stamped (one flush covers every queued request; the transport
  // layer has no request context), so they match positionally: the first
  // client flush at or after the enqueue, and the last socket read on the
  // request's connection at or before dispatch start.
  struct Pieces {
    const TraceEvent* enqueue = nullptr;
    const TraceEvent* reply = nullptr;
    const TraceEvent* request = nullptr;
  };
  std::map<uint64_t, Pieces> by_corr;
  std::vector<const TraceEvent*> flushes;
  std::vector<const TraceEvent*> reads;
  for (const TraceEvent& ev : merged.events) {
    switch (static_cast<TraceKind>(ev.kind)) {
      case TraceKind::kClientFlush:
        flushes.push_back(&ev);
        break;
      case TraceKind::kRead:
        reads.push_back(&ev);
        break;
      case TraceKind::kClientEnqueue:
        if (ev.corr != 0 && by_corr[ev.corr].enqueue == nullptr) {
          by_corr[ev.corr].enqueue = &ev;
        }
        break;
      case TraceKind::kClientReply:
        if (ev.corr != 0 && by_corr[ev.corr].reply == nullptr) {
          by_corr[ev.corr].reply = &ev;
        }
        break;
      case TraceKind::kRequest:
        if (ev.corr != 0 && by_corr[ev.corr].request == nullptr) {
          by_corr[ev.corr].request = &ev;
        }
        break;
      default:
        break;
    }
  }

  std::vector<LatencyBudgetRow> rows;
  for (const auto& [corr, p] : by_corr) {
    if (p.enqueue == nullptr || p.reply == nullptr || p.request == nullptr) {
      continue;
    }
    const int64_t t_enq = static_cast<int64_t>(p.enqueue->host_us);
    const int64_t s0 = static_cast<int64_t>(p.request->host_us);
    const int64_t s1 = s0 + p.request->dur_us;
    const int64_t r1 =
        static_cast<int64_t>(p.reply->host_us) + p.reply->dur_us;

    // The flush that carried this request out, and the read that brought
    // it in. Fall back to the adjacent boundary (zero-width component)
    // when the transport record is outside the window.
    int64_t t_flush = t_enq;
    for (const TraceEvent* f : flushes) {
      if (static_cast<int64_t>(f->host_us) >= t_enq) {
        t_flush = static_cast<int64_t>(f->host_us);
        break;
      }
    }
    int64_t t_read = t_flush;
    bool read_found = false;
    for (const TraceEvent* r : reads) {
      if (r->conn == p.request->conn && static_cast<int64_t>(r->host_us) <= s0) {
        t_read = static_cast<int64_t>(r->host_us);
        read_found = true;
      }
    }
    if (!read_found) {
      t_read = s0;  // poll-wake collapses to zero, wire absorbs the gap
    }

    LatencyBudgetRow row;
    row.corr = corr;
    row.opcode = p.request->arg;
    row.client_queue_us = t_flush - t_enq;
    row.wire_us = t_read - t_flush;
    row.poll_wake_us = s0 - t_read;
    row.dispatch_us = s1 - s0;
    row.egress_us = r1 - s1;
    row.total_us = r1 - t_enq;
    rows.push_back(row);
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LatencyBudgetRow& a, const LatencyBudgetRow& b) {
                     return a.total_us < b.total_us;
                   });
  return rows;
}

std::string FormatLatencyBudget(const std::vector<LatencyBudgetRow>& rows) {
  std::string out;
  if (rows.empty()) {
    return "latency budget: no correlated round trips in the window\n";
  }
  const LatencyBudgetRow& med = rows[rows.size() / 2];  // rows sorted by total
  auto column = [&](auto pick) {
    std::vector<int64_t> v;
    v.reserve(rows.size());
    for (const LatencyBudgetRow& r : rows) {
      v.push_back(pick(r));
    }
    return MedianOf(std::move(v));
  };
  Appendf(&out, "latency budget (%zu correlated round trips; median corr=0x%" PRIx64
                " %s):\n",
          rows.size(), med.corr,
          med.opcode >= kMinOpcode && med.opcode <= kMaxOpcode
              ? OpcodeName(static_cast<Opcode>(med.opcode))
              : "?");
  Appendf(&out, "  %-14s %12s %12s\n", "component", "median_req", "p50_all");
  struct ComponentRow {
    const char* name;
    int64_t LatencyBudgetRow::*field;
  };
  static constexpr ComponentRow kComponents[] = {
      {"client-queue", &LatencyBudgetRow::client_queue_us},
      {"wire", &LatencyBudgetRow::wire_us},
      {"poll-wake", &LatencyBudgetRow::poll_wake_us},
      {"dispatch", &LatencyBudgetRow::dispatch_us},
      {"egress", &LatencyBudgetRow::egress_us},
  };
  for (const ComponentRow& c : kComponents) {
    Appendf(&out, "  %-14s %12" PRId64 " %12" PRIu64 "\n", c.name, med.*(c.field),
            column([&](const LatencyBudgetRow& r) { return r.*(c.field); }));
  }
  Appendf(&out, "  %-14s %12" PRId64 " %12" PRIu64 "   (median_req sums exactly)\n",
          "total", med.total_us,
          column([](const LatencyBudgetRow& r) { return r.total_us; }));
  return out;
}

std::string FormatMergedTraceJson(const TraceWire& merged,
                                  const std::vector<LatencyBudgetRow>& budget) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  AppendTraceEventsJson(&out, merged, &first);
  AppendFlowEventsJson(&out, merged, &first);
  out += "],\"otherData\":{";
  Appendf(&out, "\"dropped\":%" PRIu64 ",\"host_now_us\":%" PRIu64, merged.dropped,
          merged.host_now_us);
  out += ",\"latency_budget_us\":[";
  for (size_t i = 0; i < budget.size(); ++i) {
    const LatencyBudgetRow& r = budget[i];
    Appendf(&out,
            "%s{\"corr\":\"0x%" PRIx64 "\",\"opcode\":%u"
            ",\"client_queue\":%" PRId64 ",\"wire\":%" PRId64 ",\"poll_wake\":%" PRId64,
            i == 0 ? "" : ",", r.corr, r.opcode, r.client_queue_us, r.wire_us,
            r.poll_wake_us);
    Appendf(&out, ",\"dispatch\":%" PRId64 ",\"egress\":%" PRId64 ",\"total\":%" PRId64 "}",
            r.dispatch_us, r.egress_us, r.total_us);
  }
  out += "]}}";
  return out;
}

Result<FlightDump> LoadFlightRecorderDump(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(AfError::kBadValue, "cannot open flight dump " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  fclose(f);

  size_t pos = 0;
  auto u32 = [&](uint32_t* out) {
    if (bytes.size() - pos < 4) {
      return false;
    }
    memcpy(out, bytes.data() + pos, 4);
    pos += 4;
    return true;
  };
  auto u64 = [&](uint64_t* out) {
    if (bytes.size() - pos < 8) {
      return false;
    }
    memcpy(out, bytes.data() + pos, 8);
    pos += 8;
    return true;
  };

  uint32_t magic = 0, version = 0, event_size = 0, ring_count = 0;
  if (!u32(&magic) || !u32(&version) || !u32(&event_size) || !u32(&ring_count) ||
      magic != kFlightRecorderMagic) {
    return Status(AfError::kBadValue, "not a flight-recorder dump: " + path);
  }
  if (version != kFlightRecorderVersion || event_size != sizeof(TraceEvent)) {
    return Status(AfError::kBadValue,
                  "flight dump from a different build (version/event size mismatch)");
  }
  if (ring_count > kFlightRecorderMaxRings) {
    return Status(AfError::kBadValue, "flight dump ring count out of range");
  }

  FlightDump dump;
  size_t torn = 0;
  for (uint32_t ring = 0; ring < ring_count; ++ring) {
    uint32_t shard = 0, n_counters = 0;
    uint64_t dropped = 0, recorded = 0, count = 0;
    if (!u32(&shard) || !u32(&n_counters) || !u64(&dropped) || !u64(&recorded) ||
        !u64(&count) || n_counters > kFlightRecorderMaxCounters) {
      return Status(AfError::kBadValue, "truncated flight dump ring header");
    }
    for (uint32_t c = 0; c < n_counters; ++c) {
      uint32_t name_len = 0;
      if (!u32(&name_len) || bytes.size() - pos < name_len) {
        return Status(AfError::kBadValue, "truncated flight dump counter");
      }
      std::string name(reinterpret_cast<const char*>(bytes.data() + pos), name_len);
      pos += name_len;
      uint64_t value = 0;
      if (!u64(&value)) {
        return Status(AfError::kBadValue, "truncated flight dump counter value");
      }
      Appendf(&dump.counters_text, "shard %" PRIu32 ": %s=%" PRIu64 "\n", shard,
              name.c_str(), value);
    }
    if (count > (bytes.size() - pos) / sizeof(TraceEvent)) {
      return Status(AfError::kBadValue, "truncated flight dump event block");
    }
    for (uint64_t i = 0; i < count; ++i) {
      TraceEvent ev;
      memcpy(&ev, bytes.data() + pos, sizeof(TraceEvent));
      pos += sizeof(TraceEvent);
      // The handler copies slots the victim threads may have been
      // mid-store into; a kind outside the enum marks the record torn.
      if (ev.kind == 0 || ev.kind > static_cast<uint8_t>(TraceKind::kTraceGap)) {
        ++torn;
        continue;
      }
      dump.trace.events.push_back(ev);
    }
    dump.trace.dropped += dropped;
  }
  if (torn > 0) {
    Appendf(&dump.counters_text, "(dropped %zu torn records)\n", torn);
  }
  std::stable_sort(dump.trace.events.begin(), dump.trace.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.host_us < b.host_us;
                   });
  for (const TraceEvent& ev : dump.trace.events) {
    dump.trace.host_now_us = std::max(dump.trace.host_now_us, ev.host_us);
  }
  return dump;
}

Result<std::string> RunAtrace(AFAudioConn& aud, const AtraceOptions& options) {
  if (options.merge) {
    // Correlated capture: client tracing mints IDs and records the client
    // half; the probe workload (GetTime round trips spread across the
    // window) guarantees corr-matched span pairs for clock alignment even
    // when the application drives no traffic of its own.
    aud.SetClientTracing(true);
    auto opened = aud.GetTrace(kTraceFlagEnable);
    if (!opened.ok()) {
      return opened.status();
    }
    const double span = options.window_seconds > 0 ? options.window_seconds : 0.25;
    constexpr int kProbes = 8;
    for (int i = 0; i < kProbes; ++i) {
      auto t = aud.GetTime(0);
      if (!t.ok()) {
        return t.status();
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(span / kProbes));
    }
    auto window = aud.GetTrace(options.disable_after ? kTraceFlagDisable : 0u);
    if (!window.ok()) {
      return window.status();
    }
    aud.SetClientTracing(false);
    TraceWire merged = window.take();
    std::vector<TraceEvent> client_events;
    aud.client_trace().Drain(&client_events);
    MergeClientServerTrace(&merged, std::move(client_events));
    const std::vector<LatencyBudgetRow> budget = ComputeLatencyBudget(merged);
    if (options.json) {
      return FormatMergedTraceJson(merged, budget);
    }
    return FormatTraceText(merged) + "\n" + FormatLatencyBudget(budget);
  }

  // One-shot holds the window open for window_seconds between the enabling
  // fetch and the disabling one — enable|disable in a single request would
  // capture a zero-length window and always come back empty. window 0 is
  // the degenerate drain-what-is-there mode (the demo pre-records, then
  // fetches).
  const double span =
      options.follow_seconds > 0 ? options.follow_seconds : options.window_seconds;
  uint32_t flags = options.enable ? kTraceFlagEnable : 0;
  if (span <= 0 && options.disable_after) {
    flags |= kTraceFlagDisable;
  }
  auto fetched = aud.GetTrace(flags);
  if (!fetched.ok()) {
    return fetched.status();
  }
  TraceWire merged = fetched.take();

  if (span > 0) {
    const bool follow = options.follow_seconds > 0;
    const double poll = follow ? options.poll_interval_seconds : span;
    // Follow-mode dedup: each shard's records carry its ring sequence, so
    // a record seen in an earlier poll (drain raced with a cross-shard
    // gather) is dropped by (shard, seq). seq 0 records (a pre-field
    // server) always pass.
    std::map<uint16_t, uint64_t> last_seq;
    std::vector<TraceEvent> deduped;
    deduped.reserve(merged.events.size());
    auto append_window = [&](const std::vector<TraceEvent>& events) {
      for (const TraceEvent& ev : events) {
        if (follow && ev.seq != 0) {
          uint64_t& last = last_seq[ev.shard];
          if (ev.seq <= last) {
            continue;
          }
          last = ev.seq;
        }
        deduped.push_back(ev);
      }
    };
    append_window(merged.events);
    uint64_t prev_dropped = merged.dropped;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(span);
    bool last = false;
    while (!last) {
      std::this_thread::sleep_for(std::chrono::duration<double>(poll));
      last = std::chrono::steady_clock::now() >= deadline;
      auto next =
          aud.GetTrace(last && options.disable_after ? kTraceFlagDisable : 0u);
      if (!next.ok()) {
        return next.status();
      }
      if (follow && next.value().dropped > prev_dropped) {
        // The ring wrapped between polls: events were lost where this
        // marker sits. value = how many.
        TraceEvent gap;
        gap.kind = static_cast<uint8_t>(TraceKind::kTraceGap);
        gap.host_us = next.value().host_now_us;
        gap.value = next.value().dropped - prev_dropped;
        deduped.push_back(gap);
      }
      prev_dropped = next.value().dropped;
      append_window(next.value().events);
      merged.enabled = next.value().enabled;
      merged.dropped = next.value().dropped;
      merged.host_now_us = next.value().host_now_us;
    }
    merged.events = std::move(deduped);
  }
  return options.json ? FormatTraceJson(merged) : FormatTraceText(merged);
}

}  // namespace af
