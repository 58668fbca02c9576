#include "common/trace.h"

#include <bit>

#include "common/clock.h"

namespace af {

const char* TraceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kNone: return "none";
    case TraceKind::kRequest: return "request";
    case TraceKind::kRead: return "read";
    case TraceKind::kFlush: return "flush";
    case TraceKind::kAccept: return "accept";
    case TraceKind::kReap: return "reap";
    case TraceKind::kHighWater: return "highwater";
    case TraceKind::kFaultApplied: return "fault";
    case TraceKind::kSuspend: return "suspend";
    case TraceKind::kResume: return "resume";
    case TraceKind::kUnderrun: return "underrun";
    case TraceKind::kSilenceFill: return "silence_fill";
    case TraceKind::kPreemptWrite: return "preempt_write";
    case TraceKind::kMixWrite: return "mix_write";
    case TraceKind::kUpdateLag: return "update_lag";
    case TraceKind::kDeviceUpdate: return "device_update";
    case TraceKind::kRecordOverrun: return "record_overrun";
    case TraceKind::kNetLoss: return "net_loss";
    case TraceKind::kDeviceEvent: return "device_event";
    case TraceKind::kPlayDiscard: return "play_discard";
    case TraceKind::kResync: return "resync";
    case TraceKind::kTraceStart: return "trace_start";
    case TraceKind::kClientEnqueue: return "client_enqueue";
    case TraceKind::kClientFlush: return "client_flush";
    case TraceKind::kClientReply: return "client_reply";
    case TraceKind::kMailboxHop: return "mailbox_hop";
    case TraceKind::kRemoteExec: return "remote_exec";
    case TraceKind::kOplogEmit: return "oplog_emit";
    case TraceKind::kTraceGap: return "gap";
  }
  return "?";
}

void TraceDeviceEvent(TraceKind kind, uint32_t device_index, uint32_t dev_time,
                      uint64_t value, uint8_t arg) {
  TraceRing& tr = GlobalTrace();
  if (!tr.enabled()) {
    return;
  }
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(kind);
  ev.arg = arg;
  ev.device = device_index + 1;
  ev.dev_time = dev_time;
  ev.host_us = HostMicros();
  ev.value = value;
  ev.corr = CurrentTraceCorr();
  tr.Record(ev);
}

TraceRing::TraceRing(size_t capacity) {
  capacity_ = std::bit_ceil(capacity < 2 ? size_t{2} : capacity);
  mask_ = capacity_ - 1;
  events_.resize(capacity_);
}

size_t TraceRing::Drain(std::vector<TraceEvent>* out) {
  const uint64_t head = seq_.load(std::memory_order_relaxed);
  uint64_t cursor = read_seq_.load(std::memory_order_relaxed);
  if (head - cursor > capacity_) {
    cursor = head - capacity_;  // the rest were overwritten (counted then)
  }
  const size_t n = static_cast<size_t>(head - cursor);
  for (; cursor != head; ++cursor) {
    out->push_back(events_[cursor & mask_]);
  }
  read_seq_.store(head, std::memory_order_relaxed);
  return n;
}

void TraceRing::Clear() {
  read_seq_.store(seq_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

namespace {
thread_local TraceRing* g_thread_ring = nullptr;
thread_local uint64_t g_trace_corr = 0;

TraceRing& ProcessTrace() {
  static TraceRing ring;
  return ring;
}
}  // namespace

TraceRing& GlobalTrace() {
  return g_thread_ring != nullptr ? *g_thread_ring : ProcessTrace();
}

void SetThreadTraceRing(TraceRing* ring) { g_thread_ring = ring; }

uint64_t CurrentTraceCorr() { return g_trace_corr; }

void SetCurrentTraceCorr(uint64_t corr) { g_trace_corr = corr; }

}  // namespace af
