// Event tracing: a fixed-capacity ring of timestamped trace records.
//
// Where metrics (common/metrics.h) aggregate, traces itemise: one record
// per interesting event, stamped with the host clock and — for device
// events — the device's SampleClock time, so a trace lines up against
// audio time (CRL 93/8 measures in exactly these two domains).
//
// Hot-path contract, matching metrics.h: Record() never allocates and
// never takes a lock. With tracing off it is a single relaxed load; with
// tracing on it is one relaxed fetch_add, a 56-byte store into a
// preallocated slot, and one relaxed load for overwrite detection. The
// zero-allocation golden test runs with tracing live to enforce this.
//
// Memory: a ring's slots are one private anonymous mapping that nothing
// touches at construction, so a ring costs no resident memory until
// tracing writes to it; each page of slots faults in on its first record
// and stays until the ring is destroyed. Drain() and the flight recorder
// read only the live span, so they never touch an unwritten page. Never
// value-initialise or clear the slot array: that makes every page of every
// ring resident whether tracing runs or not.
//
// Threading: each ring has one writer thread. A server shard owns one
// ring and records into it from its loop thread (dispatch, the device
// calls it makes, update tasks, and transport callbacks all run there);
// Drain() must be called from the same thread (GetTrace is itself a
// dispatched request, and a multi-shard gather drains each ring on its
// own shard). The sequence counter and the enable flag are atomics so
// Enable()/dropped() from another thread (bench, tests) are torn-free.
//
// When the ring wraps before a drain, the oldest records are overwritten;
// every overwrite of an undrained record increments dropped() and the
// attached Counter (surfaced as trace_dropped_events in GetServerStats),
// so a truncated trace is always observable, never silent.
//
// Causality: every record carries a 64-bit correlation ID (corr) minted by
// the client for the request that caused it, a ring sequence number (seq,
// 1-based; 0 = recorded by a build that predates the field), and the index
// of the shard that owns the ring. The correlation ID flows across the
// wire (request aux trailer), into replication op-log records, and
// through reconnect replays, so one
// request's records can be joined into a single causal timeline no matter
// which process or shard recorded them (atrace --merge).
#ifndef AF_COMMON_TRACE_H_
#define AF_COMMON_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metrics.h"

namespace af {

enum class TraceKind : uint8_t {
  kNone = 0,
  // Request pipeline. kRequest is a span (dur_us covers decode + dispatch
  // + reply generation); the rest are instants.
  kRequest = 1,      // arg = opcode, conn, value = request bytes
  kRead = 2,         // conn, value = bytes read from the socket
  kFlush = 3,        // conn, value = bytes flushed to the socket
  // Server-loop instants.
  kAccept = 4,       // conn
  kReap = 5,         // conn
  kHighWater = 6,    // conn, value = buffered input bytes
  kFaultApplied = 7, // conn, value = faults applied since the last sync
  kSuspend = 8,      // conn, arg = opcode parked by flow control
  kResume = 9,       // conn, arg = opcode re-dispatched
  // Device-timeline instants (dev_time is the device's SampleClock time).
  kUnderrun = 10,    // value = samples lost
  kSilenceFill = 11, // value = frames filled
  kPreemptWrite = 12,  // value = frames written preemptively
  kMixWrite = 13,      // value = frames mixed into the play buffer
  kUpdateLag = 14,     // value = micros the update task ran past its deadline
  // Device update task, recorded as a span.
  kDeviceUpdate = 15,  // value = frames moved
  kRecordOverrun = 16, // value = frames lost from the hardware history
  kNetLoss = 17,       // value = bytes lost to datagram loss (LineServer)
  kDeviceEvent = 18,   // arg = event type, value = event detail
  kPlayDiscard = 19,   // value = play frames clipped to the past (samples lost)
  kResync = 20,        // failover resync instant: value = gap in samples
  // Causal-tracing records (PR 9).
  kTraceStart = 21,    // capture window opened: value = generation counter
  kClientEnqueue = 22, // client: request queued; arg = opcode, value = bytes
  kClientFlush = 23,   // client: buffered requests flushed; value = bytes
  kClientReply = 24,   // client span: enqueue..reply; arg = opcode
  // 25 and 26 timed the retired cross-shard borrow (mailbox dwell, then
  // the owner shard's execution span). No longer recorded; reserved so
  // older flight dumps still decode.
  kMailboxHop = 25,
  kRemoteExec = 26,
  kOplogEmit = 27,     // replication op-log record emitted; arg = record type
  kTraceGap = 28,      // synthetic (atrace --follow): value = events dropped
  kEgressHighWater = 29,  // conn, value = unsent output bytes
};
constexpr TraceKind kLastTraceKind = TraceKind::kEgressHighWater;

const char* TraceKindName(TraceKind k);

// One trace record. POD, fixed size; the wire form (proto/trace_wire.h)
// serialises these fields in order and is append-only.
struct TraceEvent {
  uint8_t kind = 0;      // TraceKind
  uint8_t arg = 0;       // opcode for request/suspend/resume, mode otherwise
  uint16_t shard = 0;    // ring owner's shard index (stamped by Record())
  uint32_t conn = 0;     // client number; 0 = not connection-bound
  uint32_t device = 0;   // device index + 1; 0 = not device-bound
  uint32_t dev_time = 0; // device SampleClock time (ATime) at the event
  uint64_t host_us = 0;  // HostMicros() at the event (span start for spans)
  uint32_t dur_us = 0;   // span duration; 0 for instants
  uint64_t value = 0;    // bytes / frames / samples / micros, per kind
  uint64_t corr = 0;     // correlation ID; 0 = not request-bound
  uint64_t seq = 0;      // 1-based ring sequence (stamped by Record()); 0 = unstamped
};

// Fixed-capacity single-writer ring. Capacity is rounded up to a power of
// two at construction, which maps the slot array (the only memory this
// class ever obtains; a failed mapping is fatal). Not copyable: the ring
// owns its mapping.
class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceRing(size_t capacity = kDefaultCapacity);
  ~TraceRing();
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // With a generation gate attached (sharded server), Enable() flips the
  // shared counter's parity with a CAS — odd = capturing — so the first
  // shard to ask opens (or closes) the window for every ring on the same
  // gate at one atomic instant; later calls asking for the same state are
  // no-ops. Without a gate it is a plain store to the private flag.
  void Enable(bool on) {
    if (gate_ != nullptr) {
      uint64_t g = gate_->load(std::memory_order_relaxed);
      while ((g & 1) != (on ? 1u : 0u)) {
        if (gate_->compare_exchange_weak(g, g + 1, std::memory_order_relaxed)) {
          break;
        }
      }
      return;
    }
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    if (gate_ != nullptr) {
      return (gate_->load(std::memory_order_relaxed) & 1) != 0;
    }
    return enabled_.load(std::memory_order_relaxed);
  }

  // Overwrites of undrained records also bump *c (may be nullptr). The
  // pointer must outlive the ring or be detached with nullptr.
  void AttachDropCounter(Counter* c) { drop_counter_ = c; }

  // Shares the enable flag across every ring attached to *gate (a
  // monotonic generation counter; odd = enabled). The pointer must outlive
  // the ring or be detached with nullptr. On the first Record() of a new
  // generation the ring self-records a kTraceStart instant carrying the
  // generation value, so drained windows can be proven to line up. The
  // seen-generation mark resets on every attach, so a ring moved to a new
  // gate re-stamps even if that gate's first generation repeats a value
  // the old one reached.
  void AttachGenerationGate(std::atomic<uint64_t>* gate) {
    gate_ = gate;
    last_gen_seen_ = 0;
  }

  // Stamps every subsequent record's shard field. Writer-thread only.
  void SetShardIndex(uint16_t shard) { shard_ = shard; }

  void Record(const TraceEvent& ev) {
    if (gate_ != nullptr) {
      const uint64_t gen = gate_->load(std::memory_order_relaxed);
      if ((gen & 1) == 0) {
        return;
      }
      if (gen != last_gen_seen_) {
        last_gen_seen_ = gen;
        TraceEvent start;
        start.kind = static_cast<uint8_t>(TraceKind::kTraceStart);
        start.host_us = ev.host_us;
        start.value = gen;
        Put(start);
      }
    } else if (!enabled_.load(std::memory_order_relaxed)) {
      return;
    }
    Put(ev);
  }

  // Appends every undrained record to *out (oldest first) and advances the
  // cursor past them. Records lost to a wrap are skipped (already counted
  // in dropped()). Returns the number appended. Writer-thread only.
  size_t Drain(std::vector<TraceEvent>* out);

  // Forgets all undrained records without counting them as dropped.
  void Clear();

  uint64_t recorded() const { return seq_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }

  // Raw slot storage, for the flight recorder's signal handler: the handler
  // may only call async-signal-safe functions, so it reads the preallocated
  // slot array directly (recorded() picks the live span) instead of Drain().
  // capacity() slots long.
  const TraceEvent* raw_slots() const { return events_; }

 private:
  void Put(const TraceEvent& ev) {
    const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    TraceEvent& slot = events_[seq & mask_];
    slot = ev;
    slot.shard = shard_;
    slot.seq = seq + 1;
    if (seq - read_seq_.load(std::memory_order_relaxed) >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      if (drop_counter_ != nullptr) {
        drop_counter_->Add(1);
      }
    }
  }

  size_t capacity_;
  size_t mask_;
  size_t mapped_bytes_;
  TraceEvent* events_;  // capacity_ slots in an anonymous mapping
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seq_{0};       // next record's sequence number
  std::atomic<uint64_t> read_seq_{0};  // first undrained sequence number
  std::atomic<uint64_t> dropped_{0};
  Counter* drop_counter_ = nullptr;
  std::atomic<uint64_t>* gate_ = nullptr;  // shared generation counter
  uint64_t last_gen_seen_ = 0;             // writer-thread only
  uint16_t shard_ = 0;
};

// The calling thread's trace ring. Every server shard redirects its loop
// thread to the shard's own ring with SetThreadTraceRing, so device and
// transport code keeps calling GlobalTrace() unchanged while records land
// in the ring of the shard that produced them. Any other thread records
// into one process-wide default ring.
TraceRing& GlobalTrace();

// Redirects GlobalTrace() on the calling thread to *ring (nullptr restores
// the process-wide default). The ring must outlive the thread's use of it.
void SetThreadTraceRing(TraceRing* ring);

// The calling thread's current correlation ID (0 outside any request).
// Dispatch sets it for the duration of a request so deep call sites — mix
// writes, op-log emits, resync instants — stamp their records without new
// parameters threading through every layer.
uint64_t CurrentTraceCorr();
void SetCurrentTraceCorr(uint64_t corr);

// RAII: set the thread's correlation ID for a scope, restoring the
// previous value on exit.
class ScopedTraceCorr {
 public:
  explicit ScopedTraceCorr(uint64_t corr) : prev_(CurrentTraceCorr()) {
    SetCurrentTraceCorr(corr);
  }
  ~ScopedTraceCorr() { SetCurrentTraceCorr(prev_); }
  ScopedTraceCorr(const ScopedTraceCorr&) = delete;
  ScopedTraceCorr& operator=(const ScopedTraceCorr&) = delete;

 private:
  uint64_t prev_;
};

// Records a device-timeline instant into GlobalTrace(). dev_time is the
// device's SampleClock time as already computed by the caller — the helper
// never reads the device clock itself (GetTime() advances time registers).
// The record carries the calling thread's current correlation ID.
void TraceDeviceEvent(TraceKind kind, uint32_t device_index, uint32_t dev_time,
                      uint64_t value, uint8_t arg = 0);

}  // namespace af

#endif  // AF_COMMON_TRACE_H_
