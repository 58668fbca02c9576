// Deterministic fault injection for the byte-stream transport.
//
// A FaultStream wraps an FdStream and perturbs its I/O according to a
// FaultSchedule: short reads and writes split at scripted byte offsets,
// kWouldBlock bursts, injected latency (routed through a pluggable hook so
// tests can drive a manual clock instead of sleeping), byte corruption at
// chosen offsets, mid-stream connection resets, and EOF at any prefix.
// Schedules are either scripted explicitly or generated from a seed, and
// every fault actually applied is recorded in a trace, so any failure a
// torture test finds reproduces exactly from its seed or script.
//
// With no schedule attached a FaultStream is a zero-cost pass-through
// (one null-pointer test per call); the server and client hot paths pay
// nothing when fault injection is off.
//
// Offsets are absolute byte positions within each direction of the wrapped
// stream: the read side counts bytes delivered to the caller, the write
// side bytes accepted from the caller. The two sides are independent.
#ifndef AF_TRANSPORT_FAULT_STREAM_H_
#define AF_TRANSPORT_FAULT_STREAM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "transport/stream.h"

namespace af {

// A scripted or seeded-random plan of transport faults, shared by the test
// that wrote it and the FaultStream that executes it (possibly on another
// thread: all state is mutex-guarded; schedules are never on a hot path).
class FaultSchedule {
 public:
  FaultSchedule() = default;

  // ---- scripting: connection lifetime ---------------------------------
  // Reads see a clean EOF (kClosed) once `offset` bytes have been
  // delivered; an EOF-at-every-prefix sweep is a loop over CutReadAt.
  void CutReadAt(uint64_t offset);
  // Writes fail with kClosed (peer gone, EPIPE-style) once `offset` bytes
  // have been accepted.
  void CutWriteAt(uint64_t offset);
  // Hard connection reset (kError) at the given offset.
  void ResetReadAt(uint64_t offset);
  void ResetWriteAt(uint64_t offset);

  // ---- scripting: fragmentation ---------------------------------------
  // A transfer crossing `offset` is split there: bytes up to the boundary
  // go through, the rest waits for the next call.
  void SplitReadAt(uint64_t offset);
  void SplitWriteAt(uint64_t offset);
  // Caps every transfer at n bytes (1 = byte-at-a-time delivery). 0 = off.
  void SetMaxReadChunk(size_t n);
  void SetMaxWriteChunk(size_t n);

  // ---- scripting: flow control ----------------------------------------
  // The first `times` reads (writes) at or past `offset` return
  // kWouldBlock before any data moves.
  void WouldBlockReadAt(uint64_t offset, int times);
  void WouldBlockWriteAt(uint64_t offset, int times);

  // ---- scripting: data integrity --------------------------------------
  // XORs the byte at the absolute offset with mask (mask 0 is a no-op and
  // is remapped to 0xFF). Read-side corruption flips the byte after it
  // leaves the kernel; write-side before it enters.
  void CorruptReadByte(uint64_t offset, uint8_t xor_mask);
  void CorruptWriteByte(uint64_t offset, uint8_t xor_mask);

  // ---- scripting: timing ----------------------------------------------
  // Injects `usec` of latency before the transfer that crosses `offset`.
  void DelayReadAt(uint64_t offset, uint64_t usec);
  void DelayWriteAt(uint64_t offset, uint64_t usec);
  // Latency sink; defaults to SleepMicros. Tests plug the manual clock in
  // here (e.g. advance a ManualSampleClock) to keep torture runs both
  // deterministic and fast.
  void SetLatencyHook(std::function<void(uint64_t)> hook);

  // ---- seeded random fault walk ---------------------------------------
  struct RandomProfile {
    double p_short = 0.25;        // truncate the transfer to 1..short_max bytes
    size_t short_max = 8;
    double p_would_block = 0.20;  // burst of 1..would_block_max kWouldBlocks
    int would_block_max = 3;
    double p_delay = 0.10;        // 1..delay_max_us of injected latency
    uint64_t delay_max_us = 500;
    double p_corrupt = 0.0;       // flip one byte inside the transfer
    double p_cut = 0.0;           // sticky EOF from here on
    double p_reset = 0.0;         // sticky hard error from here on
  };
  // A schedule whose per-call decisions come from an xorshift generator
  // seeded with `seed`: the same seed always yields the same fault walk.
  static std::shared_ptr<FaultSchedule> Random(uint64_t seed, RandomProfile profile);
  static std::shared_ptr<FaultSchedule> Random(uint64_t seed) {
    return Random(seed, RandomProfile());
  }

  uint64_t seed() const { return seed_; }

  // ---- trace -----------------------------------------------------------
  // Every applied fault, in order, as "read@<offset> <fault>" /
  // "write@<offset> <fault>" lines. Two runs of the same schedule against
  // the same byte stream produce identical traces.
  std::vector<std::string> Trace() const;
  // The trace joined with "; " — printed by torture tests on failure.
  std::string TraceString() const;
  size_t faults_applied() const;

  // ---- execution interface (called by FaultStream) ---------------------
  struct Decision {
    IoStatus status = IoStatus::kOk;  // kOk = let the transfer proceed
    size_t max_len = 0;               // cap on the transfer when kOk
  };
  Decision OnRead(uint64_t offset, size_t len);
  Decision OnWrite(uint64_t offset, size_t len);
  // Applies (and consumes) read-side corruption for delivered bytes
  // [offset, offset+n).
  void ApplyReadCorruption(uint64_t offset, uint8_t* buf, size_t n);
  // True if any write-side corruption lands in [offset, offset+n).
  bool WantsWriteCorruption(uint64_t offset, size_t n) const;
  // XORs staged write bytes for [offset, offset+n); call ConsumeWriteCorruption
  // with the count actually written so unsent corruption stays pending.
  void ApplyWriteCorruption(uint64_t offset, uint8_t* buf, size_t n) const;
  void ConsumeWriteCorruption(uint64_t offset, size_t written);

 private:
  struct Channel {
    std::optional<uint64_t> cut;
    std::optional<uint64_t> reset;
    std::map<uint64_t, int> would_block;       // offset -> remaining returns
    std::map<uint64_t, uint8_t> corrupt;       // offset -> xor mask
    std::map<uint64_t, uint64_t> delays;       // offset -> usec (fires once)
    std::vector<uint64_t> splits;              // sorted transfer boundaries
    size_t max_chunk = 0;                      // 0 = unlimited
  };

  Decision Decide(Channel& ch, const char* dir, uint64_t offset, size_t len);
  void RecordLocked(const char* dir, uint64_t offset, const std::string& what);
  // 1..n from the deterministic generator.
  uint64_t Rand(uint64_t n);

  mutable std::mutex mu_;
  Channel read_, write_;
  std::function<void(uint64_t)> latency_hook_;
  std::vector<std::string> trace_;

  bool random_mode_ = false;
  uint64_t seed_ = 0;
  uint64_t rng_state_ = 0;
  RandomProfile profile_;
};

// An FdStream plus an optional FaultSchedule. Mirrors the FdStream I/O
// surface so ClientConn and AFAudioConn can hold one in place of a bare
// FdStream; constructing from a plain FdStream (no schedule) keeps every
// call a direct pass-through.
class FaultStream {
 public:
  FaultStream() = default;
  // Implicit: adopting a bare FdStream is the common, fault-free case.
  FaultStream(FdStream inner) : inner_(std::move(inner)) {}  // NOLINT
  FaultStream(FdStream inner, std::shared_ptr<FaultSchedule> schedule)
      : inner_(std::move(inner)), schedule_(std::move(schedule)) {}

  FaultStream(FaultStream&&) noexcept = default;
  FaultStream& operator=(FaultStream&&) noexcept = default;
  FaultStream(const FaultStream&) = delete;
  FaultStream& operator=(const FaultStream&) = delete;

  bool valid() const { return inner_.valid(); }
  int fd() const { return inner_.fd(); }
  FdStream& inner() { return inner_; }
  const std::shared_ptr<FaultSchedule>& schedule() const { return schedule_; }
  void SetSchedule(std::shared_ptr<FaultSchedule> schedule) {
    schedule_ = std::move(schedule);
  }

  IoResult Read(void* buf, size_t len);
  IoResult Write(const void* buf, size_t len);
  // FdStream's blocking loops run over the faulty Read/Write: an injected
  // kWouldBlock waits for the fd like a real one.
  Status ReadAll(void* buf, size_t len) { return TransferAll<IoDir::kRead>(*this, buf, len); }
  Status WriteAll(const void* buf, size_t len) {
    return TransferAll<IoDir::kWrite>(*this, buf, len);
  }

  Status SetNonBlocking(bool nonblocking) { return inner_.SetNonBlocking(nonblocking); }
  void SetNoDelay(bool nodelay) { inner_.SetNoDelay(nodelay); }
  void Shutdown() { inner_.Shutdown(); }
  void Close() { inner_.Close(); }

 private:
  IoResult FaultyRead(void* buf, size_t len);
  IoResult FaultyWrite(const void* buf, size_t len);

  FdStream inner_;
  std::shared_ptr<FaultSchedule> schedule_;
  uint64_t read_offset_ = 0;
  uint64_t write_offset_ = 0;
};

inline IoResult FaultStream::Read(void* buf, size_t len) {
  if (schedule_ == nullptr) {
    return inner_.Read(buf, len);
  }
  return FaultyRead(buf, len);
}

inline IoResult FaultStream::Write(const void* buf, size_t len) {
  if (schedule_ == nullptr) {
    return inner_.Write(buf, len);
  }
  return FaultyWrite(buf, len);
}

}  // namespace af

#endif  // AF_TRANSPORT_FAULT_STREAM_H_
