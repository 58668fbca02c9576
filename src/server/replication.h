// Primary/backup server replication (PR 8).
//
// The primary streams the op log (proto/oplog.h) — connection table, AC
// attributes, device settings, ATime watermarks; never bulk audio — over
// any connected byte stream to a backup server. The backup applies every
// record into a shadow of the primary's control-plane state and, when the
// link dies (the primary crashed), promotes itself: device gains/enables
// are replayed onto its own devices and each device's time model is
// fast-forwarded to the last replicated watermark, so times the dead
// primary handed to clients remain in the backup's past. Reconnecting
// clients then re-anchor with ResyncTime (opcode 40).
//
// Flow control: the primary's link is nonblocking. Records that do not fit
// the socket buffer wait in its send buffer; the backup acks cumulatively,
// and if the unacked window exceeds kAckWindow records (a dead or wedged
// backup) the primary drops the link and keeps serving — replication is
// best-effort protection, never a hazard to the primary's own clients.
#ifndef AF_SERVER_REPLICATION_H_
#define AF_SERVER_REPLICATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "proto/oplog.h"
#include "server/send_buffer.h"
#include "transport/stream.h"

namespace af {

class AFServer;

class ReplicationPrimary {
 public:
  // Records in flight beyond the backup's cumulative ack before the
  // primary declares the backup dead and drops the link.
  static constexpr uint64_t kAckWindow = 4096;

  explicit ReplicationPrimary(FdStream link);

  // Assigns the next sequence number and ships the record. Thread-safe
  // (any shard may emit); cheap once the link is down.
  void Emit(OplogRecord rec);

  bool link_up() const { return up_.load(std::memory_order_relaxed); }
  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  uint64_t acked() const { return acked_.load(std::memory_order_relaxed); }
  uint64_t overflows() const { return overflows_.load(std::memory_order_relaxed); }

  // Drops the link deliberately (tests: simulate a partitioned backup).
  void DropLink();

 private:
  void DrainAcksLocked();
  void FlushLocked();
  void DropLinkLocked();

  std::mutex mu_;
  FaultStream link_;
  SendBuffer send_;  // the hello and records the socket has not taken yet
  uint8_t ack_buf_[kOplogAckBytes];
  size_t ack_fill_ = 0;
  uint64_t seq_ = 0;
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> overflows_{0};
  std::atomic<bool> up_{true};
};

class ReplicationBackup {
 public:
  // Starts the reader thread. It applies the primary's op log into shadow
  // state, acks cumulatively, and promotes `server` when the link dies.
  ReplicationBackup(AFServer& server, FdStream link);
  ~ReplicationBackup();  // stops the thread and joins

  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  uint64_t applied() const { return applied_.load(std::memory_order_relaxed); }

  // Blocks until promotion completes (or the timeout). Tests.
  bool WaitPromoted(int timeout_ms);

  // Shadow introspection (tests; racy against the reader thread unless the
  // link is already dead).
  size_t shadow_clients() const;
  size_t shadow_acs() const;

  // Looks up the shadowed attributes for `ac`; false if the AC is unknown.
  // Lets tests assert bit-equality between a reconnected client's attribute
  // record and what replication delivered to the backup.
  bool ShadowACAttrs(uint32_t ac, ACAttributes* out) const;

 private:
  struct DeviceShadow {
    bool has_input_gain = false;
    bool has_output_gain = false;
    bool has_input_mask = false;
    bool has_output_mask = false;
    int input_gain_db = 0;
    int output_gain_db = 0;
    uint32_t input_mask = 0;
    uint32_t output_mask = 0;
    bool has_watermark = false;
    ATime watermark = 0;
  };
  struct ACShadow {
    uint32_t client = 0;
    uint32_t device = 0;  // DeviceId + 1
    ACAttributes attrs;
  };

  void Run();
  void Apply(const OplogRecord& rec);
  void Promote();

  AFServer& server_;
  FdStream link_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<uint64_t> applied_{0};

  mutable std::mutex mu_;  // guards the shadow tables
  std::condition_variable promoted_cv_;
  std::unordered_map<uint32_t, uint32_t> clients_;  // client number -> AC count
  std::unordered_map<uint32_t, ACShadow> acs_;
  std::unordered_map<uint32_t, DeviceShadow> devices_;  // keyed DeviceId + 1

  std::thread thread_;  // last member: starts after everything is built
};

}  // namespace af

#endif  // AF_SERVER_REPLICATION_H_
