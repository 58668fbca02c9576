// Per-client connection state inside the server.
//
// Each client has an input buffer (requests are parsed once fully
// received), an output buffer (replies, errors, events - flushed by the
// main loop, with partial-write tracking), a 16-bit sequence counter, the
// wire byte order announced at setup, per-device event interests, and -
// when a record or play request must block - a suspended request that
// freezes further input from this connection until a task resumes it
// (the paper's "server blocks the client" semantics: only this client
// stalls, everyone else keeps being served). A multi-shard GetTrace parks
// its requester the same way until every shard's window has landed.
//
// A connection belongs to its home shard: only that shard's loop thread
// ever touches it.
#ifndef AF_SERVER_CLIENT_CONN_H_
#define AF_SERVER_CLIENT_CONN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "proto/requests.h"
#include "proto/types.h"
#include "proto/wire.h"
#include "transport/fault_stream.h"
#include "transport/recv_buffer.h"
#include "transport/stream.h"

namespace af {

struct ServerMetrics;

class ClientConn {
 public:
  enum class State { kAwaitingSetup, kRunning, kClosing };

  // Accepts a plain FdStream (the normal case; FaultStream converts
  // implicitly as a pure pass-through) or a fault-injecting stream built
  // by Server::AdoptClient for torture tests.
  ClientConn(FaultStream stream, PeerAddress peer, uint32_t client_number);

  // Wires this connection into the server's metrics spine (bytes in/out,
  // high-water hits, fault applications). Null is fine: recording becomes
  // a no-op, which is what unit tests that build bare ClientConns get.
  void AttachMetrics(ServerMetrics* metrics) { metrics_ = metrics; }
  // Folds fault applications newly recorded by this connection's fault
  // schedule (if any) into the server's faults_applied counter.
  void SyncFaultMetrics();

  int fd() const { return stream_.fd(); }
  const PeerAddress& peer() const { return peer_; }
  State state() const { return state_; }
  void set_state(State s) { state_ = s; }
  uint32_t client_number() const { return client_number_; }

  WireOrder order() const { return order_; }
  // Only valid before any output has been generated (i.e. during setup).
  void set_order(WireOrder order) {
    order_ = order;
    *out_ = WireWriter(order);  // egress is empty this early: setup only
  }

  uint32_t resource_id_base() const { return client_number_ << 20; }
  uint32_t resource_id_mask() const { return 0xFFFFFu; }
  bool OwnsResourceId(uint32_t id) const {
    return (id & ~resource_id_mask()) == resource_id_base();
  }

  // --- input side -----------------------------------------------------

  // ReadAvailable stops draining the socket once this much unconsumed
  // input is buffered: comfortably above the largest possible request
  // (0xFFFF words = 256 KiB) so a complete request always fits, but
  // bounded so a flooding client costs a fixed amount of memory, not
  // whatever it can push.
  static constexpr size_t kInHighWater = 1u << 20;

  // Pulls whatever the socket has into the input buffer, stopping at the
  // flood high-water mark so one hostile client cannot balloon server
  // memory (the unread remainder stays in the kernel as backpressure).
  // EOF is not fatal: it sets saw_eof() and returns true, so requests the
  // peer sent before closing its write side are still served. Returns
  // false only on a hard transport error.
  bool ReadAvailable();

  // The peer has closed its write side; no further input will arrive.
  bool saw_eof() const { return saw_eof_; }

  // Whether the buffer holds at least one complete request (or, before
  // setup, a complete setup packet). After EOF, a client with no complete
  // request left can never make progress and is reaped.
  bool HasCompleteRequest() const;

  // Bytes currently buffered and unconsumed. The view stays valid until
  // the next ReadAvailable(); Consume() moves no bytes.
  std::span<const uint8_t> Buffered() const { return in_.Buffered(); }
  void Consume(size_t n) { in_.Consume(n); }

  // --- output side ----------------------------------------------------

  // Appends encoded packets; the writer uses the client's byte order.
  WireWriter& out() { return *out_; }

  // Writes as much pending output as the socket accepts: staged writer
  // bytes move (no copy) onto the egress segment chain, which drains as a
  // single writev per syscall — replies, events, and trace payloads that
  // accumulated since the last drain coalesce instead of going out one
  // write each. Returns false on connection failure.
  bool FlushOutput();
  bool HasPendingOutput() const;

  // Seals the bytes staged so far into their own egress segment (a
  // zero-copy buffer move). The dispatch loop calls this after every
  // request, so each reply travels as one iovec of the next drain's
  // writev.
  void StageOutput();

  // --- sequence numbers -------------------------------------------------

  uint16_t seq() const { return seq_; }
  void BumpSeq() { ++seq_; }

  // --- event interests ---------------------------------------------------

  void SelectEvents(DeviceId device, uint32_t mask);
  bool WantsEvent(DeviceId device, uint32_t event_mask) const;

  // --- audio contexts owned by this client ------------------------------

  // The ids of this client's audio contexts (their ServerAC entries live
  // in the home shard's table); RemoveClient frees them.
  std::set<ACId>& acs() { return acs_; }

  // --- suspended (blocked) request ---------------------------------------

  struct Suspended {
    RequestHeader header;
    std::vector<uint8_t> body;     // request body (after the 4-byte header)
    size_t play_progress = 0;      // client data bytes already written
    uint64_t corr = 0;             // correlation ID of the parked request
  };

  bool suspended() const { return suspended_ != nullptr; }
  void Suspend(const RequestHeader& header, std::span<const uint8_t> body,
               size_t play_progress, uint64_t corr = 0);
  std::unique_ptr<Suspended> TakeSuspended() { return std::move(suspended_); }
  Suspended* suspended_request() { return suspended_.get(); }

 private:
  FaultStream stream_;
  PeerAddress peer_;
  uint32_t client_number_;
  State state_ = State::kAwaitingSetup;
  WireOrder order_ = HostWireOrder();

  RecvBuffer in_;
  bool saw_eof_ = false;

  std::unique_ptr<WireWriter> out_;

  // Egress chain: segments queued oldest-first; the head may be partially
  // written. Drained segments are recycled through spare_ so the
  // steady-state flush cycle allocates nothing.
  std::vector<std::vector<uint8_t>> egress_;
  size_t egress_head_ = 0;       // first segment with bytes left
  size_t egress_head_off_ = 0;   // bytes of that segment already written
  std::vector<std::vector<uint8_t>> spare_;

  ServerMetrics* metrics_ = nullptr;
  uint64_t faults_synced_ = 0;

  uint16_t seq_ = 0;
  std::map<DeviceId, uint32_t> event_masks_;
  std::set<ACId> acs_;
  std::unique_ptr<Suspended> suspended_;
};

}  // namespace af

#endif  // AF_SERVER_CLIENT_CONN_H_
