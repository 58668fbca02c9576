// Per-client connection state inside the server.
//
// Each client has an input buffer (requests are parsed once fully
// received), a send buffer (replies, errors, events - flushed by the main
// loop, with partial-write tracking), a 16-bit sequence counter, the
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
#include "server/send_buffer.h"
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
    send_ = SendBuffer(order);  // nothing is queued this early: setup only
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
  // false only on a hard transport error. Clears the pending-input flag
  // (see NoteReadable) only when the kernel proved the socket drained:
  // kWouldBlock or a short read.
  bool ReadAvailable();

  // --- readiness --------------------------------------------------------
  //
  // The socket is registered edge-triggered: the shard hears once that
  // bytes arrived, not on every wait while they sit there. So the
  // connection remembers it, from the edge until a read proves the socket
  // drained. (Bytes that arrived before adoption raise the first edge: the
  // registration reports what is already readable.) After a hangup edge a
  // short read proves nothing: it may have stopped just before the EOF
  // that edge announced.
  void NoteReadable(bool hangup) {
    in_pending_ = true;
    hangup_ = hangup_ || hangup;
  }

  // The shard may dispatch this client's requests: not suspended, not
  // closing, and unsent output under the egress guard.
  bool CanDispatch() const {
    return suspended_ == nullptr && state_ != State::kClosing && !out_blocked_;
  }
  // The shard may read this client's socket: it may dispatch, no EOF was
  // seen, and buffered input is under the flood guard. A client the shard
  // may not read leaves its bytes in the kernel, which is how the server
  // blocks it.
  bool CanRead() const { return CanDispatch() && !saw_eof_ && in_.size() < kInHighWater; }
  // The shard may read the socket and the kernel may hold bytes for it.
  bool WantsRead() const { return in_pending_ && CanRead(); }
  // Work the shard must do without waiting for another edge: a read it
  // wants, a complete request it may dispatch, or a flush a fault schedule
  // stalled on a writable socket.
  bool NeedsService() const {
    return WantsRead() || flush_retry_ || (CanDispatch() && HasCompleteRequest());
  }

  // The peer has closed its write side; no further input will arrive.
  bool saw_eof() const { return saw_eof_; }

  // Whether the buffer holds at least one complete request (or, before
  // setup, a complete setup packet), or a malformed one: the dispatcher
  // must see that and close the connection rather than the reaper skip it.
  // After EOF, a client with no complete request left can never make
  // progress and is reaped.
  bool HasCompleteRequest() const;

  // Bytes currently buffered and unconsumed. The view stays valid until
  // the next ReadAvailable(); Consume() moves no bytes.
  std::span<const uint8_t> Buffered() const { return in_.Buffered(); }
  void Consume(size_t n) { in_.Consume(n); }

  // --- output side ----------------------------------------------------

  // Appends encoded packets; the writer uses the client's byte order.
  WireWriter& out() { return send_.out(); }

  // The egress guard. Once this much output is unsent, the client is
  // neither read nor dispatched, like a suspended one: a client that does
  // not read its replies stops being served, and its requests wait in the
  // kernel. Flushes release it at kOutLowWater.
  static constexpr size_t kOutHighWater = 1u << 20;
  static constexpr size_t kOutLowWater = kOutHighWater / 2;

  // Writes as much pending output as the socket accepts. Replies, events,
  // and trace payloads that accumulated since the last drain leave together
  // in one write instead of one write each. Returns false on connection
  // failure.
  bool FlushOutput();
  bool HasPendingOutput() const { return send_.unsent() > 0; }
  // Engages the egress guard once unsent output reaches kOutHighWater
  // (counted and traced) and releases it at kOutLowWater. FlushOutput
  // calls it; dispatch calls it after each request.
  void UpdateEgressGuard();

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
  bool in_pending_ = false;  // the kernel may hold bytes not yet read
  bool hangup_ = false;      // the peer's hangup was announced

  SendBuffer send_;
  bool out_blocked_ = false;  // the egress guard is engaged
  bool flush_retry_ = false;  // the last flush met an injected stall

  ServerMetrics* metrics_ = nullptr;
  uint64_t faults_synced_ = 0;

  uint16_t seq_ = 0;
  std::map<DeviceId, uint32_t> event_masks_;
  std::set<ACId> acs_;
  std::unique_ptr<Suspended> suspended_;
};

}  // namespace af

#endif  // AF_SERVER_CLIENT_CONN_H_
