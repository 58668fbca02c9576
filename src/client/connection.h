// AFAudioConn: the client library's connection object (CRL 93/8 Section 6).
//
// The core library is the sole interface to the protocol: connection
// management, client-side copies of the device data, translation of calls
// into protocol requests, demultiplexing of the reply/event stream, and
// buffer management of the communications channel. Requests that need no
// reply are queued and flushed lazily; synchronous calls flush and wait.
#ifndef AF_CLIENT_CONNECTION_H_
#define AF_CLIENT_CONNECTION_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/atime.h"
#include "common/error.h"
#include "common/trace.h"
#include "proto/atoms.h"
#include "proto/events.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/stats.h"
#include "proto/trace_wire.h"
#include "transport/fault_stream.h"
#include "transport/recv_buffer.h"
#include "transport/stream.h"

namespace af {

class AC;

class AFAudioConn {
 public:
  // Opens a connection to the audio server named by, in priority order:
  // the explicit name argument, $AUDIOFILE, $DISPLAY (the paper's fallback,
  // since the user's workstation usually has both audio and graphics).
  static Result<std::unique_ptr<AFAudioConn>> Open(std::string_view name = "");

  // Wraps an already-connected stream (e.g. a socketpair end) and performs
  // the setup handshake on it.
  static Result<std::unique_ptr<AFAudioConn>> FromStream(FdStream stream,
                                                         std::string name = "(stream)");
  // Torture-test variant: the client's transport runs through a
  // FaultStream driven by the given schedule (null = no faults).
  static Result<std::unique_ptr<AFAudioConn>> FromStream(FdStream stream,
                                                         std::shared_ptr<FaultSchedule> faults,
                                                         std::string name = "(faulty)");

  ~AFAudioConn();
  AFAudioConn(const AFAudioConn&) = delete;
  AFAudioConn& operator=(const AFAudioConn&) = delete;

  // --- connection information ---------------------------------------------

  // AFAudioConnName.
  const std::string& name() const { return name_; }
  const std::string& vendor() const { return setup_.vendor; }
  const std::vector<DeviceDesc>& devices() const { return setup_.devices; }
  // The lowest-numbered device not connected to the telephone: usually the
  // local speaker/microphone (the clients' FindDefaultDevice).
  const DeviceDesc* FindDefaultDevice() const;
  const DeviceDesc* FindDefaultPhoneDevice() const;

  // --- error handling ------------------------------------------------------

  // Protocol errors; default prints AFGetErrorText output and exits.
  using ErrorHandler = std::function<void(AFAudioConn&, const ErrorPacket&)>;
  // Transport failures; default prints and exits.
  using IOErrorHandler = std::function<void(AFAudioConn&)>;
  void SetErrorHandler(ErrorHandler handler) { error_handler_ = std::move(handler); }
  void SetIOErrorHandler(IOErrorHandler handler) { io_error_handler_ = std::move(handler); }

  // --- synchronization ------------------------------------------------------

  void Flush();  // AFFlush: write the request queue to the server
  void Sync();   // AFSync: flush and round-trip a SyncConnection
  // AFSynchronize: when enabled, every request is followed by Sync().
  void SetSynchronize(bool enabled) { synchronous_ = enabled; }
  using AfterFunction = std::function<void(AFAudioConn&)>;
  void SetAfterFunction(AfterFunction fn) { after_fn_ = std::move(fn); }

  // --- events ----------------------------------------------------------------

  // AFPending: events received but not yet processed (reads whatever the
  // transport has without blocking).
  int Pending();
  enum class QueuedMode { kAlready, kAfterReading, kAfterFlush };
  int EventsQueued(QueuedMode mode);
  // AFNextEvent: flushes and blocks until an event arrives.
  Status NextEvent(AEvent* event);
  using EventPredicate = std::function<bool(const AEvent&)>;
  Status IfEvent(AEvent* event, const EventPredicate& predicate);       // blocking
  bool CheckIfEvent(AEvent* event, const EventPredicate& predicate);    // non-blocking
  bool PeekIfEvent(AEvent* event, const EventPredicate& predicate);     // no dequeue
  void SelectEvents(DeviceId device, uint32_t mask);                    // AFSelectEvents

  // --- time and audio contexts ---------------------------------------------

  Result<ATime> GetTime(DeviceId device);
  // AFCreateAC. The returned AC is owned by the connection.
  Result<AC*> CreateAC(DeviceId device, uint32_t value_mask, const ACAttributes& attrs);
  void FreeAC(AC* ac);

  // --- device I/O control -----------------------------------------------------

  void SetInputGain(DeviceId device, int gain_db);
  void SetOutputGain(DeviceId device, int gain_db);
  Result<QueryGainReply> QueryInputGain(DeviceId device);
  Result<QueryGainReply> QueryOutputGain(DeviceId device);
  void EnableInput(DeviceId device, uint32_t mask = ~0u);
  void DisableInput(DeviceId device, uint32_t mask = ~0u);
  void EnableOutput(DeviceId device, uint32_t mask = ~0u);
  void DisableOutput(DeviceId device, uint32_t mask = ~0u);

  // --- telephony ---------------------------------------------------------------

  void HookSwitch(DeviceId device, bool off_hook);
  void FlashHook(DeviceId device, unsigned duration_ms = 500);
  Result<QueryPhoneReply> QueryPhone(DeviceId device);
  void EnablePassThrough(DeviceId a, DeviceId b);
  void DisablePassThrough(DeviceId a, DeviceId b);

  // --- atoms and properties ----------------------------------------------------

  Result<Atom> InternAtom(std::string_view atom_name, bool only_if_exists = false);
  Result<std::string> GetAtomName(Atom atom);
  void ChangeProperty(DeviceId device, Atom property, Atom type, uint32_t format,
                      PropertyMode mode, std::span<const uint8_t> data);
  void DeleteProperty(DeviceId device, Atom property);
  Result<GetPropertyReply> GetProperty(DeviceId device, Atom property,
                                       Atom type = kAnyPropertyType, uint32_t long_offset = 0,
                                       uint32_t long_length = ~0u, bool do_delete = false);
  Result<std::vector<Atom>> ListProperties(DeviceId device);

  // --- access control ------------------------------------------------------------

  void SetAccessControl(bool enabled);
  void AddHost(uint16_t family, std::span<const uint8_t> address);
  void RemoveHost(uint16_t family, std::span<const uint8_t> address);
  Result<ListHostsReply> ListHosts();

  // --- housekeeping -----------------------------------------------------------------

  void NoOp();  // AFNoOp

  // --- failover reconnect (PR 8) ----------------------------------------------------

  // When enabled, a transport failure triggers the reconnect state machine
  // instead of the IO error handler: re-resolve the server name (or call
  // the test factory), redo the setup handshake, replay the recorded
  // session (audio contexts with their full attribute sets, device gains
  // and enable masks, event selections), then re-anchor device time with a
  // ResyncTime round trip per device the client had a watermark for. Only
  // when every attempt fails does the IO error handler run.
  struct ReconnectPolicy {
    bool enabled = false;
    int max_attempts = 3;
    // Per-attempt connect deadline (satellite fix: ConnectServer now takes
    // one); -1 blocks indefinitely.
    int connect_deadline_ms = 2000;
    // Delay before the second attempt; doubles per retry.
    int backoff_ms = 50;
  };
  void SetReconnectPolicy(ReconnectPolicy policy) { reconnect_ = policy; }
  const ReconnectPolicy& reconnect_policy() const { return reconnect_; }
  // Test hook: produces the fresh connected stream instead of re-resolving
  // name_ (in-process failover tests hand out socketpair ends).
  using ReconnectFactory = std::function<Result<FdStream>()>;
  void SetReconnectFactory(ReconnectFactory factory) {
    reconnect_factory_ = std::move(factory);
  }

  // Round-trips opcode 40: reports the last device time this client
  // observed; the reply carries the server's current clock plus its
  // promotion state, from which the audio gap the outage cost is measured.
  Result<ResyncTimeReply> ResyncTime(DeviceId device, ATime client_watermark);

  // Failover observability: completed reconnects, and the summed measured
  // device-time gap (samples) across every post-reconnect resync.
  uint64_t reconnects() const { return reconnects_; }
  uint64_t resync_gap_samples() const { return resync_gap_samples_; }
  // True when the last resync reply came from a promoted backup.
  bool promoted_peer() const { return promoted_peer_; }

  // --- observability ----------------------------------------------------------------

  // Round-trips kGetServerStats and decodes the versioned stats block.
  Result<ServerStatsWire> GetServerStats();

  // Round-trips kGetTrace: drains the server's trace ring (and, per flags,
  // enables or disables tracing around the drain).
  Result<TraceWire> GetTrace(uint32_t flags = 0);

  // --- causal tracing (PR 9) --------------------------------------------------------

  // When client tracing is on, every request is assigned a fresh 64-bit
  // correlation ID, carried to the server in an aux trailer (final 8 bytes
  // of the padded request, flagged by kRequestExtCorrId in the extension
  // byte), and the client ring records kClientEnqueue / kClientFlush
  // instants and a kClientReply span per awaited round trip. Recording is
  // allocation-free (fixed ring + fixed pending table); old servers ignore
  // both the extension bit and the trailer.
  void SetClientTracing(bool on) { trace_.Enable(on); }
  bool client_tracing() const { return trace_.enabled(); }
  // The client-side ring (drain from the application thread only).
  TraceRing& client_trace() { return trace_; }
  // Correlation ID of the most recently queued request (0 = tracing off).
  uint64_t last_corr() const { return last_corr_; }

  // --- plumbing shared with the AC implementation --------------------------------

  // Appends a request and returns its sequence number.
  template <typename Req>
  uint16_t QueueRequest(Opcode op, const Req& req, uint8_t ext = 0) {
    uint64_t corr = 0;
    if (trace_.enabled()) {
      // A replayed request (session replay / resync after a reconnect)
      // keeps the in-flight request's ID so the healed timeline links back
      // to the original attempt; everything else mints a fresh one.
      corr = in_reconnect_ ? last_request_corr_ : MintCorr();
    }
    if (corr != 0) {
      ext |= kRequestExtCorrId;
    }
    const size_t header = BeginRequest(out_, op, ext);
    req.Encode(out_);
    if (corr != 0) {
      out_.AlignPad();
      out_.U64(corr);  // aux trailer: final 8 bytes of the padded request
    }
    EndRequest(out_, header);
    ++seq_;
    ++seq_total_;
    if (corr != 0) {
      NoteEnqueue(op, corr, out_.size() - header);
    }
    if (reconnect_.enabled && !in_reconnect_) {
      // Sequence numbers are implicit (counted, never encoded in bodies),
      // so the raw bytes replay verbatim on a fresh connection.
      last_request_.assign(out_.data().begin() + static_cast<ptrdiff_t>(header),
                           out_.data().end());
      last_request_seq_ = seq_;
      last_request_corr_ = corr;
    }
    MaybeAutoFlush();
    return seq_;
  }
  // Flushes and blocks until the reply for seq arrives; events are queued,
  // foreign errors dispatched. Returns a view of the reply bytes (32 +
  // extra) framed in place in the receive buffer: it stays valid until the
  // next call on this connection, so decode it (the *Reply::Decode
  // functions copy whatever they keep) before issuing another request.
  Result<std::span<const uint8_t>> AwaitReply(uint16_t seq);
  // Awaits the reply for seq and decodes it as Reply (any type with a
  // static Decode(bytes, order, Reply*)); a reply that does not decode is
  // ConnectionLost, naming op. A view type (RecordSamplesView) points into
  // the receive buffer, with AwaitReply's lifetime.
  template <typename Reply>
  Result<Reply> AwaitDecoded(uint16_t seq, Opcode op) {
    auto reply = AwaitReply(seq);
    if (!reply.ok()) {
      return reply.status();
    }
    Reply decoded;
    if (!Reply::Decode(reply.value(), order_, &decoded)) {
      return Status(AfError::kConnectionLost, std::string("bad ") + OpcodeName(op) + " reply");
    }
    return decoded;
  }
  // Queues req, then awaits and decodes its reply.
  template <typename Reply, typename Req>
  Result<Reply> RoundTrip(Opcode op, const Req& req) {
    return AwaitDecoded<Reply>(QueueRequest(op, req), op);
  }
  WireOrder order() const { return order_; }
  uint32_t AllocResourceId();
  bool broken() const { return broken_; }

  // Statistics for benchmarks.
  uint64_t requests_sent() const { return seq_total_; }

  // Raw access to the request buffer, for protocol-violation tests only.
  WireWriter& out_for_test() { return out_; }

 private:
  AFAudioConn(FaultStream stream, std::string name);
  Status DoSetup();
  void MaybeAutoFlush();
  // Writes the request queue; false when the connection failed. While it
  // waits to write it also reads, as Xlib's _XWaitForWritable does: the
  // server stops reading a client whose unsent replies pass its egress
  // guard, so a client pipelining past both socket buffers that waited for
  // POLLOUT alone would deadlock against it. What it reads waits in the
  // receive buffer for the next await.
  bool WriteQueued();
  // One read into the receive buffer. Blocking: read(2) directly, waiting
  // for the fd only when the stream reports kWouldBlock. Non-blocking: a
  // zero-timeout poll first, and nothing read when nothing is there.
  Status FillFromSocket(bool block);
  // Frames one complete packet in place at the head of the receive buffer,
  // if present. The view is valid until the next FillFromSocket.
  std::optional<std::span<const uint8_t>> TakePacket();
  // Routes a packet: events are queued, foreign errors dispatched, and the
  // awaited reply (or the error that failed it, as an empty view) is
  // handed back through awaited_out.
  void RoutePacket(std::span<const uint8_t> packet, uint16_t awaited_seq, bool* got_awaited,
                   std::span<const uint8_t>* awaited_out);
  // Routes every complete packet already buffered (no reply is awaited).
  void RouteBufferedPackets();
  void DispatchError(const ErrorPacket& error);
  void IOError();

  // --- reconnect internals (PR 8) -----------------------------------------
  // Runs the reconnect state machine; true once the session is restored.
  bool TryReconnect();
  Result<FdStream> MakeReconnectStream();
  // Replays the recorded session onto a freshly set-up connection.
  void ReplaySession();
  // Recorded per-device state (what ReplaySession reissues).
  struct DeviceReplay {
    bool has_input_gain = false;
    bool has_output_gain = false;
    int input_gain_db = 0;
    int output_gain_db = 0;
    // Client's view of the absolute connector masks (server default: all).
    bool has_input_mask = false;
    bool has_output_mask = false;
    uint32_t input_mask = ~0u;
    uint32_t output_mask = ~0u;
    bool has_event_mask = false;
    uint32_t event_mask = 0;
    // Latest device time observed in any reply; the resync watermark.
    bool has_watermark = false;
    ATime watermark = 0;
  };
  DeviceReplay& ReplaySlot(DeviceId device);
  // Called wherever a reply carries device time (play, record, GetTime).
  void NoteDeviceTime(DeviceId device, ATime t);

  // --- causal tracing internals (PR 9) -------------------------------------
  uint64_t MintCorr() {
    return (uint64_t{setup_.resource_id_base} << 32) |
           (++corr_counter_ & 0xffffffffu);
  }
  // Records kClientEnqueue and parks {seq, corr, t0} in the pending table.
  void NoteEnqueue(Opcode op, uint64_t corr, size_t bytes);
  // Records the kClientReply span for an awaited sequence number.
  void NoteReply(uint16_t seq);
  // Moves a pending entry to the reissued sequence number (AwaitReply).
  void RepointPending(uint16_t old_seq, uint16_t new_seq);

  FaultStream stream_;
  std::string name_;
  SetupReply setup_;
  WireOrder order_ = HostWireOrder();

  WireWriter out_;
  uint16_t seq_ = 0;        // 16-bit wire sequence
  uint64_t seq_total_ = 0;  // monotonic, for stats
  RecvBuffer in_;

  std::deque<AEvent> event_queue_;
  ErrorPacket last_awaited_error_;  // error that failed the awaited request
  ErrorHandler error_handler_;
  IOErrorHandler io_error_handler_;
  AfterFunction after_fn_;
  bool synchronous_ = false;
  bool broken_ = false;
  bool in_sync_ = false;  // guard: Sync() itself must not recurse

  uint32_t next_resource_ = 0;
  std::vector<std::unique_ptr<AC>> acs_;

  // --- reconnect state (PR 8) ----------------------------------------------
  ReconnectPolicy reconnect_;
  ReconnectFactory reconnect_factory_;
  bool in_reconnect_ = false;  // guard: the replay must not re-enter
  std::vector<DeviceReplay> replay_;
  std::vector<uint8_t> last_request_;  // raw bytes of the newest request
  uint16_t last_request_seq_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t resync_gap_samples_ = 0;
  bool promoted_peer_ = false;

  // --- causal tracing state (PR 9) -----------------------------------------
  TraceRing trace_{1024};      // client-side ring (sized at construction)
  uint64_t corr_counter_ = 0;
  uint64_t last_corr_ = 0;          // newest minted/replayed correlation ID
  uint64_t last_request_corr_ = 0;  // ID the reconnect replay reuses
  // Fixed-size seq -> {corr, t0} table for the kClientReply span; sized so
  // the window of requests between queue and reply never alias in practice
  // (replies are awaited synchronously).
  static constexpr size_t kPendingSlots = 64;
  struct PendingCorr {
    uint16_t seq = 0;
    uint8_t opcode = 0;
    uint64_t corr = 0;
    uint64_t t0_us = 0;
  };
  PendingCorr pending_[kPendingSlots];

  friend class AC;
};

}  // namespace af

#endif  // AF_CLIENT_CONNECTION_H_
