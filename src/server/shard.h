// One shard of the AudioFile server (PR 6).
//
// A shard is the paper's entire single-threaded server in miniature: its
// own WaitForSomething loop (Poller), task queue, client table, audio
// contexts, listeners, metrics, and trace ring, all confined to one
// thread. AFServer became a thin front that owns the shared, read-mostly
// state (devices, properties, atoms, access control) plus N shards;
// with AF_SHARDS=1 (the default) there is exactly one shard and the
// behavior - fd for fd, counter for counter - is the PR 5 server.
//
// Ownership map:
//   clients        - the shard that accepted/adopted the connection (home);
//                    every request runs there
//   audio contexts - the client's home shard
//   devices        - assigned at AddDevice time; the owner runs the device's
//                    periodic update task. Any shard may call the device,
//                    holding the owner's device lock (device_mu_) for the
//                    device call and the reply encode. One lock per owning
//                    shard, not per device: devices that write each other's
//                    buffers (HiFi mono views, pass-through pairs) must
//                    share an owner, so one mutex covers them.
//   atoms/access   - shared, guarded by AFServer::shared_mu_
//
// Everything else that crosses shards - device and property events,
// handed-off accepts, GetTrace gathers, AFServer::Post, promotion applies -
// goes through the shard's inbox: a mutexed list drained by the loop
// thread when its wake eventfd fires. The inbox is FIFO per producer.
#ifndef AF_SERVER_SHARD_H_
#define AF_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/server.h"

namespace af {

class Shard {
 public:
  Shard(AFServer& server, uint32_t index);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  uint32_t index() const { return index_; }

  // The shard whose loop runs on the calling thread (null elsewhere).
  static Shard* Running();

  // --- loop ---------------------------------------------------------------

  // One WaitForSomething iteration. Returns false when a stop was
  // requested.
  bool RunOnce(int max_timeout_ms = -1);
  // Thread body: routes GlobalTrace() to this shard's ring, loops until
  // stopped, restores the default ring.
  void RunLoop();

  // Per-shard stop (the kill half of the torture kill/restart test) and
  // its reset. Thread-safe.
  void StopLocal();
  void ClearLocalStop() { local_stop_.store(false, std::memory_order_relaxed); }
  void Wake();

  // --- the inbox (thread-safe) ---------------------------------------------

  void AdoptClient(FaultStream stream, PeerAddress peer);
  void Post(std::function<void()> fn);

  // --- configuration (before the loop starts) ------------------------------

  // Watches the listener from now on. A hand_off listener spreads its
  // accepted connections round-robin over all shards (the UNIX listener,
  // which has no kernel balancing); otherwise this shard adopts them.
  void AddListener(Listener listener, bool hand_off);
  // Schedules the periodic update task for a device this shard owns.
  void ScheduleDeviceUpdate(DeviceId id);

  // --- events ---------------------------------------------------------------

  // Delivers an event to this shard's clients and posts it to every other
  // shard's inbox. Runs on this shard's thread: device sinks and property
  // hooks fire on whichever shard called the device.
  void PostEvent(AEvent event);
  void OnPropertyChanged(DeviceId device, Atom property, bool deleted);

  // --- observability --------------------------------------------------------

  // Folds live fault-schedule counts into the metrics spine. Loop-thread
  // only.
  void SyncClientFaultMetrics();

  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  TaskQueue& tasks() { return tasks_; }
  TraceRing& trace() { return trace_; }
  size_t client_count() const {
    return client_count_.load(std::memory_order_relaxed);
  }

 private:
  friend class AFServer;

  struct ShardListener {
    Listener listener;
    bool hand_off;
  };

  // --- loop internals (moved from AFServer) -------------------------------
  void AcceptPending(ShardListener& l);
  void AdoptLocal(FaultStream stream, PeerAddress peer);
  void HandleClientReadable(const std::shared_ptr<ClientConn>& client);
  void ProcessBufferedRequests(const std::shared_ptr<ClientConn>& client);
  // Answers a framed setup request (msg, still buffered) and consumes it.
  void HandleSetup(const std::shared_ptr<ClientConn>& client, std::span<const uint8_t> msg);
  void RemoveClient(int fd);
  // The loop's wait: poller_.Wait(timeout), after a spin when a client is
  // due (client_due_).
  const std::vector<PollEvent>& SpinThenWait(uint64_t now_us, int timeout);
  void DrainInbox();
  // True while `client` is still the connection this shard serves on its fd.
  bool IsLive(const std::shared_ptr<ClientConn>& client) const {
    const auto it = clients_.find(client->fd());
    return it != clients_.end() && it->second == client;
  }

  // --- replication emit hook (PR 8) ---------------------------------------
  // Ships one op-log record to the attached backup (no-op without one or
  // after the link dropped). Callers fill everything but seq.
  void EmitOplog(OplogRecord rec);

  // --- dispatch (implemented in dispatch.cc) ------------------------------
  void DispatchRequest(const std::shared_ptr<ClientConn>& client,
                       const RequestHeader& header, std::span<const uint8_t> body,
                       ClientConn::Suspended* resumed);
  // One request in dispatch. A request that blocks is parked by its header
  // and raw body; `resumed` is its parked state when it runs again.
  struct Request {
    ClientConn& client;
    const std::shared_ptr<ClientConn>& client_ptr;
    const RequestHeader& header;
    Opcode op;
    std::span<const uint8_t> body;
    ClientConn::Suspended* resumed;
  };
  // The AF_REQUESTS row of opcode Op: decodes its Body (BadLength on
  // failure), range-checks a `device` member (BadDevice), then runs Handle.
  template <typename Body, Opcode Op>
  void DispatchRow(const Request& rq);
  // The handler of one body type, shared by every opcode of that body.
  template <typename Body>
  void Handle(const Request& rq, Body& req);
  // Validates an AC's effective attributes against its device and builds
  // its conversion ops, answering the request's error on failure.
  bool BuildACOps(const Request& rq, AudioDevice& device, const ACAttributes& attrs,
                  ACOps* ops);
  void SendError(ClientConn& client, AfError code, Opcode opcode, uint32_t value = 0);
  void SuspendClient(const std::shared_ptr<ClientConn>& client,
                     const RequestHeader& header, std::span<const uint8_t> body,
                     size_t play_progress, AudioDevice& device, ATime resume_time);
  void ResumeSuspended(const std::shared_ptr<ClientConn>& client);
  ServerAC* FindAC(ACId id);
  // Takes the device lock of the shard that owns `id`, counting requests
  // that run against another shard's device.
  std::unique_lock<std::mutex> LockDevice(DeviceId id);

  void DeliverEventLocal(const AEvent& event);

  // --- GetTrace aggregation -------------------------------------------------
  struct TraceGather {
    std::shared_ptr<ClientConn> client;
    size_t remaining = 0;  // other shards' windows still to land
    uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };
  void StartTraceGather(const Request& rq, uint32_t flags);
  void FinishTraceGather(uint32_t token, std::vector<TraceEvent>& events,
                         uint64_t dropped);
  // Sorts the gathered windows into one timeline and encodes the reply.
  void ReplyTraceGather(TraceGather& g);

  AFServer& server_;
  const uint32_t index_;

  // References into AFServer's shared state, named as the pre-shard server
  // members so dispatch.cc reads unchanged. devices_/properties_ are
  // append-only before the loops start; atoms_/access_ take shared_mu_;
  // each device and its property store take the owner's device_mu_.
  const AFServer::Options& opts_;
  std::vector<std::unique_ptr<AudioDevice>>& devices_;
  std::vector<std::unique_ptr<PropertyStore>>& properties_;
  AtomTable& atoms_;
  AccessControl& access_;
  std::mutex& shared_mu_;

  // Guards the devices this shard owns (and their property stores).
  std::mutex device_mu_;

  TaskQueue tasks_;
  std::vector<uint64_t> update_deadline_us_;  // by device id: next update due
  Poller poller_;
  std::vector<ShardListener> listeners_;
  std::map<int, std::shared_ptr<ClientConn>> clients_;
  std::map<ACId, ServerAC> acs_;
  uint32_t next_client_number_;  // starts at index+1, strides by shard count

  // The inbox. Producers append under inbox_mu_ and add 1 to the wake
  // eventfd; the loop reads the counter once (resetting it), swaps the
  // lists out into the scratch pair (which keeps the capacity, so steady
  // traffic allocates nothing) and runs them.
  int wake_fd_ = -1;
  std::mutex inbox_mu_;
  std::vector<std::pair<FaultStream, PeerAddress>> pending_adoptions_;
  std::vector<std::function<void()>> pending_actions_;
  std::vector<std::pair<FaultStream, PeerAddress>> adoption_scratch_;
  std::vector<std::function<void()>> action_scratch_;
  std::atomic<bool> local_stop_{false};

  // Set when work is left that no edge will announce: the next wait polls.
  bool work_pending_ = false;
  // Set by the flush sweep when some client's next request is due
  // (ClientConn::RequestDue): the next wait spins before it blocks.
  bool client_due_ = false;
  // RunOnce's sweep lists; cleared after each use, so they keep their
  // capacity and a loop iteration allocates nothing.
  std::vector<std::shared_ptr<ClientConn>> backlog_;
  std::vector<int> reap_;
  ServerMetrics metrics_;
  std::atomic<size_t> client_count_{0};

  TraceRing trace_;
  int flight_slot_ = -1;  // crash flight-recorder registration, -1 = none

  uint32_t accept_rr_ = 0;  // round-robin cursor of hand_off listeners

  std::map<uint32_t, TraceGather> trace_gathers_;  // keyed by client number
};

}  // namespace af

#endif  // AF_SERVER_SHARD_H_
