// The AudioFile server: device-independent audio (DIA).
//
// Since PR 6 the server is a set of shards, each the paper's whole
// single-threaded loop in miniature (see server/shard.h): one thread, one
// Poller, one client table. AFServer owns the shared read-mostly state
// (devices, properties, atoms, access control) and routes between shards.
// With AF_SHARDS=1 - the default - there is exactly one shard and the
// server behaves precisely as the paper prescribes: one readiness-based
// main loop (WaitForSomething) multiplexing listening sockets, client
// connections, and the task queue that drives periodic device updates.
// Clients are serviced round-robin with a bounded number of requests per
// sweep so one client cannot starve the rest (Section 7.1).
//
// The listener decides which shard a connection lands on: each shard has
// its own SO_REUSEPORT TCP listener (the kernel balances), and the one
// UNIX listener on shard 0 hands its connections out round-robin. A
// connection's requests all run on its home shard; a request that touches
// a device holds the device lock of the shard owning it. Work that must
// run on another shard (events, handoffs, trace gathers, Post) goes
// through that shard's inbox.
#ifndef AF_SERVER_SERVER_H_
#define AF_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "proto/atoms.h"
#include "proto/trace_wire.h"
#include "proto/events.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/stats.h"
#include "server/access_control.h"
#include "server/server_metrics.h"
#include "server/audio_context.h"
#include "server/audio_device.h"
#include "server/client_conn.h"
#include "server/properties.h"
#include "server/replication.h"
#include "server/task.h"
#include "transport/listener.h"
#include "transport/poller.h"

namespace af {

class Shard;

class AFServer {
 public:
  struct Options {
    std::string vendor = "AudioFile/2.0 (CRL 93/8 reproduction)";
    bool access_control = false;
    // Max requests handled for one client before moving to the next.
    int max_requests_per_sweep = 16;
    // Shard count: 0 = read AF_SHARDS from the environment (default 1).
    int num_shards = 0;
  };

  AFServer() : AFServer(Options()) {}
  explicit AFServer(Options opts);
  ~AFServer();

  AFServer(const AFServer&) = delete;
  AFServer& operator=(const AFServer&) = delete;

  // --- configuration (before Run) --------------------------------------------

  // Takes ownership; assigns the device index, installs the event sink,
  // and schedules its periodic update task on the owning shard (shard 0
  // here; AddDeviceOnShard places explicitly). Returns the device id.
  DeviceId AddDevice(std::unique_ptr<AudioDevice> device);
  DeviceId AddDeviceOnShard(std::unique_ptr<AudioDevice> device, uint32_t shard);

  // Opens one listener per shard, each adopting what it accepts; with
  // several shards they share the port through SO_REUSEPORT.
  Status ListenTcp(uint16_t port);
  // UNIX listeners live on shard 0 (no kernel balancing), which hands the
  // accepted connections out to all shards round-robin.
  Status ListenUnix(const std::string& path);

  // Adopts an already-connected stream (e.g. one side of a socketpair),
  // round-robin across shards. Thread-safe; the owning loop picks it up
  // at its next iteration.
  void AdoptClient(FdStream stream, PeerAddress peer = {});
  // Torture-test variant: the server's side of the connection runs through
  // a FaultStream driven by the given schedule (null = no faults).
  void AdoptClient(FdStream stream, std::shared_ptr<FaultSchedule> faults,
                   PeerAddress peer = {});
  // Pins the connection to a specific shard (tests, benchmarks).
  void AdoptClientOnShard(FdStream stream, std::shared_ptr<FaultSchedule> faults,
                          PeerAddress peer, uint32_t shard);

  // Runs fn inside shard 0's loop at the next iteration. Thread-safe; the
  // sanctioned way to touch shard-0 state while the loop runs on another
  // thread. PostToShard reaches the other shards. Once other shards serve
  // requests, a device call made this way must also hold device_mutex().
  void Post(std::function<void()> fn);
  void PostToShard(uint32_t shard, std::function<void()> fn);

  // The lock every request takes around a call into device `id` (and its
  // property store): one mutex per owning shard, shared by all of that
  // shard's devices and by its periodic update tasks.
  std::mutex& device_mutex(DeviceId id);

  // --- replication / failover (PR 8) --------------------------------------

  // Primary role: every control-plane change (connections, AC attributes,
  // device settings, ATime watermarks) is emitted as an op-log record over
  // the link (server/replication.h). Attach before serving clients.
  void AttachReplicationPrimary(FdStream link);
  // Backup role: a reader thread applies the primary's op log into shadow
  // state and promotes this server when the link dies.
  void AttachReplicationBackup(FdStream link);
  ReplicationPrimary* replication_primary() { return repl_primary_.get(); }
  ReplicationBackup* replication_backup() { return repl_backup_.get(); }

  // Promotion state served by ResyncTime (opcode 40). SetPromoted is
  // called by the backup after the shadow has been applied; thread-safe.
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  ATime promoted_watermark(DeviceId id) const;
  void SetPromoted(std::vector<std::pair<DeviceId, ATime>> watermarks);

  // --- main loop ----------------------------------------------------------

  // Spawns one thread per extra shard, runs shard 0 on this thread until
  // Stop(), joins the others; dumps stats at exit when the option is set.
  void Run();
  // Thread-safe stop request; wakes every shard.
  void Stop();

  // Stops one shard's loop thread without stopping the server (torture
  // kill/restart coverage). Shard 0 runs on the Run() caller's thread and
  // cannot be killed this way. Returns false for shard 0 / out of range.
  bool StopShard(uint32_t shard);
  // Restarts a shard stopped by StopShard on a fresh thread.
  bool RestartShard(uint32_t shard);

  // --- observability ------------------------------------------------------

  // Async-signal-safe: asks every server loop in the process to write its
  // text dump to stderr at the next iteration.
  static void RequestStatsDump();
  // Installs a SIGUSR1 handler that calls RequestStatsDump(). Returns
  // false if sigaction fails.
  static bool InstallStatsDumpHandler();

  // Fills the wire snapshot served by kGetServerStats: one slice per
  // shard, read from its spine, and the aggregate, which merges each slot
  // by its kind (gauge-max slots take the largest slice, the rest sum).
  // Runs on `caller`'s loop thread and syncs fault metrics for its clients
  // only (other shards' spines are read as-is; every cell is atomic).
  void AggregateStats(ServerStatsWire* out, Shard* caller);
  // The SIGUSR1 dump: the aggregate snapshot rendered as astat's table,
  // plus the per-shard breakdown when sharded. Shard 0's loop thread only
  // (use Post()/RunOnLoop elsewhere).
  std::string DumpStatsText();

  // --- introspection ------------------------------------------------------

  size_t device_count() const { return devices_.size(); }
  AudioDevice* device(DeviceId id) {
    return id < devices_.size() ? devices_[id].get() : nullptr;
  }
  PropertyStore& properties(DeviceId id) { return *properties_[id]; }
  AtomTable& atoms() { return atoms_; }
  AccessControl& access_control() { return access_; }
  TaskQueue& tasks();             // shard 0's queue
  size_t client_count() const;    // summed across shards
  ServerMetrics& metrics();       // shard 0's spine
  const ServerMetrics& metrics() const;
  const Options& options() const { return opts_; }

  size_t num_shards() const { return shards_.size(); }
  Shard* shard(size_t i) { return shards_[i].get(); }
  uint32_t device_owner(DeviceId id) const { return device_owner_[id]; }

  // Shared trace-capture generation counter (odd = capturing). Every
  // shard's ring gates on this one atomic, so GetTrace's enable/disable
  // flips reach all shards at a single instant instead of skewing across a
  // per-shard loop; each ring stamps the generation it observed into a
  // kTraceStart record so the alignment is testable end to end.
  std::atomic<uint64_t>& trace_generation() { return trace_gen_; }

 private:
  friend class Shard;

  void StartShardThreads();
  void JoinShardThreads();

  Options opts_;
  AtomTable atoms_;
  AccessControl access_;
  std::mutex shared_mu_;  // guards atoms_ and access_ across shards

  std::vector<std::unique_ptr<AudioDevice>> devices_;
  std::vector<std::unique_ptr<PropertyStore>> properties_;
  std::vector<uint32_t> device_owner_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex thread_mu_;
  std::vector<std::thread> shard_threads_;  // index 0 unused (runs inline)

  std::atomic<bool> stop_{false};
  std::atomic<uint32_t> adopt_rr_{0};
  std::atomic<uint64_t> trace_gen_{0};  // shared capture gate (odd = on)

  // Replication roles. Declared after the shards so destruction stops the
  // backup's reader thread while the shards it posts into still exist.
  std::unique_ptr<ReplicationPrimary> repl_primary_;
  std::unique_ptr<ReplicationBackup> repl_backup_;
  std::atomic<bool> promoted_{false};
  mutable std::mutex promoted_mu_;
  std::vector<std::pair<DeviceId, ATime>> promoted_watermarks_;
};

}  // namespace af

#endif  // AF_SERVER_SERVER_H_
