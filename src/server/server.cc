// AFServer: the front of the sharded server. Owns the shared read-mostly
// state and the shard set; everything loop-shaped lives in shard.cc.
#include "server/server.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "server/shard.h"

namespace af {

namespace {

void CopyHistogram(const Histogram& h, StatsHistogramWire* out) {
  out->count = h.Count();
  out->sum = h.Sum();
  out->buckets.resize(Histogram::kBuckets);
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    out->buckets[i] = h.BucketCount(i);
  }
}

int ShardCountFromEnv() {
  const char* env = std::getenv("AF_SHARDS");
  if (env == nullptr || *env == '\0') {
    return 1;
  }
  const int n = std::atoi(env);
  return n < 1 ? 1 : std::min(n, 64);
}

bool AcceptHandoffFromEnv(const std::string& opt) {
  std::string mode = opt;
  if (mode.empty()) {
    const char* env = std::getenv("AF_ACCEPT");
    mode = env != nullptr ? env : "";
  }
  return mode == "handoff";
}

}  // namespace

AFServer::AFServer(Options opts) : opts_(std::move(opts)) {
  // Arm the crash flight recorder before any shard registers its ring so
  // a fault during startup still leaves a dump (no-op unless
  // AF_FLIGHT_RECORDER names a file).
  FlightRecorderMaybeInitFromEnv();
  access_.SetEnabled(opts_.access_control);
  if (opts_.num_shards < 1) {
    opts_.num_shards = ShardCountFromEnv();
  }
  opts_.num_shards = std::min(opts_.num_shards, 64);
  accept_handoff_ = AcceptHandoffFromEnv(opts_.accept_mode);
  shards_.reserve(opts_.num_shards);
  for (int i = 0; i < opts_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(*this, static_cast<uint32_t>(i)));
  }
  shard_threads_.resize(shards_.size());
}

AFServer::~AFServer() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& s : shards_) {
    s->Wake();
  }
  JoinShardThreads();
}

DeviceId AFServer::AddDevice(std::unique_ptr<AudioDevice> device) {
  return AddDeviceOnShard(std::move(device), 0);
}

DeviceId AFServer::AddDeviceOnShard(std::unique_ptr<AudioDevice> device,
                                    uint32_t shard) {
  const DeviceId id = static_cast<DeviceId>(devices_.size());
  Shard* owner = shards_[shard].get();
  device->set_id(id);
  // Events fan out from the shard that called the device: its own clients
  // hear them directly, every other shard through its inbox. A call from
  // any other thread fans out from the owner.
  const auto raiser = [this, owner] {
    Shard* running = Shard::Running();
    return running != nullptr && &running->server_ == this ? running : owner;
  };
  device->SetEventSink([raiser](AEvent event) { raiser()->PostEvent(std::move(event)); });
  devices_.push_back(std::move(device));
  device_owner_.push_back(shard);
  properties_.push_back(std::make_unique<PropertyStore>());
  properties_.back()->SetChangeHook([raiser, id](Atom property, bool deleted) {
    raiser()->OnPropertyChanged(id, property, deleted);
  });
  const std::string prefix = "dev" + std::to_string(id) + ".";
  const DeviceMetrics& m = devices_.back()->metrics();
  const auto dev_counters = DeviceCounterList(m);
  for (size_t i = 0; i < kNumDeviceCounters; ++i) {
    owner->registry().Register(prefix + kDeviceCounterNames[i], dev_counters[i]);
  }
  owner->registry().Register(prefix + "update_lag_micros", &m.update_lag_micros);
  owner->ScheduleDeviceUpdate(id);
  return id;
}

Status AFServer::ListenTcp(uint16_t port) {
  if (shards_.size() > 1 && !accept_handoff_) {
    // One SO_REUSEPORT listener per shard; the kernel spreads accepts.
    for (auto& s : shards_) {
      Result<Listener> listener = Listener::ListenTcp(port, /*reuseport=*/true);
      if (!listener.ok()) {
        return listener.status();
      }
      s->AddListener(listener.take());
    }
    return Status::Ok();
  }
  Result<Listener> listener = Listener::ListenTcp(port);
  if (!listener.ok()) {
    return listener.status();
  }
  shards_[0]->AddListener(listener.take());
  return Status::Ok();
}

Status AFServer::ListenUnix(const std::string& path) {
  Result<Listener> listener = Listener::ListenUnix(path);
  if (!listener.ok()) {
    return listener.status();
  }
  shards_[0]->AddListener(listener.take());
  return Status::Ok();
}

void AFServer::AdoptClient(FdStream stream, PeerAddress peer) {
  AdoptClient(std::move(stream), nullptr, std::move(peer));
}

void AFServer::AdoptClient(FdStream stream, std::shared_ptr<FaultSchedule> faults,
                           PeerAddress peer) {
  const uint32_t shard =
      adopt_rr_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(shards_.size());
  AdoptClientOnShard(std::move(stream), std::move(faults), std::move(peer), shard);
}

void AFServer::AdoptClientOnShard(FdStream stream,
                                  std::shared_ptr<FaultSchedule> faults,
                                  PeerAddress peer, uint32_t shard) {
  shards_[shard]->AdoptClient(FaultStream(std::move(stream), std::move(faults)),
                              std::move(peer));
}

void AFServer::AttachReplicationPrimary(FdStream link) {
  repl_primary_ = std::make_unique<ReplicationPrimary>(std::move(link));
}

void AFServer::AttachReplicationBackup(FdStream link) {
  repl_backup_ = std::make_unique<ReplicationBackup>(*this, std::move(link));
}

ATime AFServer::promoted_watermark(DeviceId id) const {
  std::lock_guard<std::mutex> lock(promoted_mu_);
  for (const auto& [dev, t] : promoted_watermarks_) {
    if (dev == id) {
      return t;
    }
  }
  return 0;
}

void AFServer::SetPromoted(std::vector<std::pair<DeviceId, ATime>> watermarks) {
  {
    std::lock_guard<std::mutex> lock(promoted_mu_);
    promoted_watermarks_ = std::move(watermarks);
  }
  promoted_.store(true, std::memory_order_release);
}

void AFServer::Post(std::function<void()> fn) {
  shards_[0]->Post(std::move(fn));
}

void AFServer::PostToShard(uint32_t shard, std::function<void()> fn) {
  shards_[shard]->Post(std::move(fn));
}

std::mutex& AFServer::device_mutex(DeviceId id) {
  return shards_[device_owner_[id]]->device_mu_;
}

void AFServer::Run() {
  StartShardThreads();
  shards_[0]->RunLoop();
  JoinShardThreads();
  if (opts_.dump_stats_on_shutdown) {
    const std::string dump = DumpStatsText();
    std::fwrite(dump.data(), 1, dump.size(), stderr);
  }
}

void AFServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& s : shards_) {
    s->Wake();
  }
}

void AFServer::StartShardThreads() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (shard_threads_[i].joinable()) {
      continue;
    }
    Shard* s = shards_[i].get();
    shard_threads_[i] = std::thread([s] { s->RunLoop(); });
  }
}

void AFServer::JoinShardThreads() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  for (size_t i = 1; i < shard_threads_.size(); ++i) {
    if (shard_threads_[i].joinable()) {
      shard_threads_[i].join();
    }
  }
}

bool AFServer::StopShard(uint32_t shard) {
  if (shard == 0 || shard >= shards_.size()) {
    return false;
  }
  shards_[shard]->StopLocal();
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (shard_threads_[shard].joinable()) {
    shard_threads_[shard].join();
  }
  return true;
}

bool AFServer::RestartShard(uint32_t shard) {
  if (shard == 0 || shard >= shards_.size()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (shard_threads_[shard].joinable()) {
    return false;  // still running
  }
  shards_[shard]->ClearLocalStop();
  Shard* s = shards_[shard].get();
  shard_threads_[shard] = std::thread([s] { s->RunLoop(); });
  return true;
}

TaskQueue& AFServer::tasks() { return shards_[0]->tasks(); }

size_t AFServer::client_count() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    total += s->client_count();
  }
  return total;
}

ServerMetrics& AFServer::metrics() { return shards_[0]->metrics(); }
const ServerMetrics& AFServer::metrics() const { return shards_[0]->metrics(); }

AFServer::Stats AFServer::stats() const {
  Stats total;
  for (const auto& s : shards_) {
    const ServerMetrics& m = s->metrics();
    total.requests_dispatched += m.requests_dispatched.Value();
    total.events_sent += m.events_sent.Value();
    total.errors_sent += m.errors_sent.Value();
    total.clients_accepted += m.clients_accepted.Value();
    total.loop_iterations += m.loop_iterations.Value();
  }
  return total;
}

void AFServer::SnapshotStats(ServerStatsWire* out) {
  AggregateStats(out, shards_[0].get());
}

namespace {

// Fills the full kNumServerCounters-slot counter vector for one shard, in
// kServerCounterNames order (monotonic counters, then gauge samples, then
// the PR 6 extras).
void FillShardCounters(const Shard& shard, uint64_t num_shards,
                       std::vector<uint64_t>* out) {
  const ServerMetrics& m = shard.metrics();
  out->clear();
  out->reserve(kNumServerCounters);
  for (const Counter* c : m.CounterList()) {
    out->push_back(c->Value());
  }
  out->push_back(static_cast<uint64_t>(m.poller_backend.Value()));
  out->push_back(static_cast<uint64_t>(m.watched_fds.Value()));
  for (const Counter* c : m.ExtraCounterList()) {
    out->push_back(c->Value());
  }
  out->push_back(shard.inbox_depth_high_water());
  out->push_back(num_shards);
  for (const Counter* c : m.ReplCounterList()) {
    out->push_back(c->Value());
  }
  // The three replication gauges are server-global; the aggregate patches
  // them in after the sum loop. Per-shard slices carry zeros.
  out->insert(out->end(), kNumReplGaugeSlots, 0);
}

}  // namespace

void AFServer::AggregateStats(ServerStatsWire* out, Shard* caller) {
  // Pull the calling shard's live clients' fault-application counts into
  // the spine. Other shards' clients cannot be touched from this thread;
  // their already-synced counts are read as-is (all spines are atomics).
  caller->SyncClientFaultMetrics();

  const uint64_t n_shards = static_cast<uint64_t>(shards_.size());
  out->version = kServerStatsVersion;
  out->counters.assign(kNumServerCounters, 0);
  std::vector<uint64_t> shard_counters;
  out->shards.clear();
  for (const auto& s : shards_) {
    FillShardCounters(*s, n_shards, &shard_counters);
    for (size_t i = 0; i < kNumServerCounters; ++i) {
      out->counters[i] += shard_counters[i];
    }
    ShardStatsWire sw;
    sw.index = s->index();
    sw.counters = shard_counters;
    // One merged service-time histogram per shard: every opcode's
    // dispatch micros folded together (astat --shards wants a per-shard
    // latency shape, not 39 histograms per shard on the wire).
    sw.dispatch.buckets.assign(Histogram::kBuckets, 0);
    const ServerMetrics& m = s->metrics();
    for (size_t op = 0; op <= kMaxOpcode; ++op) {
      sw.dispatch.count += m.op_micros[op].Count();
      sw.dispatch.sum += m.op_micros[op].Sum();
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        sw.dispatch.buckets[b] += m.op_micros[op].BucketCount(b);
      }
    }
    out->shards.push_back(std::move(sw));
  }
  // Aggregate gauge slots where summing is wrong: the backend is a shared
  // property (all shards pick the same one), the depth high-water is a
  // maximum, and the shard count is a constant - not N times itself.
  const size_t backend_slot = kNumServerCounterSlots;
  out->counters[backend_slot] =
      static_cast<uint64_t>(shards_[0]->metrics().poller_backend.Value());
  uint64_t depth_hw = 0;
  for (const auto& s : shards_) {
    depth_hw = std::max(depth_hw, s->inbox_depth_high_water());
  }
  out->counters[kFirstExtraCounterSlot + kNumExtraCounterSlots] = depth_hw;
  out->counters[kFirstExtraCounterSlot + kNumExtraCounterSlots + 1] = n_shards;
  // Replication gauges: the primary's ack watermark and overflow count,
  // and whether this server promoted itself from a backup.
  out->counters[kFirstReplGaugeSlot] =
      repl_primary_ != nullptr ? repl_primary_->acked() : 0;
  out->counters[kFirstReplGaugeSlot + 1] =
      repl_primary_ != nullptr ? repl_primary_->overflows() : 0;
  out->counters[kFirstReplGaugeSlot + 2] = promoted() ? 1 : 0;

  out->errors_by_code.assign(kErrorCodeSlots, 0);
  out->hist_buckets = Histogram::kBuckets;
  out->opcodes.assign(kMaxOpcode + 1, OpcodeStatsWire{});
  for (size_t op = 0; op <= kMaxOpcode; ++op) {
    out->opcodes[op].buckets.assign(Histogram::kBuckets, 0);
  }
  out->poll_wake = StatsHistogramWire{};
  out->poll_wake.buckets.assign(Histogram::kBuckets, 0);
  for (const auto& s : shards_) {
    const ServerMetrics& m = s->metrics();
    for (size_t code = 0; code < kErrorCodeSlots; ++code) {
      out->errors_by_code[code] += m.errors_by_code[code].Value();
    }
    for (size_t op = 0; op <= kMaxOpcode; ++op) {
      out->opcodes[op].count += m.op_count[op].Value();
      out->opcodes[op].sum_micros += m.op_micros[op].Sum();
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        out->opcodes[op].buckets[b] += m.op_micros[op].BucketCount(b);
      }
    }
    out->poll_wake.count += m.poll_wake_micros.Count();
    out->poll_wake.sum += m.poll_wake_micros.Sum();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      out->poll_wake.buckets[b] += m.poll_wake_micros.BucketCount(b);
    }
  }

  out->devices.clear();
  for (const auto& dev : devices_) {
    DeviceStatsWire d;
    d.index = dev->id();
    for (const Counter* c : DeviceCounterList(dev->metrics())) {
      d.counters.push_back(c->Value());
    }
    CopyHistogram(dev->metrics().update_lag_micros, &d.update_lag);
    out->devices.push_back(std::move(d));
  }
}

std::string AFServer::DumpStatsText(bool sync_clients) {
  if (shards_.size() == 1) {
    return shards_[0]->DumpStatsTextLocal(sync_clients);
  }
  std::string out;
  for (auto& s : shards_) {
    out += "-- shard " + std::to_string(s->index()) + " --\n";
    out += s->DumpStatsTextLocal(sync_clients);
  }
  return out;
}

}  // namespace af
