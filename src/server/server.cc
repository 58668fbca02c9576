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
  owner->ScheduleDeviceUpdate(id);
  return id;
}

Status AFServer::ListenTcp(uint16_t port) {
  // One listener per shard, each accepting for its own shard; several
  // shards share the port through SO_REUSEPORT and the kernel spreads the
  // connections.
  const bool reuseport = shards_.size() > 1;
  for (auto& s : shards_) {
    Result<Listener> listener = Listener::ListenTcp(port, reuseport);
    if (!listener.ok()) {
      return listener.status();
    }
    s->AddListener(listener.take(), /*hand_off=*/false);
  }
  return Status::Ok();
}

Status AFServer::ListenUnix(const std::string& path) {
  Result<Listener> listener = Listener::ListenUnix(path);
  if (!listener.ok()) {
    return listener.status();
  }
  shards_[0]->AddListener(listener.take(), /*hand_off=*/true);
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

void AFServer::AggregateStats(ServerStatsWire* out, Shard* caller) {
  // Pull the calling shard's live clients' fault-application counts into
  // the spine. Other shards' clients cannot be touched from this thread;
  // their already-synced counts are read as-is (all spines are atomics).
  caller->SyncClientFaultMetrics();
  // The replication gauges are server-global; shard 0's spine carries them.
  ServerMetrics& spine0 = shards_[0]->metrics();
  spine0.oplog_acked.Set(repl_primary_ != nullptr ? repl_primary_->acked() : 0);
  spine0.repl_overflows.Set(repl_primary_ != nullptr ? repl_primary_->overflows() : 0);
  spine0.failovers_promoted.Set(promoted() ? 1 : 0);

  out->version = kServerStatsVersion;
  out->counters.assign(kNumServerCounters, 0);
  out->errors_by_code.assign(kErrorCodeSlots, 0);
  out->hist_buckets = Histogram::kBuckets;
  out->opcodes.assign(kMaxOpcode + 1, OpcodeStatsWire{});
  for (OpcodeStatsWire& op : out->opcodes) {
    op.buckets.assign(Histogram::kBuckets, 0);
  }
  out->poll_wake = StatsHistogramWire{};
  out->poll_wake.buckets.assign(Histogram::kBuckets, 0);
  out->shards.clear();
  for (const auto& s : shards_) {
    const ServerMetrics& m = s->metrics();
    const auto values = m.Values();
    for (size_t i = 0; i < kNumServerCounters; ++i) {
      out->counters[i] = kServerMetricKinds[i] == MetricKind::kGaugeMax
                             ? std::max(out->counters[i], values[i])
                             : out->counters[i] + values[i];
    }
    for (size_t code = 0; code < kErrorCodeSlots; ++code) {
      out->errors_by_code[code] += m.errors_by_code[code].Value();
    }
    // The shard's slice carries one merged service-time histogram: every
    // opcode's dispatch micros folded together (astat --shards wants a
    // per-shard latency shape, not 39 histograms per shard on the wire).
    ShardStatsWire sw;
    sw.index = s->index();
    sw.counters.assign(values.begin(), values.end());
    sw.dispatch.buckets.assign(Histogram::kBuckets, 0);
    for (size_t op = 0; op <= kMaxOpcode; ++op) {
      const Histogram& h = m.op_micros[op];
      out->opcodes[op].count += m.op_count[op].Value();
      out->opcodes[op].sum_micros += h.Sum();
      sw.dispatch.count += h.Count();
      sw.dispatch.sum += h.Sum();
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const uint64_t n = h.BucketCount(b);
        out->opcodes[op].buckets[b] += n;
        sw.dispatch.buckets[b] += n;
      }
    }
    out->shards.push_back(std::move(sw));
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
    const auto values = dev->metrics().Values();
    d.counters.assign(values.begin(), values.end());
    CopyHistogram(dev->metrics().update_lag_micros, &d.update_lag);
    out->devices.push_back(std::move(d));
  }
}

std::string AFServer::DumpStatsText() {
  ServerStatsWire stats;
  AggregateStats(&stats, shards_[0].get());
  return FormatServerStats(stats, /*json=*/false, /*shards=*/shards_.size() > 1);
}

}  // namespace af
