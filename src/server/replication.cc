#include "server/replication.h"

#include <poll.h>

#include <chrono>
#include <memory>
#include <utility>

#include "common/log.h"
#include "server/server.h"

namespace af {

// --- primary ----------------------------------------------------------------

ReplicationPrimary::ReplicationPrimary(FdStream link) : link_(std::move(link)) {
  // The primary must never block on a slow backup; all sends are
  // nonblocking with a bounded staging buffer.
  link_.SetNonBlocking(true);
  EncodeOplogHello(writer_);
  pending_.insert(pending_.end(), writer_.data().begin(), writer_.data().end());
  writer_.Reset(4096);
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

void ReplicationPrimary::Emit(OplogRecord rec) {
  if (!up_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!up_.load(std::memory_order_relaxed)) {
    return;
  }
  DrainAcksLocked();
  // Window check: a backup that stopped acking is dead or wedged. Drop the
  // link rather than let its state grow stale without bound (or the
  // staging buffer grow without bound).
  if (seq_ - acked_.load(std::memory_order_relaxed) >= kAckWindow) {
    overflows_.fetch_add(1, std::memory_order_relaxed);
    up_.store(false, std::memory_order_relaxed);
    link_.Close();
    pending_.clear();
    pending_off_ = 0;
    return;
  }
  rec.seq = ++seq_;
  EncodeOplogRecord(writer_, rec);
  pending_.insert(pending_.end(), writer_.data().begin(), writer_.data().end());
  writer_.Reset(4096);
  FlushLocked();
  if (up_.load(std::memory_order_relaxed)) {
    emitted_.store(seq_, std::memory_order_relaxed);
  }
}

void ReplicationPrimary::DropLink() {
  std::lock_guard<std::mutex> lock(mu_);
  up_.store(false, std::memory_order_relaxed);
  link_.Close();
  pending_.clear();
  pending_off_ = 0;
}

void ReplicationPrimary::DrainAcksLocked() {
  for (;;) {
    const IoResult r =
        link_.Read(ack_buf_ + ack_fill_, sizeof(ack_buf_) - ack_fill_);
    if (r.status == IoStatus::kWouldBlock) {
      return;
    }
    if (r.status != IoStatus::kOk) {
      up_.store(false, std::memory_order_relaxed);
      link_.Close();
      return;
    }
    ack_fill_ += r.bytes;
    if (ack_fill_ < sizeof(ack_buf_)) {
      continue;
    }
    ack_fill_ = 0;
    const auto seq = DecodeOplogAck({ack_buf_, sizeof(ack_buf_)}, writer_.order());
    if (seq.has_value() && *seq > acked_.load(std::memory_order_relaxed)) {
      acked_.store(*seq, std::memory_order_relaxed);
    }
  }
}

void ReplicationPrimary::FlushLocked() {
  while (pending_off_ < pending_.size()) {
    const IoResult r = link_.Write(pending_.data() + pending_off_,
                                   pending_.size() - pending_off_);
    if (r.status == IoStatus::kOk) {
      pending_off_ += r.bytes;
      continue;
    }
    if (r.status == IoStatus::kWouldBlock) {
      return;  // the window check bounds how much can stage up
    }
    up_.store(false, std::memory_order_relaxed);
    link_.Close();
    return;
  }
  pending_.clear();
  pending_off_ = 0;
}

// --- backup -----------------------------------------------------------------

ReplicationBackup::ReplicationBackup(AFServer& server, FdStream link)
    : server_(server), link_(std::move(link)), thread_([this] { Run(); }) {}

ReplicationBackup::~ReplicationBackup() {
  stop_.store(true, std::memory_order_relaxed);
  link_.Shutdown();  // wakes the blocking read
  if (thread_.joinable()) {
    thread_.join();
  }
}

bool ReplicationBackup::WaitPromoted(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  promoted_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return promoted_.load(std::memory_order_acquire); });
  return promoted_.load(std::memory_order_acquire);
}

size_t ReplicationBackup::shadow_clients() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clients_.size();
}

size_t ReplicationBackup::shadow_acs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acs_.size();
}

bool ReplicationBackup::ShadowACAttrs(uint32_t ac, ACAttributes* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = acs_.find(ac);
  if (it == acs_.end()) {
    return false;
  }
  *out = it->second.attrs;
  return true;
}

void ReplicationBackup::Run() {
  uint8_t hello_buf[kOplogHelloBytes];
  if (!link_.ReadAll(hello_buf, sizeof(hello_buf)).ok()) {
    if (!stop_.load(std::memory_order_relaxed)) {
      Promote();
    }
    return;
  }
  const auto hello = DecodeOplogHello({hello_buf, sizeof(hello_buf)});
  if (!hello.has_value()) {
    ErrorF("replication backup: bad op-log hello, ignoring link");
    return;
  }
  std::vector<uint8_t> rec_buf(hello->record_bytes);
  WireWriter ack(hello->order);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!link_.ReadAll(rec_buf.data(), rec_buf.size()).ok()) {
      break;  // primary died (or closed): promote below
    }
    OplogRecord rec;
    if (!DecodeOplogRecord(rec_buf, hello->order, hello->record_bytes, &rec)) {
      ErrorF("replication backup: undecodable op-log record, dropping link");
      break;
    }
    Apply(rec);
    applied_.store(rec.seq, std::memory_order_relaxed);
    ack.Reset(64);
    EncodeOplogAck(ack, rec.seq);
    if (!link_.WriteAll(ack.data().data(), ack.data().size()).ok()) {
      break;
    }
  }
  if (!stop_.load(std::memory_order_relaxed)) {
    Promote();
  }
}

void ReplicationBackup::Apply(const OplogRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (static_cast<OplogType>(rec.type)) {
    case OplogType::kClientConnect:
      clients_.emplace(rec.client, 0);
      break;
    case OplogType::kClientDisconnect: {
      clients_.erase(rec.client);
      // The primary reaps a client's ACs with the client.
      for (auto it = acs_.begin(); it != acs_.end();) {
        it = it->second.client == rec.client ? acs_.erase(it) : std::next(it);
      }
      break;
    }
    case OplogType::kACCreate: {
      ACShadow shadow;
      shadow.client = rec.client;
      shadow.device = rec.device;
      shadow.attrs = rec.attrs;
      acs_[rec.ac] = shadow;
      break;
    }
    case OplogType::kACChange: {
      auto it = acs_.find(rec.ac);
      if (it == acs_.end()) {
        break;
      }
      // The primary replicates the full post-change attribute set, so the
      // shadow is a plain overwrite regardless of the client's mask.
      it->second.attrs = rec.attrs;
      break;
    }
    case OplogType::kACFree:
      acs_.erase(rec.ac);
      break;
    case OplogType::kInputGain:
      devices_[rec.device].has_input_gain = true;
      devices_[rec.device].input_gain_db = static_cast<int>(static_cast<int64_t>(rec.value));
      break;
    case OplogType::kOutputGain:
      devices_[rec.device].has_output_gain = true;
      devices_[rec.device].output_gain_db = static_cast<int>(static_cast<int64_t>(rec.value));
      break;
    case OplogType::kEnableInput:
      devices_[rec.device].has_input_mask = true;
      devices_[rec.device].input_mask = static_cast<uint32_t>(rec.value);
      break;
    case OplogType::kEnableOutput:
      devices_[rec.device].has_output_mask = true;
      devices_[rec.device].output_mask = static_cast<uint32_t>(rec.value);
      break;
    case OplogType::kSelectEvents:
      break;  // event masks die with the connection; nothing to shadow
    case OplogType::kWatermark: {
      DeviceShadow& d = devices_[rec.device];
      const ATime t = static_cast<ATime>(rec.value);
      if (!d.has_watermark || TimeAfter(t, d.watermark)) {
        d.has_watermark = true;
        d.watermark = t;
      }
      break;
    }
  }
}

void ReplicationBackup::Promote() {
  // Snapshot the shadow, then replay it onto this server's devices from
  // their owner shards' loop threads, under the device lock (other shards
  // may be serving requests against the same devices).
  std::unordered_map<uint32_t, DeviceShadow> devices;
  {
    std::lock_guard<std::mutex> lock(mu_);
    devices = devices_;
  }
  std::vector<std::pair<DeviceId, ATime>> watermarks;
  // The latch lives on the heap and is shared with every posted lambda: a
  // shard whose loop runs the task only after the bounded wait below gave up
  // must still touch live memory, not this frame's dead stack.
  struct PromoteLatch {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
  };
  auto latch = std::make_shared<PromoteLatch>();
  for (const auto& [key, shadow] : devices) {
    if (key == 0) {
      continue;
    }
    const DeviceId id = static_cast<DeviceId>(key - 1);
    AudioDevice* dev = server_.device(id);
    if (dev == nullptr) {
      continue;
    }
    if (shadow.has_watermark) {
      watermarks.emplace_back(id, shadow.watermark);
    }
    {
      std::lock_guard<std::mutex> lock(latch->mu);
      ++latch->outstanding;
    }
    DeviceShadow copy = shadow;
    std::mutex* device_mu = &server_.device_mutex(id);
    server_.PostToShard(server_.device_owner(id), [dev, device_mu, copy, latch] {
      std::lock_guard<std::mutex> device_lock(*device_mu);
      if (copy.has_input_gain) {
        (void)dev->SetInputGain(copy.input_gain_db);
      }
      if (copy.has_output_gain) {
        (void)dev->SetOutputGain(copy.output_gain_db);
      }
      if (copy.has_input_mask) {
        (void)dev->EnableInput(copy.input_mask);
        (void)dev->DisableInput(~copy.input_mask);
      }
      if (copy.has_output_mask) {
        (void)dev->EnableOutput(copy.output_mask);
        (void)dev->DisableOutput(~copy.output_mask);
      }
      if (copy.has_watermark) {
        dev->FastForwardTime(copy.watermark);
      }
      std::lock_guard<std::mutex> lock(latch->mu);
      --latch->outstanding;
      latch->cv.notify_all();
    });
  }
  {
    // Bounded wait: the shards' loops normally run the posts within one
    // iteration. If the loop is not running yet the posts apply when it
    // starts; promotion proceeds regardless (stragglers keep the heap latch
    // alive via their shared_ptr copy).
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait_for(lock, std::chrono::seconds(2),
                       [&latch] { return latch->outstanding == 0; });
  }
  server_.SetPromoted(std::move(watermarks));
  {
    std::lock_guard<std::mutex> lock(mu_);
    promoted_.store(true, std::memory_order_release);
  }
  promoted_cv_.notify_all();
}

}  // namespace af
