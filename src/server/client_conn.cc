#include "server/client_conn.h"

#include <cstring>

#include "common/clock.h"
#include "common/trace.h"
#include "proto/setup.h"
#include "server/server_metrics.h"

namespace af {

namespace {

// Transport-layer trace instants (read/flush/high-water/fault). One
// relaxed load when tracing is off, like the metrics hooks around them.
void TraceConnInstant(TraceKind kind, uint32_t conn, uint64_t value) {
  TraceRing& tr = GlobalTrace();
  if (!tr.enabled()) {
    return;
  }
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(kind);
  ev.conn = conn;
  ev.host_us = HostMicros();
  ev.value = value;
  tr.Record(ev);
}

constexpr size_t kReadChunk = 16384;
// Compact the input buffer once this much dead space accumulates.
constexpr size_t kCompactThreshold = 65536;
// Per-segment capacity kept when recycling egress buffers; larger ones are
// released so an oversized reply does not pin its memory.
constexpr size_t kOutKeepCapacity = 65536;
// Recycled-segment pool size. The steady state ping-pongs two buffers
// (one staging, one draining); a few extra absorb kWouldBlock pile-ups.
// One spare per reply a full fairness sweep can stage (16), plus one for
// the event/trace bytes that ride along: a drain at the sweep cap still
// recycles every segment instead of allocating.
constexpr size_t kMaxSpareSegments = 17;
// Iovec chain length per writev; longer chains drain over several calls.
constexpr size_t kMaxFlushIovecs = 64;
// Stop draining the socket once this much unconsumed input is buffered;
// comfortably above the largest possible request (0xFFFF words = 256 KiB)
// so a complete request always fits, but bounded so a flooding client
// costs a fixed amount of memory, not whatever it can push.
constexpr size_t kInHighWater = 1u << 20;
}  // namespace

ClientConn::ClientConn(FaultStream stream, PeerAddress peer, uint32_t client_number)
    : stream_(std::move(stream)),
      peer_(std::move(peer)),
      client_number_(client_number),
      out_(std::make_unique<WireWriter>(HostWireOrder())) {
  stream_.SetNonBlocking(true);
}

void ClientConn::SyncFaultMetrics() {
  if (metrics_ == nullptr || stream_.schedule() == nullptr) {
    return;
  }
  const uint64_t applied = stream_.schedule()->faults_applied();
  if (applied > faults_synced_) {
    metrics_->faults_applied.Add(applied - faults_synced_);
    TraceConnInstant(TraceKind::kFaultApplied, client_number_, applied - faults_synced_);
    faults_synced_ = applied;
  }
}

bool ClientConn::ReadAvailable() {
  if (saw_eof_) {
    return true;  // nothing more will arrive
  }
  for (;;) {
    if (in_.size() - in_consumed_ >= kInHighWater) {
      if (metrics_ != nullptr) {
        metrics_->highwater_hits.Add();
      }
      TraceConnInstant(TraceKind::kHighWater, client_number_, in_.size() - in_consumed_);
      return true;  // flood guard; the rest stays in the kernel
    }
    const size_t old_size = in_.size();
    in_.resize(old_size + kReadChunk);
    const IoResult r = stream_.Read(in_.data() + old_size, kReadChunk);
    in_.resize(old_size + (r.status == IoStatus::kOk ? r.bytes : 0));
    if (r.status == IoStatus::kOk && r.bytes > 0) {
      TraceConnInstant(TraceKind::kRead, client_number_, r.bytes);
    }
    switch (r.status) {
      case IoStatus::kOk:
        if (r.bytes < kReadChunk) {
          return true;  // drained the socket
        }
        continue;
      case IoStatus::kWouldBlock:
        return true;
      case IoStatus::kClosed:
        // Half-close: requests buffered before the EOF are still valid and
        // get served; the reap in Shard::RunOnce retires the connection
        // once no complete request and no pending output remain.
        saw_eof_ = true;
        return true;
      case IoStatus::kError:
        return false;
    }
  }
}

bool ClientConn::HasCompleteRequest() const {
  const std::span<const uint8_t> buf = Buffered();
  if (state_ == State::kAwaitingSetup) {
    uint16_t auth_name_len = 0;
    uint16_t auth_data_len = 0;
    SetupRequest req;
    if (buf.size() < SetupRequest::kFixedBytes ||
        !SetupRequest::DecodeFixed(buf, &req, &auth_name_len, &auth_data_len)) {
      return false;
    }
    return buf.size() >= SetupRequest::kFixedBytes + Pad4(auth_name_len) + Pad4(auth_data_len);
  }
  if (buf.size() < kRequestHeaderBytes) {
    return false;
  }
  WireReader reader(buf, order_);
  RequestHeader header;
  if (!DecodeRequestHeader(reader, &header) || header.length_words == 0) {
    // A malformed header counts as "complete": the dispatcher must see it
    // (and close the connection) rather than the reaper skipping it.
    return true;
  }
  return buf.size() >= header.TotalBytes();
}

std::span<const uint8_t> ClientConn::Buffered() const {
  return std::span<const uint8_t>(in_.data() + in_consumed_, in_.size() - in_consumed_);
}

void ClientConn::Consume(size_t n) {
  in_consumed_ += n;
  if (in_consumed_ >= in_.size()) {
    in_.clear();
    in_consumed_ = 0;
  } else if (in_consumed_ > kCompactThreshold) {
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(in_consumed_));
    in_consumed_ = 0;
  }
}

void ClientConn::StageOutput() {
  if (out_->size() == 0) {
    return;
  }
  std::vector<uint8_t> recycled;
  if (!spare_.empty()) {
    recycled = std::move(spare_.back());
    spare_.pop_back();
  }
  egress_.push_back(out_->Take());
  out_->AdoptBuffer(std::move(recycled));
}

bool ClientConn::FlushOutput() {
  StageOutput();
  while (egress_head_ < egress_.size()) {
    struct iovec iov[kMaxFlushIovecs];
    size_t iovcnt = 0;
    for (size_t i = egress_head_; i < egress_.size() && iovcnt < kMaxFlushIovecs; ++i) {
      const size_t off = i == egress_head_ ? egress_head_off_ : 0;
      iov[iovcnt].iov_base = const_cast<uint8_t*>(egress_[i].data() + off);
      iov[iovcnt].iov_len = egress_[i].size() - off;
      ++iovcnt;
    }
    const IoResult r = stream_.Writev(iov, iovcnt);
    switch (r.status) {
      case IoStatus::kOk: {
        if (metrics_ != nullptr) {
          metrics_->bytes_out.Add(r.bytes);
          metrics_->writev_calls.Add();
          metrics_->writev_iovecs.Add(iovcnt);
        }
        TraceConnInstant(TraceKind::kFlush, client_number_, r.bytes);
        // Advance the chain; drained segments go back to the spare pool.
        size_t left = r.bytes;
        while (left > 0) {
          std::vector<uint8_t>& seg = egress_[egress_head_];
          const size_t avail = seg.size() - egress_head_off_;
          if (left < avail) {
            egress_head_off_ += left;
            break;
          }
          left -= avail;
          if (spare_.size() < kMaxSpareSegments && seg.capacity() <= kOutKeepCapacity) {
            seg.clear();
            spare_.push_back(std::move(seg));
          }
          ++egress_head_;
          egress_head_off_ = 0;
        }
        break;
      }
      case IoStatus::kWouldBlock:
        return true;  // poller will tell us when writable
      case IoStatus::kClosed:
      case IoStatus::kError:
        return false;
    }
  }
  egress_.clear();
  egress_head_ = 0;
  egress_head_off_ = 0;
  return true;
}

bool ClientConn::HasPendingOutput() const {
  return egress_head_ < egress_.size() || out_->size() > 0;
}

void ClientConn::SelectEvents(DeviceId device, uint32_t mask) {
  if (mask == 0) {
    event_masks_.erase(device);
  } else {
    event_masks_[device] = mask;
  }
}

bool ClientConn::WantsEvent(DeviceId device, uint32_t event_mask) const {
  const auto it = event_masks_.find(device);
  return it != event_masks_.end() && (it->second & event_mask) != 0;
}

void ClientConn::Suspend(const RequestHeader& header, std::span<const uint8_t> body,
                         size_t play_progress, uint64_t corr) {
  auto s = std::make_unique<Suspended>();
  s->header = header;
  s->body.assign(body.begin(), body.end());
  s->play_progress = play_progress;
  s->corr = corr;
  suspended_ = std::move(s);
}

}  // namespace af
