#include "server/client_conn.h"

#include <algorithm>

#include "common/clock.h"
#include "common/trace.h"
#include "proto/framing.h"
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

}  // namespace

ClientConn::ClientConn(FaultStream stream, PeerAddress peer, uint32_t client_number)
    : stream_(std::move(stream)),
      peer_(std::move(peer)),
      client_number_(client_number) {
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
    if (in_.size() >= kInHighWater) {
      if (metrics_ != nullptr) {
        metrics_->highwater_hits.Add();
      }
      TraceConnInstant(TraceKind::kHighWater, client_number_, in_.size());
      return true;  // flood guard; the rest stays in the kernel
    }
    const std::span<uint8_t> tail = in_.Tail();
    const size_t want = std::min(tail.size(), kInHighWater - in_.size());
    const IoResult r = stream_.Read(tail.data(), want);
    switch (r.status) {
      case IoStatus::kOk:
        in_.Commit(r.bytes);
        if (r.bytes > 0) {
          TraceConnInstant(TraceKind::kRead, client_number_, r.bytes);
        }
        if (r.bytes < want) {
          // A short read from the kernel drained the socket, up to an
          // announced EOF; one a fault schedule shortened did not.
          in_pending_ = r.injected || hangup_;
          return true;
        }
        continue;
      case IoStatus::kWouldBlock:
        in_pending_ = r.injected;  // an EOF would have been read
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
  return FrameClientMessage(Buffered(), state_ != State::kAwaitingSetup, order_) !=
         kFrameNeedMore;
}

bool ClientConn::FlushOutput() {
  const IoResult r = send_.Flush(stream_, [this](size_t bytes) {
    if (metrics_ != nullptr) {
      metrics_->bytes_out.Add(bytes);
      metrics_->writev_calls.Add();
      metrics_->writev_iovecs.Add();
    }
    TraceConnInstant(TraceKind::kFlush, client_number_, bytes);
  });
  // A real kWouldBlock resumes on the socket's next write-space edge; a
  // stall the fault schedule injected raises none, so the shard retries.
  flush_retry_ = r.status == IoStatus::kWouldBlock && r.injected;
  UpdateEgressGuard();
  return r.status == IoStatus::kOk || r.status == IoStatus::kWouldBlock;
}

void ClientConn::UpdateEgressGuard() {
  const size_t unsent = send_.unsent();
  if (!out_blocked_ && unsent >= kOutHighWater) {
    out_blocked_ = true;
    if (metrics_ != nullptr) {
      metrics_->egress_highwater_hits.Add();
    }
    TraceConnInstant(TraceKind::kEgressHighWater, client_number_, unsent);
  } else if (out_blocked_ && unsent <= kOutLowWater) {
    out_blocked_ = false;
  }
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
