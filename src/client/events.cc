// Event-queue management (CRL 93/8 Section 6.1.4): the library filters
// events out of the server stream onto a private queue; these calls
// examine and manipulate that queue.
#include "client/connection.h"

namespace af {

void AFAudioConn::SelectEvents(DeviceId device, uint32_t mask) {
  SelectEventsReq req;
  req.device = device;
  req.mask = mask;
  QueueRequest(Opcode::kSelectEvents, req);
  DeviceReplay& r = ReplaySlot(device);
  r.has_event_mask = true;
  r.event_mask = mask;
}

int AFAudioConn::Pending() {
  FillFromSocket(/*block=*/false);
  RouteBufferedPackets();
  return static_cast<int>(event_queue_.size());
}

int AFAudioConn::EventsQueued(QueuedMode mode) {
  switch (mode) {
    case QueuedMode::kAlready:
      return static_cast<int>(event_queue_.size());
    case QueuedMode::kAfterReading:
      return Pending();
    case QueuedMode::kAfterFlush:
      Flush();
      return Pending();
  }
  return 0;
}

Status AFAudioConn::NextEvent(AEvent* event) {
  for (;;) {
    // Packets already buffered (e.g. events that arrived behind an awaited
    // reply) are routed before blocking for more.
    RouteBufferedPackets();
    if (!event_queue_.empty()) {
      *event = event_queue_.front();
      event_queue_.pop_front();
      return Status::Ok();
    }
    Flush();
    const Status s = FillFromSocket(/*block=*/true);
    if (!s.ok()) {
      return s;
    }
  }
}

Status AFAudioConn::IfEvent(AEvent* event, const EventPredicate& predicate) {
  for (;;) {
    if (CheckIfEvent(event, predicate)) {
      return Status::Ok();
    }
    Flush();
    const Status s = FillFromSocket(/*block=*/true);
    if (!s.ok()) {
      return s;
    }
    RouteBufferedPackets();
  }
}

bool AFAudioConn::CheckIfEvent(AEvent* event, const EventPredicate& predicate) {
  Pending();  // absorb anything already on the wire
  for (auto it = event_queue_.begin(); it != event_queue_.end(); ++it) {
    if (predicate(*it)) {
      *event = *it;
      event_queue_.erase(it);
      return true;
    }
  }
  return false;
}

bool AFAudioConn::PeekIfEvent(AEvent* event, const EventPredicate& predicate) {
  Pending();
  for (const AEvent& queued : event_queue_) {
    if (predicate(queued)) {
      *event = queued;
      return true;
    }
  }
  return false;
}

}  // namespace af
