// Shard: one per-thread server loop (see shard.h for the ownership map).
// The loop body here is the paper's WaitForSomething() core, moved verbatim
// from the pre-shard AFServer; the cross-shard sections (inbox drain, event
// fan-out, trace gather) are PR 6 additions.
#include "server/shard.h"

#include <signal.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <type_traits>

#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "proto/framing.h"

namespace af {

namespace {

// Set from the SIGUSR1 handler; polled by shard 0's loop iterations.
std::atomic<bool> g_stats_dump_requested{false};

thread_local Shard* t_running_shard = nullptr;

// Shard-loop trace instants. The enabled() check up front keeps the
// tracing-off cost to one relaxed load before any timestamping.
void TraceInstant(TraceRing& tr, TraceKind kind, uint32_t conn, uint64_t value = 0,
                  uint8_t arg = 0) {
  if (!tr.enabled()) {
    return;
  }
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(kind);
  ev.arg = arg;
  ev.conn = conn;
  ev.host_us = HostMicros();
  ev.value = value;
  ev.corr = CurrentTraceCorr();
  tr.Record(ev);
}

// Poller tags. A client's tag is its fd; the wake eventfd and the listeners
// (by index) sit above every fd.
constexpr uint64_t kWakeTag = uint64_t{1} << 32;
constexpr uint64_t kListenerTag = uint64_t{2} << 32;

// The aux trailer: when the extension byte flags kRequestExtCorrId, the
// final 8 bytes of the padded request carry the client's correlation ID.
uint64_t RequestCorr(const RequestHeader& header, std::span<const uint8_t> request,
                     WireOrder order) {
  if ((header.ext & kRequestExtCorrId) == 0 ||
      request.size() < kRequestHeaderBytes + 8) {
    return 0;
  }
  WireReader tail(request.subspan(request.size() - 8, 8), order);
  return tail.U64();
}

}  // namespace

void AFServer::RequestStatsDump() {
  g_stats_dump_requested.store(true, std::memory_order_relaxed);
}

bool AFServer::InstallStatsDumpHandler() {
  struct sigaction sa = {};
  sa.sa_handler = [](int) { RequestStatsDump(); };
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  return ::sigaction(SIGUSR1, &sa, nullptr) == 0;
}

Shard::Shard(AFServer& server, uint32_t index)
    : server_(server),
      index_(index),
      opts_(server.opts_),
      devices_(server.devices_),
      properties_(server.properties_),
      atoms_(server.atoms_),
      access_(server.access_),
      shared_mu_(server.shared_mu_),
      next_client_number_(index + 1),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) {
    FatalError("Shard: cannot create wake eventfd");
  }
  poller_.Watch(wake_fd_, kWakeTag, Poller::kRead);

  metrics_.poller_backend.Set(1);  // retired slot: the loop always runs on epoll
  metrics_.shards.Set(opts_.num_shards);
  // Ring overwrites surface in this shard's stats.
  trace_.AttachDropCounter(&metrics_.trace_dropped_events);
  // All of this server's rings gate on one shared generation counter, so a
  // GetTrace enable/disable reaches every shard at a single atomic instant
  // instead of skewing across the per-shard Enable loop. Each ring stamps
  // the generation it first records under (kTraceStart), making window
  // alignment observable from the fetched trace itself.
  trace_.SetShardIndex(static_cast<uint16_t>(index_));
  trace_.AttachGenerationGate(&server_.trace_gen_);

  // The crash flight recorder dumps every counter row of this spine.
  static_assert(std::count(std::begin(kServerMetricKinds), std::end(kServerMetricKinds),
                           MetricKind::kCounter) <= int{kFlightRecorderMaxCounters});
  FlightRecorderCounter flight[kFlightRecorderMaxCounters] = {};
  size_t n_flight = 0;
  metrics_.ForEachRow([&](const char* name, const auto& cell) {
    if constexpr (std::is_same_v<std::decay_t<decltype(cell)>, Counter>) {
      flight[n_flight++] = FlightRecorderCounter{name, &cell};
    }
  });
  flight_slot_ = FlightRecorderRegisterRing(&trace_, index_, flight, n_flight);
}

Shard::~Shard() {
  FlightRecorderUnregisterRing(flight_slot_);
  ::close(wake_fd_);
}

void Shard::AddListener(Listener listener, bool hand_off) {
  poller_.Watch(listener.fd(), kListenerTag + listeners_.size(), Poller::kRead);
  listeners_.push_back({std::move(listener), hand_off});
}

void Shard::ScheduleDeviceUpdate(DeviceId id) {
  const unsigned period_ms = devices_[id]->UpdatePeriodMs();
  const uint64_t now_us = HostMicros();
  if (update_deadline_us_.size() <= id) {
    update_deadline_us_.resize(id + 1);
  }
  update_deadline_us_[id] = now_us + static_cast<uint64_t>(period_ms) * 1000u;
  // Two words of capture fit std::function's inline buffer, so the
  // reschedule allocates nothing.
  tasks_.AddIn(now_us, period_ms, [this, id] {
    const uint64_t run_us = HostMicros();
    const uint64_t deadline_us = update_deadline_us_[id];
    AudioDevice* d = devices_[id].get();
    const uint64_t lag_us = run_us > deadline_us ? run_us - deadline_us : 0;
    d->metrics().update_lag_micros.Record(lag_us);
    {
      std::lock_guard<std::mutex> lock(device_mu_);
      if (lag_us > 0 && trace_.enabled()) {
        TraceEvent ev;
        ev.kind = static_cast<uint8_t>(TraceKind::kUpdateLag);
        ev.device = id + 1;
        ev.dev_time = d->GetTime();
        ev.host_us = run_us;
        ev.value = lag_us;
        trace_.Record(ev);
      }
      d->Update();
    }
    ScheduleDeviceUpdate(id);  // the update task reschedules itself
  });
}

void Shard::AdoptClient(FaultStream stream, PeerAddress peer) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    pending_adoptions_.emplace_back(std::move(stream), std::move(peer));
    metrics_.cross_shard_posted.Add();
  }
  Wake();
}

void Shard::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    pending_actions_.push_back(std::move(fn));
    metrics_.cross_shard_posted.Add();
  }
  Wake();
}

void Shard::StopLocal() {
  local_stop_.store(true, std::memory_order_relaxed);
  Wake();
}

void Shard::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

Shard* Shard::Running() { return t_running_shard; }

void Shard::RunLoop() {
  // Everything this thread records - dispatch, device instants of any
  // device it calls, transport callbacks - lands in this shard's ring.
  t_running_shard = this;
  SetThreadTraceRing(&trace_);
  while (RunOnce()) {
  }
  SetThreadTraceRing(nullptr);
  t_running_shard = nullptr;
}

bool Shard::RunOnce(int max_timeout_ms) {
  if (server_.stop_.load(std::memory_order_relaxed) ||
      local_stop_.load(std::memory_order_relaxed)) {
    return false;
  }
  metrics_.loop_iterations.Add();
  metrics_.watched_fds.Set(static_cast<int64_t>(poller_.watched()));

  const uint64_t now_us = HostMicros();
  int timeout = tasks_.NextTimeoutMs(now_us);
  if (work_pending_) {
    timeout = 0;
  } else if (max_timeout_ms >= 0 && (timeout < 0 || timeout > max_timeout_ms)) {
    timeout = max_timeout_ms;
  }
  work_pending_ = false;

  const std::vector<PollEvent>& events = poller_.Wait(timeout);
  const uint64_t woke_us = HostMicros();
  if (timeout >= 0) {
    // How late past the requested deadline poll woke us (0 when an event
    // arrived early) - the loop's scheduling jitter.
    const uint64_t deadline_us = now_us + static_cast<uint64_t>(timeout) * 1000u;
    metrics_.poll_wake_micros.Record(woke_us > deadline_us ? woke_us - deadline_us : 0);
  }
  if (index_ == 0 &&
      g_stats_dump_requested.exchange(false, std::memory_order_relaxed)) {
    const std::string dump = server_.DumpStatsText();
    std::fwrite(dump.data(), 1, dump.size(), stderr);
  }
  tasks_.RunDue(woke_us);

  for (const PollEvent& ev : events) {
    if (ev.tag == kWakeTag) {
      DrainInbox();
      continue;
    }
    if (ev.tag >= kListenerTag) {
      AcceptPending(listeners_[ev.tag - kListenerTag]);
      continue;
    }
    const auto it = clients_.find(static_cast<int>(ev.tag));
    if (it == clients_.end()) {
      continue;  // removed earlier in this batch
    }
    std::shared_ptr<ClientConn> client = it->second;
    // Client sockets are edge-triggered: an edge on a client the shard may
    // not read (suspended, flooded, capped) is remembered, not acted on.
    if (ev.readable || ev.closed) {
      client->NoteReadable(ev.closed);
      if (client->WantsRead()) {
        HandleClientReadable(client);
      }
    }
    if (ev.writable && IsLive(client) && !client->FlushOutput()) {
      RemoveClient(client->fd());
    }
  }

  // Serve what no edge will announce again: a client the shard may read
  // again (resumed, its input or egress guard released, or its last read
  // cut short by a fault schedule) whose socket may still hold bytes, and
  // complete requests the fairness cap left buffered.
  for (auto& [fd, client] : clients_) {
    if (client->NeedsService()) {
      backlog_.push_back(client);
    }
  }
  for (const auto& client : backlog_) {
    if (!IsLive(client)) {
      continue;
    }
    if (client->WantsRead()) {
      HandleClientReadable(client);
    } else {
      ProcessBufferedRequests(client);
    }
  }
  backlog_.clear();

  // Flush accumulated replies/events and reap finished clients: ones
  // marked closing, and half-closed peers (EOF seen) that have no
  // complete request left to serve and no output still to deliver. A
  // survivor with work left that no edge will announce (see
  // ClientConn::NeedsService) makes the next wait a poll.
  for (auto& [fd, client] : clients_) {
    if (!client->FlushOutput()) {
      reap_.push_back(fd);
      continue;
    }
    if (client->state() == ClientConn::State::kClosing && !client->HasPendingOutput()) {
      reap_.push_back(fd);
      continue;
    }
    if (client->saw_eof() && !client->suspended() && !client->HasPendingOutput() &&
        !client->HasCompleteRequest()) {
      reap_.push_back(fd);
      continue;
    }
    if (client->NeedsService()) {
      work_pending_ = true;
    }
  }
  for (int fd : reap_) {
    RemoveClient(fd);
  }
  reap_.clear();

  return !server_.stop_.load(std::memory_order_relaxed) &&
         !local_stop_.load(std::memory_order_relaxed);
}

void Shard::DrainInbox() {
  // One read returns and resets the counter however many Wake()s it holds.
  uint64_t wakes = 0;
  [[maybe_unused]] const ssize_t got = ::read(wake_fd_, &wakes, sizeof(wakes));
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    adoption_scratch_.swap(pending_adoptions_);
    action_scratch_.swap(pending_actions_);
  }
  const size_t n = adoption_scratch_.size() + action_scratch_.size();
  if (n == 0) {
    return;  // a Wake() with no message (stop, or a wake of a batch drained earlier)
  }
  metrics_.mailbox_wakes.Add();
  metrics_.cross_shard_drained.Add(n);
  if (static_cast<int64_t>(n) > metrics_.mailbox_depth_hw.Value()) {
    metrics_.mailbox_depth_hw.Set(static_cast<int64_t>(n));
  }
  for (auto& fn : action_scratch_) {
    fn();
  }
  action_scratch_.clear();
  for (auto& [stream, peer] : adoption_scratch_) {
    AdoptLocal(std::move(stream), std::move(peer));
  }
  adoption_scratch_.clear();
}

void Shard::AdoptLocal(FaultStream stream, PeerAddress peer) {
  const int fd = stream.fd();
  auto client = std::make_shared<ClientConn>(std::move(stream), std::move(peer),
                                             next_client_number_);
  next_client_number_ += static_cast<uint32_t>(server_.num_shards());
  client->AttachMetrics(&metrics_);
  TraceInstant(trace_, TraceKind::kAccept, client->client_number());
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kClientConnect);
  rec.client = client->client_number();
  EmitOplog(rec);
  clients_.emplace(fd, std::move(client));
  // Registered once, edge-triggered for both directions: besides new
  // bytes, the kernel reports write space freed, which on an AF_UNIX
  // socket means the client just read a reply, so the shard starts waking
  // while the client is still writing its next request.
  poller_.Watch(fd, static_cast<uint64_t>(fd),
                Poller::kRead | Poller::kWrite | Poller::kEdgeTriggered);
  metrics_.clients_accepted.Add();
  client_count_.fetch_add(1, std::memory_order_relaxed);
}

void Shard::AcceptPending(ShardListener& l) {
  auto accepted = l.listener.Accept();
  if (!accepted.ok()) {
    return;
  }
  auto& [stream, peer] = accepted.value();
  if (l.hand_off) {
    const uint32_t target = accept_rr_++ % static_cast<uint32_t>(server_.num_shards());
    if (target != index_) {
      server_.shards_[target]->AdoptClient(FaultStream(std::move(stream)), std::move(peer));
      return;
    }
  }
  AdoptLocal(FaultStream(std::move(stream)), std::move(peer));
}

void Shard::HandleClientReadable(const std::shared_ptr<ClientConn>& client) {
  const int fd = client->fd();
  if (!client->ReadAvailable()) {
    RemoveClient(fd);
    return;
  }
  ProcessBufferedRequests(client);
}

void Shard::ProcessBufferedRequests(const std::shared_ptr<ClientConn>& client) {
  int processed = 0;
  while (IsLive(client) && client->CanDispatch()) {
    if (processed >= opts_.max_requests_per_sweep) {
      return;  // fairness: other clients get a turn; NeedsService remembers the rest
    }
    const bool setup_done = client->state() != ClientConn::State::kAwaitingSetup;
    const std::span<const uint8_t> buf = client->Buffered();
    const size_t total = FrameClientMessage(buf, setup_done, client->order());
    if (total == kFrameNeedMore) {
      return;  // message not fully received yet
    }
    if (total == kFrameMalformed) {
      ErrorF("client %u: malformed %s; closing", client->client_number(),
             setup_done ? "request header" : "setup prefix");
      RemoveClient(client->fd());
      return;
    }
    if (!setup_done) {
      HandleSetup(client, buf.first(total));
      continue;
    }
    RequestHeader header;
    WireReader header_reader(buf, client->order());
    DecodeRequestHeader(header_reader, &header);
    client->BumpSeq();
    metrics_.requests_dispatched.Add();
    metrics_.bytes_in.Add(total);
    const std::span<const uint8_t> body = buf.subspan(kRequestHeaderBytes,
                                                      total - kRequestHeaderBytes);
    const uint8_t opi = static_cast<uint8_t>(header.opcode);
    const uint64_t corr = RequestCorr(header, buf.first(total), client->order());
    const uint64_t t0_us = HostMicros();
    {
      // Everything dispatch records (device instants, suspend/resume,
      // oplog emits) inherits the request's correlation ID through the
      // thread-local.
      ScopedTraceCorr corr_scope(corr);
      DispatchRequest(client, header, body, nullptr);
    }
    const uint64_t t1_us = HostMicros();
    if (opi >= kMinOpcode && opi <= kMaxOpcode) {
      metrics_.op_count[opi].Add();
      metrics_.op_micros[opi].Record(t1_us - t0_us);
    }
    if (trace_.enabled()) {
      TraceEvent ev;
      ev.kind = static_cast<uint8_t>(TraceKind::kRequest);
      ev.arg = opi;
      ev.conn = client->client_number();
      ev.host_us = t0_us;
      ev.dur_us = static_cast<uint32_t>(t1_us - t0_us);
      ev.value = total;
      ev.corr = corr;
      trace_.Record(ev);
    }
    if (!IsLive(client)) {
      return;  // dispatch closed the connection
    }
    client->Consume(total);
    client->UpdateEgressGuard();
    ++processed;
  }
}

void Shard::HandleSetup(const std::shared_ptr<ClientConn>& client,
                        std::span<const uint8_t> msg) {
  SetupRequest req;
  if (!SetupRequest::Decode(msg, &req)) {
    ErrorF("client %u: malformed setup request; closing", client->client_number());
    RemoveClient(client->fd());
    return;
  }
  client->set_order(req.order);
  client->Consume(msg.size());

  bool authorized;
  {
    std::lock_guard<std::mutex> lock(shared_mu_);
    authorized = access_.Check(client->peer());
  }
  SetupReply reply;
  if (!authorized) {
    reply.success = false;
    reply.failure_reason = "host not authorized to connect";
    client->out().Bytes(reply.Encode(req.order));
    client->set_state(ClientConn::State::kClosing);
    return;
  }

  reply.success = true;
  reply.resource_id_base = client->resource_id_base();
  reply.resource_id_mask = client->resource_id_mask();
  reply.vendor = opts_.vendor;
  for (const auto& dev : devices_) {
    reply.devices.push_back(dev->desc());
  }
  client->out().Bytes(reply.Encode(req.order));
  client->set_state(ClientConn::State::kRunning);
}

void Shard::RemoveClient(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) {
    return;
  }
  // Free this client's audio contexts (dropping record references).
  for (const ACId id : it->second->acs()) {
    const auto ac_it = acs_.find(id);
    if (ac_it == acs_.end()) {
      continue;
    }
    if (ac_it->second.recording) {
      std::lock_guard<std::mutex> lock(server_.device_mutex(ac_it->second.device->id()));
      ac_it->second.device->ReleaseRecordRef();
    }
    acs_.erase(ac_it);
  }
  it->second->SyncFaultMetrics();
  TraceInstant(trace_, TraceKind::kReap, it->second->client_number());
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kClientDisconnect);
  rec.client = it->second->client_number();
  EmitOplog(rec);
  metrics_.clients_reaped.Add();
  poller_.Unwatch(fd);
  clients_.erase(it);
  client_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Shard::EmitOplog(OplogRecord rec) {
  ReplicationPrimary* primary = server_.replication_primary();
  if (primary == nullptr || !primary->link_up()) {
    return;
  }
  // Stamp the dispatching request's correlation ID into the record (and a
  // trace instant) so the backup's apply can be tied back to the client
  // operation that caused it.
  if (rec.corr == 0) {
    rec.corr = CurrentTraceCorr();
  }
  TraceInstant(trace_, TraceKind::kOplogEmit, rec.client, rec.value,
               static_cast<uint8_t>(rec.type));
  metrics_.oplog_records.Add();
  primary->Emit(rec);
}

ServerAC* Shard::FindAC(ACId id) {
  const auto it = acs_.find(id);
  return it == acs_.end() ? nullptr : &it->second;
}

std::unique_lock<std::mutex> Shard::LockDevice(DeviceId id) {
  const uint32_t owner = server_.device_owner(id);
  if (owner != index_) {
    metrics_.cross_shard_plays.Add();
  }
  return std::unique_lock<std::mutex>(server_.shards_[owner]->device_mu_);
}

void Shard::PostEvent(AEvent event) {
  event.host_time_us = WallMicros();
  DeliverEventLocal(event);
  for (const auto& s : server_.shards_) {
    Shard* t = s.get();
    if (t == this) {
      continue;
    }
    metrics_.cross_shard_events.Add();
    t->Post([t, event] { t->DeliverEventLocal(event); });
  }
}

void Shard::DeliverEventLocal(const AEvent& event) {
  const uint32_t mask = EventMaskFor(event.type);
  for (auto& [fd, client] : clients_) {
    if (client->state() != ClientConn::State::kRunning ||
        !client->WantsEvent(event.device, mask)) {
      continue;
    }
    AEvent copy = event;
    copy.seq = client->seq();
    copy.Encode(client->out());
    metrics_.events_sent.Add();
  }
}

void Shard::OnPropertyChanged(DeviceId device, Atom property, bool deleted) {
  // Runs inside the property request, which already holds the device lock.
  AEvent event;
  event.type = EventType::kPropertyChange;
  event.device = device;
  event.detail = 0;
  event.dev_time = devices_[device]->GetTime();
  event.w0 = property;
  event.w1 = deleted ? kPropertyDeleted : kPropertyNewValue;
  PostEvent(std::move(event));
}

void Shard::SuspendClient(const std::shared_ptr<ClientConn>& client,
                          const RequestHeader& header, std::span<const uint8_t> body,
                          size_t play_progress, AudioDevice& device, ATime resume_time) {
  metrics_.suspends.Add();
  TraceInstant(trace_, TraceKind::kSuspend, client->client_number(), 0,
               static_cast<uint8_t>(header.opcode));
  // The parked request keeps its correlation ID so the resume (possibly
  // many task-queue hops later) still links to the original client span.
  client->Suspend(header, body, play_progress, CurrentTraceCorr());
  const ATime now = device.GetTime();
  const int32_t delta_ticks = TimeDelta(resume_time, now);
  const unsigned rate = std::max(1u, device.desc().play_sample_rate);
  const uint64_t delay_ms =
      delta_ticks <= 0 ? 0 : (static_cast<uint64_t>(delta_ticks) * 1000u) / rate;
  std::weak_ptr<ClientConn> weak = client;
  tasks_.AddIn(HostMicros(), delay_ms, [this, weak] {
    if (const std::shared_ptr<ClientConn> c = weak.lock()) {
      if (IsLive(c)) {
        ResumeSuspended(c);
      }
    }
  });
}

void Shard::ResumeSuspended(const std::shared_ptr<ClientConn>& client) {
  std::unique_ptr<ClientConn::Suspended> suspended = client->TakeSuspended();
  if (!suspended) {
    return;
  }
  metrics_.resumes.Add();
  ScopedTraceCorr corr_scope(suspended->corr);
  TraceInstant(trace_, TraceKind::kResume, client->client_number(), 0,
               static_cast<uint8_t>(suspended->header.opcode));
  DispatchRequest(client, suspended->header, suspended->body, suspended.get());
  if (client->suspended() || !IsLive(client)) {
    return;  // blocked again, or dispatch closed the connection
  }
  // The blocked request completed; pick up anything buffered behind it.
  ProcessBufferedRequests(client);
}

// --- GetTrace aggregation --------------------------------------------------

void Shard::StartTraceGather(const Request& rq, uint32_t flags) {
  // Every shard drains its own ring on its own thread (Drain is
  // owner-thread-only): the other shards post their windows back. The
  // rings share one generation gate, so flipping ours opens or closes every
  // shard's window at this instant.
  if (flags & kTraceFlagEnable) {
    trace_.Enable(true);
  }
  // Pull faults applied by live schedules into the spine (and the ring)
  // before the drain, so a fetched trace window is as current as a stats
  // snapshot.
  SyncClientFaultMetrics();
  TraceGather g;
  g.client = rq.client_ptr;
  g.remaining = server_.num_shards() - 1;
  trace_.Drain(&g.events);
  g.dropped = trace_.dropped();
  if (flags & kTraceFlagDisable) {
    trace_.Enable(false);
  }
  if (g.remaining == 0) {
    // No other shard to wait for: answer within this dispatch. The request
    // is not consumed yet, so the requester is neither parked nor resumed.
    ReplyTraceGather(g);
    return;
  }
  // Park the requester like a blocked play until the last window lands.
  rq.client.Suspend(rq.header, rq.body, 0, CurrentTraceCorr());
  const uint32_t token = rq.client.client_number();
  trace_gathers_[token] = std::move(g);
  for (const auto& s : server_.shards_) {
    Shard* t = s.get();
    if (t == this) {
      continue;
    }
    Shard* home = this;
    t->Post([t, home, token] {
      t->SyncClientFaultMetrics();
      auto window = std::make_shared<std::vector<TraceEvent>>();
      t->trace().Drain(window.get());
      const uint64_t dropped = t->trace().dropped();
      home->Post([home, token, window, dropped] {
        home->FinishTraceGather(token, *window, dropped);
      });
    });
  }
}

void Shard::FinishTraceGather(uint32_t token, std::vector<TraceEvent>& events,
                              uint64_t dropped) {
  const auto it = trace_gathers_.find(token);
  if (it == trace_gathers_.end()) {
    return;
  }
  TraceGather& g = it->second;
  g.events.insert(g.events.end(), events.begin(), events.end());
  g.dropped += dropped;
  if (--g.remaining > 0) {
    return;
  }
  TraceGather done = std::move(g);
  trace_gathers_.erase(it);
  if (!IsLive(done.client)) {
    return;
  }
  // The requester sat suspended since dispatch; release it with its reply.
  done.client->TakeSuspended();
  ReplyTraceGather(done);
  ProcessBufferedRequests(done.client);
}

void Shard::ReplyTraceGather(TraceGather& g) {
  // One timeline: interleave the per-shard windows by host timestamp.
  std::stable_sort(g.events.begin(), g.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.host_us < b.host_us;
                   });
  TraceWire wire;
  wire.version = kTraceWireVersion;
  wire.host_now_us = HostMicros();
  wire.events = std::move(g.events);
  wire.dropped = g.dropped;
  wire.enabled = trace_.enabled() ? 1 : 0;
  wire.Encode(g.client->out(), g.client->seq());
}

// --- observability ---------------------------------------------------------

void Shard::SyncClientFaultMetrics() {
  for (auto& [fd, client] : clients_) {
    client->SyncFaultMetrics();
  }
}

}  // namespace af
