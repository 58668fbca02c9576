// Shard: one per-thread server loop (see shard.h for the ownership map).
// The loop body here is the paper's WaitForSomething() core, moved verbatim
// from the pre-shard AFServer; the cross-shard sections (inbox drain, event
// fan-out, trace gather) are PR 6 additions.
#include "server/shard.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/log.h"

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
      next_client_number_(index + 1) {
  if (::pipe(wake_pipe_) != 0) {
    FatalError("Shard: cannot create wake pipe");
  }
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);

  const auto counters = metrics_.CounterList();
  for (size_t i = 0; i < kNumServerCounterSlots; ++i) {
    registry_.Register(kServerCounterNames[i], counters[i]);
  }
  registry_.Register("poller_backend", &metrics_.poller_backend);
  registry_.Register("watched_fds", &metrics_.watched_fds);
  registry_.Register("poll_wake_micros", &metrics_.poll_wake_micros);
  metrics_.poller_backend.Set(poller_.backend() == Poller::Backend::kEpoll ? 1 : 0);
  for (size_t code = 1; code < kErrorCodeSlots; ++code) {
    registry_.Register("errors.code" + std::to_string(code),
                       &metrics_.errors_by_code[code]);
  }

  if (opts_.num_shards > 1) {
    const auto extras = metrics_.ExtraCounterList();
    for (size_t i = 0; i < kNumExtraCounterSlots; ++i) {
      registry_.Register(kServerCounterNames[kFirstExtraCounterSlot + i], extras[i]);
    }
  }
  const auto repls = metrics_.ReplCounterList();
  for (size_t i = 0; i < kNumReplCounterSlots; ++i) {
    registry_.Register(kServerCounterNames[kFirstReplCounterSlot + i], repls[i]);
  }
  // Ring overwrites surface in this shard's stats.
  trace_.AttachDropCounter(&metrics_.trace_dropped_events);
  // All of this server's rings gate on one shared generation counter, so a
  // GetTrace enable/disable reaches every shard at a single atomic instant
  // instead of skewing across the per-shard Enable loop. Each ring stamps
  // the generation it first records under (kTraceStart), making window
  // alignment observable from the fetched trace itself.
  trace_.SetShardIndex(static_cast<uint16_t>(index_));
  trace_.AttachGenerationGate(&server_.trace_gen_);

  static const char* const kFlightNames[] = {
      "requests_dispatched", "events_sent",         "clients_accepted",
      "clients_reaped",      "suspends",            "resumes",
      "faults_applied",      "trace_dropped",       "cross_shard_posted",
      "cross_shard_drained", "oplog_records",
  };
  const Counter* flight_counters[] = {
      &metrics_.requests_dispatched, &metrics_.events_sent,
      &metrics_.clients_accepted,    &metrics_.clients_reaped,
      &metrics_.suspends,            &metrics_.resumes,
      &metrics_.faults_applied,      &metrics_.trace_dropped_events,
      &metrics_.cross_shard_posted,  &metrics_.cross_shard_drained,
      &metrics_.oplog_records,
  };
  FlightRecorderCounter flight[std::size(kFlightNames)];
  for (size_t i = 0; i < std::size(kFlightNames); ++i) {
    flight[i] = FlightRecorderCounter{kFlightNames[i], flight_counters[i]};
  }
  flight_slot_ = FlightRecorderRegisterRing(&trace_, index_, flight,
                                            std::size(kFlightNames));
}

Shard::~Shard() {
  FlightRecorderUnregisterRing(flight_slot_);
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
    }
  }
}

void Shard::AddListener(Listener listener) {
  listeners_.push_back(std::move(listener));
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
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
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

void Shard::UpdatePollInterests() {
  poller_.Watch(wake_pipe_[0], true, false);
  for (Listener& l : listeners_) {
    poller_.Watch(l.fd(), true, false);
  }
  for (auto& [fd, client] : clients_) {
    // A suspended client's socket is not read: that is how the server
    // "blocks the client" - TCP backpressure does the rest. After EOF
    // there is nothing left to read either.
    const bool want_read = !client->suspended() &&
                           client->state() != ClientConn::State::kClosing &&
                           !client->saw_eof();
    poller_.Watch(fd, want_read, client->HasPendingOutput());
  }
}

bool Shard::RunOnce(int max_timeout_ms) {
  if (server_.stop_.load(std::memory_order_relaxed) ||
      local_stop_.load(std::memory_order_relaxed)) {
    return false;
  }
  metrics_.loop_iterations.Add();
  UpdatePollInterests();
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
    // Other shards' client fault syncs cannot run from this thread; their
    // spines are read as-is (counters are atomics).
    const std::string dump = server_.DumpStatsText(server_.num_shards() == 1);
    std::fwrite(dump.data(), 1, dump.size(), stderr);
  }
  tasks_.RunDue(woke_us);

  for (const PollEvent& ev : events) {
    if (ev.fd == wake_pipe_[0]) {
      DrainInbox();
      continue;
    }
    bool is_listener = false;
    for (Listener& l : listeners_) {
      if (l.fd() == ev.fd) {
        AcceptPending(l);
        is_listener = true;
        break;
      }
    }
    if (is_listener) {
      continue;
    }
    const auto it = clients_.find(ev.fd);
    if (it == clients_.end()) {
      poller_.Unwatch(ev.fd);
      continue;
    }
    std::shared_ptr<ClientConn> client = it->second;
    if (ev.readable || ev.closed) {
      HandleClientReadable(client);
    }
    if (ev.writable && clients_.count(ev.fd) != 0) {
      if (!client->FlushOutput()) {
        RemoveClient(ev.fd);
      }
    }
  }

  // Service requests that stayed buffered when the fairness cap cut a
  // previous sweep short: poll will not fire again for a socket that has
  // already been drained.
  std::vector<std::shared_ptr<ClientConn>> with_backlog;
  for (auto& [fd, client] : clients_) {
    if (!client->suspended() && client->state() == ClientConn::State::kRunning &&
        client->Buffered().size() >= kRequestHeaderBytes) {
      with_backlog.push_back(client);
    }
  }
  for (const auto& client : with_backlog) {
    if (clients_.count(client->fd()) != 0) {
      ProcessBufferedRequests(client);
    }
  }

  // Flush accumulated replies/events and reap finished clients: ones
  // marked closing, and half-closed peers (EOF seen) that have no
  // complete request left to serve and no output still to deliver.
  std::vector<int> to_remove;
  for (auto& [fd, client] : clients_) {
    if (!client->FlushOutput()) {
      to_remove.push_back(fd);
      continue;
    }
    if (client->state() == ClientConn::State::kClosing && !client->HasPendingOutput()) {
      to_remove.push_back(fd);
      continue;
    }
    if (client->saw_eof() && !client->suspended() && !client->HasPendingOutput() &&
        !client->HasCompleteRequest()) {
      to_remove.push_back(fd);
    }
  }
  for (int fd : to_remove) {
    RemoveClient(fd);
  }

  return !server_.stop_.load(std::memory_order_relaxed) &&
         !local_stop_.load(std::memory_order_relaxed);
}

void Shard::DrainInbox() {
  char buf[64];
  while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    adoption_scratch_.swap(pending_adoptions_);
    action_scratch_.swap(pending_actions_);
  }
  const size_t n = adoption_scratch_.size() + action_scratch_.size();
  if (n == 0) {
    return;  // a Wake() with no message (stop, or a byte of a batch drained earlier)
  }
  metrics_.mailbox_wakes.Add();
  metrics_.cross_shard_drained.Add(n);
  if (n > inbox_depth_hw_.load(std::memory_order_relaxed)) {
    inbox_depth_hw_.store(n, std::memory_order_relaxed);
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
  metrics_.clients_accepted.Add();
  client_count_.fetch_add(1, std::memory_order_relaxed);
}

void Shard::AcceptPending(Listener& listener) {
  auto accepted = listener.Accept();
  if (!accepted.ok()) {
    return;
  }
  auto& [stream, peer] = accepted.value();
  if (server_.accept_handoff_ && server_.num_shards() > 1) {
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
  while (clients_.count(client->fd()) != 0 && !client->suspended() &&
         client->state() != ClientConn::State::kClosing) {
    if (client->state() == ClientConn::State::kAwaitingSetup) {
      TrySetup(client);
      if (client->state() == ClientConn::State::kAwaitingSetup) {
        return;  // need more bytes
      }
      continue;
    }
    if (processed >= opts_.max_requests_per_sweep) {
      // Fairness: give other clients a turn; remember there is more to do.
      if (client->Buffered().size() >= kRequestHeaderBytes) {
        work_pending_ = true;
      }
      return;
    }
    const std::span<const uint8_t> buf = client->Buffered();
    if (buf.size() < kRequestHeaderBytes) {
      return;
    }
    WireReader header_reader(buf, client->order());
    RequestHeader header;
    if (!DecodeRequestHeader(header_reader, &header) || header.length_words == 0) {
      ErrorF("client %u: malformed request header; closing", client->client_number());
      RemoveClient(client->fd());
      return;
    }
    const size_t total = header.TotalBytes();
    if (buf.size() < total) {
      return;  // request not fully received yet
    }
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
    if (clients_.count(client->fd()) == 0) {
      return;  // dispatch closed the connection
    }
    // Seal this request's reply into its own egress segment; the sweep's
    // replies then leave as one writev when the drain runs.
    client->StageOutput();
    client->Consume(total);
    ++processed;
  }
}

void Shard::TrySetup(const std::shared_ptr<ClientConn>& client) {
  const std::span<const uint8_t> buf = client->Buffered();
  if (buf.size() < SetupRequest::kFixedBytes) {
    return;
  }
  SetupRequest req;
  uint16_t auth_name_len = 0;
  uint16_t auth_data_len = 0;
  if (!SetupRequest::DecodeFixed(buf, &req, &auth_name_len, &auth_data_len)) {
    ErrorF("client %u: bad setup prefix; closing", client->client_number());
    RemoveClient(client->fd());
    return;
  }
  const size_t total = SetupRequest::kFixedBytes + Pad4(auth_name_len) + Pad4(auth_data_len);
  if (buf.size() < total) {
    return;
  }
  client->set_order(req.order);

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
    client->Consume(total);
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
  client->Consume(total);
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
  client->StageOutput();
  // The blocked request completed; pick up anything buffered behind it.
  ProcessBufferedRequests(client);
}

// --- GetTrace aggregation --------------------------------------------------

void Shard::StartTraceGather(const std::shared_ptr<ClientConn>& client,
                             uint32_t flags) {
  // The same steps as SnapshotTraceLocal, with one difference: the other
  // shards drain their rings on their own threads (Drain is
  // owner-thread-only) and post the windows back. The rings share one
  // generation gate, so flipping ours opens or closes every shard's window
  // at this instant.
  if (flags & kTraceFlagEnable) {
    trace_.Enable(true);
  }
  SyncClientFaultMetrics();
  TraceGather g;
  g.client = client;
  g.remaining = server_.num_shards() - 1;
  trace_.Drain(&g.events);
  g.dropped = trace_.dropped();
  if (flags & kTraceFlagDisable) {
    trace_.Enable(false);
  }
  const uint32_t token = client->client_number();
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
  const std::shared_ptr<ClientConn> client = std::move(g.client);
  trace_gathers_.erase(it);
  if (!IsLive(client)) {
    return;
  }
  // The requester sat suspended since dispatch; release it with its reply.
  client->TakeSuspended();
  wire.Encode(client->out(), client->seq());
  client->StageOutput();
  ProcessBufferedRequests(client);
}

// --- observability ---------------------------------------------------------

void Shard::SyncClientFaultMetrics() {
  for (auto& [fd, client] : clients_) {
    client->SyncFaultMetrics();
  }
}

void Shard::SnapshotTraceLocal(uint32_t flags, TraceWire* out) {
  TraceRing& tr = trace_;
  if (flags & kTraceFlagEnable) {
    tr.Enable(true);
  }
  // Pull faults applied by live schedules into the spine (and the ring)
  // before the drain, so a fetched trace window is as current as a stats
  // snapshot.
  SyncClientFaultMetrics();
  out->version = kTraceWireVersion;
  out->host_now_us = HostMicros();
  out->events.clear();
  tr.Drain(&out->events);
  out->dropped = tr.dropped();
  if (flags & kTraceFlagDisable) {
    tr.Enable(false);
  }
  out->enabled = tr.enabled() ? 1 : 0;
}

std::string Shard::DumpStatsTextLocal(bool sync_clients) {
  if (sync_clients) {
    SyncClientFaultMetrics();
  }
  std::string out = "== AudioFile server stats ==\n";
  out += registry_.DumpText();
  char line[256];
  for (size_t op = kMinOpcode; op <= kMaxOpcode; ++op) {
    const uint64_t count = metrics_.op_count[op].Value();
    if (count == 0) {
      continue;
    }
    const Histogram& h = metrics_.op_micros[op];
    uint64_t buckets[Histogram::kBuckets];
    h.Snapshot(buckets);
    std::snprintf(line, sizeof line,
                  "dispatch.%-34s count=%" PRIu64 " sum_us=%" PRIu64 " p50=%" PRIu64
                  " p95=%" PRIu64 " p99=%" PRIu64 "\n",
                  OpcodeName(static_cast<Opcode>(op)), count, h.Sum(),
                  HistogramQuantile(buckets, 0.50), HistogramQuantile(buckets, 0.95),
                  HistogramQuantile(buckets, 0.99));
    out += line;
  }
  return out;
}

}  // namespace af
