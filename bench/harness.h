// Shared support for the paper-reproduction benchmarks (CRL 93/8 Section
// 10). The paper measured six host configurations (MIPS/Alpha, local and
// networked); on one host we reproduce the transport axis instead:
//   inproc - AF_UNIX socketpair, adopted directly by the server loop
//   unix   - UNIX-domain socket through a listener
//   tcp    - TCP over loopback
// Every measurement follows the paper's method: time 1000 (or so)
// iterations of a client-library call and report the mean.
#ifndef AF_BENCH_HARNESS_H_
#define AF_BENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <cstring>
#include <map>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "proto/stats.h"

#include <atomic>
#include <thread>

#include "transport/listener.h"

namespace af {
namespace bench {

// A byte relay that adds a fixed latency to each direction, standing in
// for the 1993 Ethernet's wire-plus-driver delay: loopback TCP on a modern
// kernel is otherwise indistinguishable from a local socket. The "tcp-wan"
// configuration routes the client through one of these.
class DelayProxy {
 public:
  DelayProxy(uint16_t listen_port, uint16_t server_port, uint64_t one_way_us)
      : one_way_us_(one_way_us) {
    auto listener = Listener::ListenTcp(listen_port);
    if (!listener.ok()) {
      return;
    }
    listener_ = std::make_unique<Listener>(listener.take());
    acceptor_ = std::thread([this, server_port] {
      auto accepted = listener_->Accept();
      if (!accepted.ok()) {
        return;
      }
      client_side_ = std::move(accepted.value().first);
      auto upstream = ConnectTcp("127.0.0.1", server_port);
      if (!upstream.ok()) {
        return;
      }
      server_side_ = upstream.take();
      up_ = std::thread(&DelayProxy::Relay, this, &client_side_, &server_side_);
      down_ = std::thread(&DelayProxy::Relay, this, &server_side_, &client_side_);
    });
  }

  ~DelayProxy() {
    stop_.store(true);
    client_side_.Shutdown();
    server_side_.Shutdown();
    if (acceptor_.joinable()) {
      acceptor_.join();
    }
    if (up_.joinable()) {
      up_.join();
    }
    if (down_.joinable()) {
      down_.join();
    }
  }

 private:
  void Relay(FdStream* from, FdStream* to) {
    std::vector<uint8_t> buf(65536);
    while (!stop_.load(std::memory_order_relaxed)) {
      const IoResult r = from->Read(buf.data(), buf.size());
      if (r.status != IoStatus::kOk) {
        return;
      }
      SleepMicros(one_way_us_);
      if (!to->WriteAll(buf.data(), r.bytes).ok()) {
        return;
      }
    }
  }

  uint64_t one_way_us_;
  std::unique_ptr<Listener> listener_;
  FdStream client_side_;
  FdStream server_side_;
  std::thread acceptor_;
  std::thread up_;
  std::thread down_;
  std::atomic<bool> stop_{false};
};

struct Env {
  std::string name;
  std::unique_ptr<ServerRunner> runner;
  std::unique_ptr<DelayProxy> proxy;
  std::unique_ptr<AFAudioConn> conn;
};

// One-way latency emulated by the tcp-wan configuration (half the ~1 ms
// RTT a 1990s 10 Mb Ethernet round trip cost end to end).
constexpr uint64_t kWanOneWayMicros = 500;

// Builds a server with the given device config and connects one client
// over the named transport. port_base keeps concurrent bench binaries from
// colliding. with_trace turns the server's event tracing on for the whole
// run (via GetTrace), so comparing against the committed baseline prices
// the tracing-on record path.
inline std::unique_ptr<Env> MakeEnv(const std::string& transport,
                                    uint16_t port_base = 17800,
                                    ServerRunner::Config config = ServerRunner::Config(),
                                    bool with_faults = false, bool with_trace = false) {
  auto env = std::make_unique<Env>();
  // Only the adopted-socketpair transport supports fault wrapping; label
  // such runs (and traced runs) so their JSON rows never masquerade as the
  // baseline.
  env->name = (with_faults && transport == "inproc") ? transport + "+faults" : transport;
  if (with_trace) {
    env->name += "+trace";
  }
  // The unix "display number" doubles as the port base so concurrent bench
  // binaries stay apart.
  if (transport == "tcp" || transport == "tcp-wan") {
    config.tcp_port = port_base;
  } else if (transport == "unix") {
    ServerAddr addr;
    addr.kind = ServerAddr::Kind::kUnix;
    addr.display = port_base;
    config.unix_path = addr.UnixPath();
  }
  env->runner = ServerRunner::Start(std::move(config));
  if (env->runner == nullptr) {
    return nullptr;
  }
  Result<std::unique_ptr<AFAudioConn>> conn = Status::Ok();
  if (transport == "tcp") {
    SleepMicros(20000);
    conn = AFAudioConn::Open("127.0.0.1:" +
                             std::to_string(static_cast<int>(port_base) - kAudioFileBasePort));
  } else if (transport == "tcp-wan") {
    SleepMicros(20000);
    env->proxy = std::make_unique<DelayProxy>(static_cast<uint16_t>(port_base + 1), port_base,
                                              kWanOneWayMicros);
    SleepMicros(20000);
    conn = AFAudioConn::Open(
        "127.0.0.1:" + std::to_string(static_cast<int>(port_base) + 1 - kAudioFileBasePort));
  } else if (transport == "unix") {
    SleepMicros(20000);
    conn = AFAudioConn::Open(":" + std::to_string(port_base));
  } else if (with_faults) {
    // Benign (empty) schedules on both sides: every byte still funnels
    // through the FaultSchedule decision path, so comparing this against
    // the default run measures the wrapper's worst-case overhead. The
    // default path (schedule == nullptr) must stay indistinguishable from
    // the pre-FaultStream numbers.
    conn = env->runner->ConnectInProcess(std::make_shared<FaultSchedule>(),
                                         std::make_shared<FaultSchedule>());
  } else {
    conn = env->runner->ConnectInProcess();
  }
  if (!conn.ok()) {
    std::fprintf(stderr, "bench: cannot connect over %s: %s\n", transport.c_str(),
                 conn.status().ToString().c_str());
    return nullptr;
  }
  env->conn = conn.take();
  if (with_trace) {
    auto enabled = env->conn->GetTrace(kTraceFlagEnable);
    if (!enabled.ok()) {
      std::fprintf(stderr, "bench: cannot enable tracing: %s\n",
                   enabled.status().ToString().c_str());
      return nullptr;
    }
  }
  return env;
}

// Times fn over iters calls; returns mean microseconds per call.
inline double MeanMicros(int iters, const std::function<void()>& fn) {
  // Warm up caches and server buffers.
  for (int i = 0; i < 8; ++i) {
    fn();
  }
  const uint64_t start = HostMicros();
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  return static_cast<double>(HostMicros() - start) / iters;
}

// This process's resident set size (VmRSS) in KiB; 0 if unreadable.
inline uint64_t ResidentKiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib;
}

// Per-call latency distribution of one measurement (microseconds).
struct Stats {
  int iters = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double min_us = 0;
  double max_us = 0;
};

// Reduces per-call samples (consumed: sorted in place) to summary stats
// using the nearest-rank percentile method.
inline Stats StatsFromSamples(std::vector<double>& samples) {
  Stats s;
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.iters = static_cast<int>(samples.size());
  double sum = 0;
  for (const double v : samples) {
    sum += v;
  }
  const auto rank = [&](double p) {
    const size_t idx = static_cast<size_t>(std::ceil(p * samples.size())) - 1;
    return samples[std::min(idx, samples.size() - 1)];
  };
  s.mean_us = sum / samples.size();
  s.p50_us = rank(0.50);
  s.p95_us = rank(0.95);
  s.p99_us = rank(0.99);
  s.min_us = samples.front();
  s.max_us = samples.back();
  return s;
}

// Times fn per call over iters calls (after the same 8-call warm-up as
// MeanMicros) and returns the full latency distribution.
inline Stats MeasureMicros(int iters, const std::function<void()>& fn) {
  for (int i = 0; i < 8; ++i) {
    fn();
  }
  std::vector<double> samples(static_cast<size_t>(iters > 0 ? iters : 0));
  for (int i = 0; i < iters; ++i) {
    const uint64_t start = HostMicros();
    fn();
    samples[i] = static_cast<double>(HostMicros() - start);
  }
  return StatsFromSamples(samples);
}

// The server's own view of one configuration, captured with GetServerStats
// after the measurement: the timed samples say what the client saw, these
// say what the server did and whether audio stayed healthy while it did it.
// One shard's slice of the server view (ShardStatsWire), for the shard
// sweep's per-shard percentile columns.
struct ShardSide {
  uint64_t index = 0;
  uint64_t clients_accepted = 0;
  uint64_t requests_dispatched = 0;
  uint64_t cross_shard_posted = 0;
  uint64_t cross_shard_drained = 0;
  uint64_t mailbox_depth_hw = 0;
  uint64_t dispatch_p50_us = 0;
  uint64_t dispatch_p95_us = 0;
  uint64_t dispatch_p99_us = 0;
};

struct ServerSide {
  uint64_t requests_dispatched = 0;
  uint64_t play_underruns = 0;
  uint64_t play_underrun_samples = 0;
  uint64_t dispatch_count = 0;   // all opcodes combined
  uint64_t dispatch_p50_us = 0;  // combined service-time percentiles
  uint64_t dispatch_p95_us = 0;
  uint64_t dispatch_p99_us = 0;
  // Scalability counters (the fan-out bench's syscalls-per-request and
  // wake-to-drain axes).
  uint64_t loop_iterations = 0;
  uint64_t writev_calls = 0;   // egress write syscalls
  uint64_t writev_iovecs = 0;  // buffers sent by them: one per write
  uint64_t poller_backend = 0; // retired slot; 1 (epoll) on every server
  uint64_t watched_fds = 0;    // interest-set size (gauge sample)
  uint64_t poll_wake_p50_us = 0;  // readiness wake latency past the timeout
  uint64_t poll_wake_p95_us = 0;
  uint64_t spin_waits = 0;  // loop waits that spun before blocking
  uint64_t spin_hits = 0;   // of those, ones an event ended before blocking
  // Fan-in view for the conference-bridge bench (summed over devices;
  // mix_fanin_hw is the max over devices). play_discarded_frames is the
  // samples-lost axis: play frames clipped to the past and never buffered.
  uint64_t mixed_writes = 0;
  uint64_t preempt_writes = 0;
  uint64_t mix_shared_writes = 0;
  uint64_t preempt_clobber_writes = 0;
  uint64_t mix_fanin_hw = 0;
  uint64_t gain_fused_writes = 0;
  uint64_t play_discarded_frames = 0;
  uint64_t silence_filled_frames = 0;
  // Cross-shard totals (summed over shards; depth is the max high water):
  // inbox traffic, and device requests run against another shard's device.
  uint64_t cross_shard_posted = 0;
  uint64_t cross_shard_drained = 0;
  uint64_t mailbox_depth_hw = 0;
  uint64_t cross_shard_plays = 0;
  std::vector<ShardSide> shards;  // empty on a single-shard server
  // Resident memory each connected client added to the process (client
  // and server sides of an in-process connection, with one AC each); 0 =
  // not measured. Set by the bench, not read from the server's stats.
  double rss_kib_per_client = 0;
};

inline bool FetchServerSide(AFAudioConn& conn, ServerSide* out) {
  auto stats = conn.GetServerStats();
  if (!stats.ok()) {
    std::fprintf(stderr, "bench: GetServerStats failed: %s\n",
                 stats.status().ToString().c_str());
    return false;
  }
  const ServerStatsWire& s = stats.value();
  // Row values by name; 0 for a slot the snapshot's array is too short for.
  const auto slot_value = [](const std::vector<uint64_t>& values, size_t i) -> uint64_t {
    return i < values.size() ? values[i] : 0;
  };
  const auto counter = [&](const char* name) {
    return slot_value(s.counters, ServerCounterSlot(name));
  };
  const auto dev_counter = [&](const DeviceStatsWire& d, const char* name) {
    return slot_value(d.counters, DeviceCounterSlot(name));
  };
  out->requests_dispatched = counter("requests_dispatched");
  out->loop_iterations = counter("loop_iterations");
  out->writev_calls = counter("writev_calls");
  out->writev_iovecs = counter("writev_iovecs");
  out->poller_backend = counter("poller_backend");
  out->cross_shard_plays = counter("cross_shard_plays");
  out->watched_fds = counter("watched_fds");
  out->spin_waits = counter("spin_waits");
  out->spin_hits = counter("spin_hits");
  out->poll_wake_p50_us = HistogramQuantile(s.poll_wake.buckets, 0.50);
  out->poll_wake_p95_us = HistogramQuantile(s.poll_wake.buckets, 0.95);
  for (const DeviceStatsWire& d : s.devices) {
    out->play_underruns += dev_counter(d, "play_underruns");
    out->play_underrun_samples += dev_counter(d, "play_underrun_samples");
    out->mixed_writes += dev_counter(d, "mixed_writes");
    out->preempt_writes += dev_counter(d, "preempt_writes");
    out->mix_shared_writes += dev_counter(d, "mix_shared_writes");
    out->preempt_clobber_writes += dev_counter(d, "preempt_clobber_writes");
    out->mix_fanin_hw = std::max(out->mix_fanin_hw, dev_counter(d, "mix_fanin_hw"));
    out->gain_fused_writes += dev_counter(d, "gain_fused_writes");
    out->play_discarded_frames += dev_counter(d, "play_discarded_frames");
    out->silence_filled_frames += dev_counter(d, "silence_filled_frames");
  }
  std::vector<uint64_t> combined(s.hist_buckets, 0);
  for (const OpcodeStatsWire& op : s.opcodes) {
    out->dispatch_count += op.count;
    for (size_t b = 0; b < combined.size() && b < op.buckets.size(); ++b) {
      combined[b] += op.buckets[b];
    }
  }
  out->dispatch_p50_us = HistogramQuantile(combined, 0.50);
  out->dispatch_p95_us = HistogramQuantile(combined, 0.95);
  out->dispatch_p99_us = HistogramQuantile(combined, 0.99);
  const auto shard_counter = [&](const ShardStatsWire& sh, const char* name) {
    return slot_value(sh.counters, ServerCounterSlot(name));
  };
  for (const ShardStatsWire& sh : s.shards) {
    ShardSide side;
    side.index = sh.index;
    side.clients_accepted = shard_counter(sh, "clients_accepted");
    side.requests_dispatched = shard_counter(sh, "requests_dispatched");
    side.cross_shard_posted = shard_counter(sh, "cross_shard_posted");
    side.cross_shard_drained = shard_counter(sh, "cross_shard_drained");
    side.mailbox_depth_hw = shard_counter(sh, "mailbox_depth_hw");
    side.dispatch_p50_us = HistogramQuantile(sh.dispatch.buckets, 0.50);
    side.dispatch_p95_us = HistogramQuantile(sh.dispatch.buckets, 0.95);
    side.dispatch_p99_us = HistogramQuantile(sh.dispatch.buckets, 0.99);
    out->cross_shard_posted += side.cross_shard_posted;
    out->cross_shard_drained += side.cross_shard_drained;
    out->mailbox_depth_hw = std::max(out->mailbox_depth_hw, side.mailbox_depth_hw);
    out->shards.push_back(side);
  }
  return true;
}

// Accumulates benchmark rows and emits them as a machine-readable JSON
// document, so a perf trajectory can be committed alongside the code and
// diffed by later PRs (BENCH_play.json / BENCH_record.json at repo root).
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& config, const std::string& label, size_t bytes,
           const Stats& s) {
    Row r;
    r.config = config;
    r.label = label;
    r.bytes = bytes;
    r.stats = s;
    rows_.push_back(std::move(r));
  }

  // Attaches the server-side view of one configuration; emitted as a
  // "server" object keyed by config name alongside the rows.
  void SetServer(const std::string& config, const ServerSide& s) {
    server_[config] = s;
  }

  bool empty() const { return rows_.empty(); }

  // Writes {"bench": ..., "rows": [...], "server": {...}}; returns false on
  // I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"case\": \"%s\", \"bytes\": %zu, "
                   "\"iters\": %d, \"mean_us\": %.3f, \"p50_us\": %.3f, "
                   "\"p95_us\": %.3f, \"p99_us\": %.3f, \"min_us\": %.3f, "
                   "\"max_us\": %.3f}%s\n",
                   r.config.c_str(), r.label.c_str(), r.bytes, r.stats.iters,
                   r.stats.mean_us, r.stats.p50_us, r.stats.p95_us, r.stats.p99_us,
                   r.stats.min_us, r.stats.max_us, i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (!server_.empty()) {
      std::fprintf(f, ",\n  \"server\": {\n");
      size_t i = 0;
      for (const auto& [config, s] : server_) {
        std::fprintf(f,
                     "    \"%s\": {\"requests_dispatched\": %llu, "
                     "\"play_underruns\": %llu, \"play_underrun_samples\": %llu, "
                     "\"dispatch_count\": %llu, \"dispatch_p50_us\": %llu, "
                     "\"dispatch_p95_us\": %llu, \"dispatch_p99_us\": %llu, "
                     "\"loop_iterations\": %llu, \"writev_calls\": %llu, "
                     "\"writev_iovecs\": %llu, \"poller_backend\": %llu, "
                     "\"watched_fds\": %llu, \"poll_wake_p50_us\": %llu, "
                     "\"poll_wake_p95_us\": %llu, \"spin_waits\": %llu, "
                     "\"spin_hits\": %llu",
                     config.c_str(),
                     static_cast<unsigned long long>(s.requests_dispatched),
                     static_cast<unsigned long long>(s.play_underruns),
                     static_cast<unsigned long long>(s.play_underrun_samples),
                     static_cast<unsigned long long>(s.dispatch_count),
                     static_cast<unsigned long long>(s.dispatch_p50_us),
                     static_cast<unsigned long long>(s.dispatch_p95_us),
                     static_cast<unsigned long long>(s.dispatch_p99_us),
                     static_cast<unsigned long long>(s.loop_iterations),
                     static_cast<unsigned long long>(s.writev_calls),
                     static_cast<unsigned long long>(s.writev_iovecs),
                     static_cast<unsigned long long>(s.poller_backend),
                     static_cast<unsigned long long>(s.watched_fds),
                     static_cast<unsigned long long>(s.poll_wake_p50_us),
                     static_cast<unsigned long long>(s.poll_wake_p95_us),
                     static_cast<unsigned long long>(s.spin_waits),
                     static_cast<unsigned long long>(s.spin_hits));
        std::fprintf(f,
                     ", \"mixed_writes\": %llu, \"preempt_writes\": %llu, "
                     "\"mix_shared_writes\": %llu, \"preempt_clobber_writes\": %llu, "
                     "\"mix_fanin_hw\": %llu, \"gain_fused_writes\": %llu, "
                     "\"play_discarded_frames\": %llu, \"silence_filled_frames\": %llu, "
                     "\"cross_shard_posted\": %llu, \"cross_shard_drained\": %llu, "
                     "\"mailbox_depth_hw\": %llu, \"cross_shard_plays\": %llu",
                     static_cast<unsigned long long>(s.mixed_writes),
                     static_cast<unsigned long long>(s.preempt_writes),
                     static_cast<unsigned long long>(s.mix_shared_writes),
                     static_cast<unsigned long long>(s.preempt_clobber_writes),
                     static_cast<unsigned long long>(s.mix_fanin_hw),
                     static_cast<unsigned long long>(s.gain_fused_writes),
                     static_cast<unsigned long long>(s.play_discarded_frames),
                     static_cast<unsigned long long>(s.silence_filled_frames),
                     static_cast<unsigned long long>(s.cross_shard_posted),
                     static_cast<unsigned long long>(s.cross_shard_drained),
                     static_cast<unsigned long long>(s.mailbox_depth_hw),
                     static_cast<unsigned long long>(s.cross_shard_plays));
        if (!s.shards.empty()) {
          std::fprintf(f, ", \"shards\": [");
          for (size_t j = 0; j < s.shards.size(); ++j) {
            const ShardSide& sh = s.shards[j];
            std::fprintf(f,
                         "{\"index\": %llu, \"clients_accepted\": %llu, "
                         "\"requests_dispatched\": %llu, "
                         "\"cross_shard_posted\": %llu, "
                         "\"cross_shard_drained\": %llu, "
                         "\"mailbox_depth_hw\": %llu, "
                         "\"dispatch_p50_us\": %llu, \"dispatch_p95_us\": %llu, "
                         "\"dispatch_p99_us\": %llu}%s",
                         static_cast<unsigned long long>(sh.index),
                         static_cast<unsigned long long>(sh.clients_accepted),
                         static_cast<unsigned long long>(sh.requests_dispatched),
                         static_cast<unsigned long long>(sh.cross_shard_posted),
                         static_cast<unsigned long long>(sh.cross_shard_drained),
                         static_cast<unsigned long long>(sh.mailbox_depth_hw),
                         static_cast<unsigned long long>(sh.dispatch_p50_us),
                         static_cast<unsigned long long>(sh.dispatch_p95_us),
                         static_cast<unsigned long long>(sh.dispatch_p99_us),
                         j + 1 < s.shards.size() ? ", " : "");
          }
          std::fprintf(f, "]");
        }
        if (s.rss_kib_per_client > 0) {
          std::fprintf(f, ", \"rss_kib_per_client\": %.1f", s.rss_kib_per_client);
        }
        std::fprintf(f, "}%s\n", ++i < server_.size() ? "," : "");
      }
      std::fprintf(f, "  }");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string config;
    std::string label;
    size_t bytes = 0;
    Stats stats;
  };

  std::string bench_;
  std::vector<Row> rows_;
  std::map<std::string, ServerSide> server_;
};

// Shared command-line handling: --json <path> selects JSON output,
// --transports a,b,c restricts the transport axis (handy for quick runs
// and for capturing the committed inproc baselines), --faults attaches
// a benign FaultSchedule to inproc connections to expose the fault-layer
// wrapper overhead, and --trace runs with server event tracing enabled to
// price the tracing-on record path (the default run, tracing off, must
// stay at the committed baseline).
struct BenchArgs {
  std::string json_path;                 // empty: stdout tables only
  std::vector<std::string> transports;   // empty: benchmark's default set
  bool faults = false;                   // inproc runs through a benign FaultSchedule
  bool trace = false;                    // run with server event tracing enabled

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--faults") {
        args.faults = true;
        continue;
      }
      if (a == "--trace") {
        args.trace = true;
        continue;
      }
      const auto value = [&](const char* prefix) -> std::string {
        const size_t n = std::string(prefix).size();
        if (a.rfind(prefix, 0) == 0 && a.size() > n && a[n] == '=') {
          return a.substr(n + 1);
        }
        if (a == prefix && i + 1 < argc) {
          return argv[++i];
        }
        return "";
      };
      if (std::string v = value("--json"); !v.empty()) {
        args.json_path = v;
      } else if (std::string list = value("--transports"); !list.empty()) {
        size_t pos = 0;
        while (pos != std::string::npos) {
          const size_t comma = list.find(',', pos);
          args.transports.push_back(list.substr(pos, comma - pos));
          pos = comma == std::string::npos ? comma : comma + 1;
        }
      }
    }
    return args;
  }

  std::vector<std::string> TransportsOr(std::vector<std::string> defaults) const {
    return transports.empty() ? std::move(defaults) : transports;
  }
};

// Simple fixed-width table printing in the style of the paper's tables.
inline void PrintHeader(const char* title, const std::vector<std::string>& columns) {
  std::printf("\n%s\n", title);
  for (const std::string& c : columns) {
    std::printf("%16s", c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%16s", "---------------");
  }
  std::printf("\n");
}

inline void PrintCell(const std::string& v) { std::printf("%16s", v.c_str()); }
inline void PrintCell(double v, const char* fmt = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  std::printf("%16s", buf);
}
inline void EndRow() { std::printf("\n"); }

}  // namespace bench
}  // namespace af

#endif  // AF_BENCH_HARNESS_H_
