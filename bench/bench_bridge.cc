// Conference-bridge fan-in: how the shared-device mix path scales when
// many parties pour into ONE device, and what contending for the owner
// shard's device lock charges for it.
//
// bench_fanout spreads N clients across N (or S) devices; this bench is
// its inverse. N scripted telephone parties (the abridge core) all hold
// mixing ACs on the single CODEC device owned by shard 0, with round-robin
// shard pinning, so at AF_SHARDS > 1 a (S-1)/S fraction of every block's
// plays runs on another shard under shard 0's device lock. Each cell
// reports the client-side mix-write p50/p95/p99, the cross-shard device
// requests, the inbox depth high water, and the samples-lost counters
// (play_discarded_frames; underruns stay zero on the manual clock) as
// first-class columns.
//
// Arbitration runs for real in every cell: Goertzel DTMF detection at
// conversational fan-in (N <= 8), scripted floor rotation at scale (a
// thousand per-party detectors would price the client, not the server).
// Either way the floor changes mid-run, so the per-party gain retunes and
// the fused gain+mix path carries most writes.
//
// The sweep is parties N in {1, 8, 64, 256, 1024} x AF_SHARDS in
// {1, 2, 4} on a manual device clock paced one block per conference block
// (plays stay a fixed lead ahead of device time, so nothing blocks on
// flow control and nothing lands in the past). Flags: --json out.json,
// --quick (N = 8, shards {1, 4}, CI), --smoke (one 256-party x 4-shard
// cell validating the live counter shape).
#include "bench/harness.h"
#include "clients/cores.h"

using namespace af;
using namespace af::bench;

namespace {

constexpr size_t kBlockFrames = 320;  // 40 ms at 8 kHz, the abridge default

struct BridgeRun {
  Stats play;  // one sample per party-block mix write
  AbridgeResult bridge;
  ServerSide server;
};

// Blocks per cell: enough that every cell times ~2048 mix writes, with a
// floor that keeps arbitration meaningful at the widest fan-in.
size_t BlocksFor(size_t parties, bool quick) {
  if (quick) {
    return 24;
  }
  return std::max<size_t>(8, 2048 / parties);
}

bool RunBridge(size_t parties, int shards, size_t blocks, BridgeRun* out) {
  ServerRunner::Config config;
  config.server.num_shards = shards;
  config.with_codec = true;  // the one bridge device, owned by shard 0
  config.realtime = false;
  auto runner = ServerRunner::Start(std::move(config));
  if (runner == nullptr) {
    std::fprintf(stderr, "bench_bridge: cannot start server (shards=%d)\n", shards);
    return false;
  }
  auto clock = runner->manual_clock();

  AbridgeOptions options;
  options.parties = parties;
  options.blocks = blocks;
  options.block_frames = kBlockFrames;
  options.device = static_cast<int>(runner->codec_id());
  if (parties > 8) {
    options.detect_dtmf = false;
    options.floor_rotate_blocks = std::max<size_t>(2, blocks / 4);
  }
  // Round-robin shard pinning: party i lands on shard i % S, so all but
  // the shard-0 residents play against another shard's device.
  options.connect = [&](size_t i) {
    return shards > 1 ? runner->ConnectInProcessOnShard(
                            static_cast<uint32_t>(i % static_cast<size_t>(shards)))
                      : runner->ConnectInProcess();
  };
  std::vector<double> samples;
  samples.reserve(parties * blocks);
  options.on_play_micros = [&](uint64_t us) {
    samples.push_back(static_cast<double>(us));
  };
  // Pace device time one block per conference block: writes stay exactly
  // lead_seconds ahead, the lazy silence fill and pickup run over an
  // advancing timeline, and nothing blocks on flow control at any N. The
  // periodic update task is scheduled in wall time (half the ring's drain
  // time) while this clock runs much faster than wall, so each step also
  // runs one Update() on the owner shard's loop - otherwise the hardware
  // ring drains a whole window between updates and charges the cell
  // underruns that are an artifact of the harness clock, not the mix path.
  // Other shards call the device too, so the update takes the owner's lock.
  const auto locked_update = [&] {
    runner->RunOnLoop([&] {
      std::lock_guard<std::mutex> lock(runner->server().device_mutex(runner->codec_id()));
      runner->codec()->Update();
    });
  };
  options.pacer = [&](size_t) {
    clock->Advance(kBlockFrames);
    locked_update();
  };
  // Prime the update cursor at clock zero: the periodic task may not have
  // fired yet when the first paced step lands, and the first Update would
  // otherwise see the whole startup advance as one bogus underrun.
  locked_update();

  auto bridged = RunAbridge(options);
  if (!bridged.ok()) {
    std::fprintf(stderr, "bench_bridge: %s (N=%zu, shards=%d)\n",
                 bridged.status().ToString().c_str(), parties, shards);
    return false;
  }
  out->bridge = bridged.take();

  // The first block per party pays connection/arena warm-up; drop it.
  if (samples.size() > 2 * parties) {
    samples.erase(samples.begin(), samples.begin() + static_cast<long>(parties));
  }
  out->play = StatsFromSamples(samples);

  auto probe = runner->ConnectInProcess();
  if (!probe.ok()) {
    std::fprintf(stderr, "bench_bridge: probe connect failed: %s\n",
                 probe.status().ToString().c_str());
    return false;
  }
  return FetchServerSide(*probe.value(), &out->server);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  const BenchArgs args = BenchArgs::Parse(argc, argv);

  const std::vector<size_t> fanins =
      smoke ? std::vector<size_t>{256}
            : (quick ? std::vector<size_t>{8}
                     : std::vector<size_t>{1, 8, 64, 256, 1024});
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{4}
            : (quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4});

  JsonReport report("bench_bridge");
  PrintHeader("Bridge fan-in: per-party mix-write latency (usec)",
              {"parties", "shards", "p50", "p95", "p99", "xshard", "inbox hw",
               "lost", "floor"});

  bool ok = true;
  for (const size_t n : fanins) {
    for (const int shards : shard_counts) {
      BridgeRun run;
      if (!RunBridge(n, shards, BlocksFor(n, quick || smoke), &run)) {
        ok = false;
        continue;
      }
      const std::string config = "shards" + std::to_string(shards);
      report.Add(config, "mix/N=" + std::to_string(n), kBlockFrames, run.play);
      report.SetServer(config + "/N=" + std::to_string(n), run.server);
      PrintCell(std::to_string(n));
      PrintCell(std::to_string(shards));
      PrintCell(run.play.p50_us, "%.1f");
      PrintCell(run.play.p95_us, "%.1f");
      PrintCell(run.play.p99_us, "%.1f");
      PrintCell(std::to_string(run.server.cross_shard_plays));
      PrintCell(std::to_string(run.server.mailbox_depth_hw));
      PrintCell(std::to_string(run.server.play_discarded_frames +
                               run.server.play_underrun_samples));
      PrintCell(std::to_string(run.bridge.floor_changes));
      EndRow();

      if (smoke) {
        // CI's live-shape check: the counters the committed artifact is
        // reviewed on must actually move in a real 256-party run.
        if (run.server.mix_shared_writes == 0 || run.server.mix_fanin_hw < n) {
          std::fprintf(stderr, "bench_bridge: smoke: fan-in counters flat "
                               "(shared=%llu hw=%llu)\n",
                       static_cast<unsigned long long>(run.server.mix_shared_writes),
                       static_cast<unsigned long long>(run.server.mix_fanin_hw));
          ok = false;
        }
        if (run.server.cross_shard_plays == 0) {
          std::fprintf(stderr, "bench_bridge: smoke: no play ran against another "
                               "shard's device\n");
          ok = false;
        }
        const uint64_t lost =
            run.server.play_discarded_frames + run.server.play_underrun_samples;
        if (lost != 0) {
          std::fprintf(stderr, "bench_bridge: smoke: lost %llu samples\n",
                       static_cast<unsigned long long>(lost));
          ok = false;
        }
        if (run.bridge.floor_changes == 0) {
          std::fprintf(stderr, "bench_bridge: smoke: arbitration never ran\n");
          ok = false;
        }
      }
    }
  }
  std::printf("\nxshard counts device requests run against another shard's device\n"
              "(round-robin pinning: (S-1)/S of all plays at S shards); lost is\n"
              "play frames discarded to the past plus underrun samples.\n");

  if (!ok) {
    return 1;
  }
  if (!args.json_path.empty() && !report.WriteFile(args.json_path)) {
    return 1;
  }
  return 0;
}
