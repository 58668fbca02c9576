// perfbench: the repository benchmark's load generator.
//
//   perfbench --workload <play-small|bridge-xshard|record-bulk> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Sets the workload up several times (reporting the median set-up time),
// runs one closed-loop timed phase of --seconds on the last set-up, and
// checks every reply. With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 it carries the per-layer ones, which add a
// traced pass for the latency budget and the floor microbenches. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Earlier lines name the host.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "floors.h"
#include "process.h"
#include "traced.h"
#include "workloads.h"

using namespace af;
using namespace af::perfbench;

namespace {

// Set-ups before the timed phase (the last one is measured) and, with
// --trace 0, after it; setup_s is the median over all of them. Spreading
// them over the run keeps a noisy second on the host from setting it.
constexpr int kSetUpsBefore = 5;
constexpr int kSetUpsAfter = 6;
// The load thread plus the server's shard threads: the benchmark's limit.
constexpr int kMaxThreads = 4;
// The timed phase is cut into segments of this length. Each end-to-end
// metric is computed per segment and the median over segments reported,
// so a burst of interference from elsewhere on the host moves one segment
// rather than the result.
constexpr uint64_t kSegmentNs = 1000000000;
// Latencies kept per segment and per run (a uniform sample when there are
// more ops), and the same for the client stage split. The sample arrays
// are written before set-up, so peak RSS does not grow with the op count.
constexpr size_t kSegmentSamples = size_t{1} << 17;
constexpr size_t kRttSamples = size_t{1} << 18;
constexpr size_t kStageSamples = size_t{1} << 14;

// One segment of the timed phase.
struct Segment {
  double rtt_p50_us = 0;
  double rtt_p90_us = 0;
  double ops_per_s = 0;
  double cpu_us_per_op = 0;
};

// Median over segments of one field.
double SegmentMedian(const std::vector<Segment>& segments, double Segment::*field) {
  std::vector<double> v;
  for (const Segment& s : segments) {
    v.push_back(s.*field);
  }
  return Median(std::move(v));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

class Metrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
    std::printf("  %-34s %14.6g %s\n", name, value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name, entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// A failed check: named on stderr and counted into failed_ratio.
uint64_t Check(bool ok, const char* what, uint64_t weight = 1) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }
  return ok ? 0 : weight;
}

uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const Shape* shape = FindShape(args.workload);
  if (shape == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("host %s\n", HostFingerprintJson(args.workload, args.seed).c_str());

  Reservoir segment_rtt(kSegmentSamples);
  Reservoir rtt_local(shape->shards > 1 ? kRttSamples : 0);
  Reservoir rtt_forwarded(shape->shards > 1 ? kRttSamples : 0);
  Reservoir queue(kStageSamples), flush(kStageSamples), await(kStageSamples),
      decode(kStageSamples);

  // --- set-up, several times; the last rig is the one measured ------------
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  const auto set_up = [&] {
    rig.reset();  // tear the previous server down outside the timed span
    rig = std::make_unique<Rig>(*shape, args.seed);
    const uint64_t t0 = NowNs();
    if (!rig->SetUp()) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return false;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return true;
  };
  for (int i = 0; i < kSetUpsBefore; ++i) {
    if (!set_up()) {
      return 1;
    }
  }

  // --- timed phase --------------------------------------------------------
  // Two back-to-back snapshots price the stats request itself in
  // requests_dispatched, whichever side of the snapshot it lands on.
  StatsWindow calib;
  StatsWindow window;
  if (!rig->Stats(&calib.before) || !rig->Stats(&calib.after) || !rig->Stats(&window.before)) {
    return 1;
  }
  const uint64_t extra_before = rig->extra_requests();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Segment> segments;
  const ProcessSample p0 = SampleProcess();
  const uint64_t deadline = p0.wall_ns + static_cast<uint64_t>(args.seconds * 1e9);
  ProcessSample segment_start = p0;
  uint64_t segment_ops = 0;
  uint64_t now = p0.wall_ns;
  OpSample s;
  do {
    rig->Op(&s);
    failed += s.ok ? 0 : 1;
    segment_rtt.Add(static_cast<uint32_t>(s.rtt_ns));
    if (shape->shards > 1) {
      (rig->IsLocal(static_cast<size_t>(s.party)) ? rtt_local : rtt_forwarded)
          .Add(static_cast<uint32_t>(s.rtt_ns));
    }
    queue.Add(static_cast<uint32_t>(s.queue_ns));
    flush.Add(static_cast<uint32_t>(s.flush_ns));
    await.Add(static_cast<uint32_t>(s.await_ns));
    decode.Add(static_cast<uint32_t>(s.decode_ns));
    ++attempted;
    ++segment_ops;
    now = NowNs();
    if (now >= segment_start.wall_ns + kSegmentNs || now >= deadline) {
      const ProcessSample end = SampleProcess();
      const double ops = static_cast<double>(segment_ops);
      segments.push_back({segment_rtt.Quantile(0.5) / 1000.0, segment_rtt.Quantile(0.9) / 1000.0,
                          ops / ((end.wall_ns - segment_start.wall_ns) / 1e9),
                          (end.process_cpu_ns - segment_start.process_cpu_ns) / 1000.0 / ops});
      segment_rtt.Clear();
      segment_ops = 0;
      segment_start = SampleProcess();  // the quantile work above is not counted
    }
  } while (now < deadline);
  const ProcessSample p1 = SampleProcess();
  const int threads = ThreadCount();
  const uint64_t quiesce_requests = rig->Quiesce();
  if (!rig->Stats(&window.after)) {
    return 1;
  }
  const double peak_rss = PeakRssMiB();

  // --- correctness --------------------------------------------------------
  const uint64_t stats_overhead = calib.Counter("requests_dispatched");
  const uint64_t extra = rig->extra_requests() - extra_before;
  const uint64_t expect_requests =
      attempted * shape->RequestsPerOp() + extra + quiesce_requests + stats_overhead;
  failed += Check(window.Counter("requests_dispatched") == expect_requests,
                  "requests_dispatched delta != requests issued",
                  AbsDiff(window.Counter("requests_dispatched"), expect_requests));
  const uint64_t expect_mixes = shape->kind == Kind::kRecordBulk ? 0 : attempted;
  failed += Check(window.Device("mixed_writes") == expect_mixes,
                  "mixed_writes delta != plays issued",
                  AbsDiff(window.Device("mixed_writes"), expect_mixes));
  if (shape->kind == Kind::kBridgeXshard) {
    failed += Check(window.Counter("cross_shard_posted") == window.Counter("cross_shard_drained"),
                    "cross_shard_posted != cross_shard_drained",
                    AbsDiff(window.Counter("cross_shard_posted"),
                            window.Counter("cross_shard_drained")));
    failed += Check(window.Device("mix_shared_writes") > 0, "no shared-window mixes");
    failed += Check(rig->floor_holders_seen() > 1, "the floor never rotated");
  }
  failed += Check(threads <= kMaxThreads, "more threads than the benchmark allows");
  failed += Check(rig->async_errors() == 0, "asynchronous protocol or I/O errors",
                  rig->async_errors());

  const double ops = static_cast<double>(attempted);
  const double lost = static_cast<double>(window.Device("play_discarded_frames") +
                                          window.Device("play_underrun_samples") +
                                          window.Device("record_overrun_frames"));
  const double audio_loss_ratio = Ratio(lost, ops * static_cast<double>(shape->FramesPerOp()));

  Metrics m;
  std::printf("%s: %llu ops in %.3f s, %d threads\n", shape->name,
              static_cast<unsigned long long>(attempted), (p1.wall_ns - p0.wall_ns) / 1e9,
              threads);
  // Per-segment values, for judging a run's steadiness by eye.
  const struct {
    const char* name;
    double Segment::*field;
  } kSegmentFields[] = {{"rtt_p50_us", &Segment::rtt_p50_us},
                        {"rtt_p90_us", &Segment::rtt_p90_us},
                        {"ops_per_s", &Segment::ops_per_s},
                        {"cpu_us_per_op", &Segment::cpu_us_per_op}};
  for (const auto& f : kSegmentFields) {
    std::printf("segments %s:", f.name);
    for (const Segment& seg : segments) {
      std::printf(" %.6g", seg.*(f.field));
    }
    std::printf("\n");
  }
  if (!args.trace) {
    for (int i = 0; i < kSetUpsAfter; ++i) {
      if (!set_up()) {
        return 1;
      }
    }
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("rtt_p50_us", SegmentMedian(segments, &Segment::rtt_p50_us), "us");
    m.Add("rtt_p90_us", SegmentMedian(segments, &Segment::rtt_p90_us), "us");
    m.Add("ops_per_s", SegmentMedian(segments, &Segment::ops_per_s), "1/s");
    m.Add("cpu_us_per_op", SegmentMedian(segments, &Segment::cpu_us_per_op), "us");
    m.Add("peak_rss_mb", peak_rss, "MiB");
  } else {
    const double untraced_p50_us = SegmentMedian(segments, &Segment::rtt_p50_us);
    Traced traced;
    const bool traced_ok = RunTraced(*rig, &traced);
    failed += Check(traced_ok, "traced run could not drain its windows");
    failed += Check(traced.ring_drops == 0, "trace ring dropped records", traced.ring_drops);
    failed += Check(traced.bad_rows == 0, "budget rows that do not telescope", traced.bad_rows);
    failed += Check(traced.failed_ops == 0, "traced ops failed", traced.failed_ops);
    rig.reset();  // floors run with no server threads alive
    const Floors fl = RunFloors(*shape, args.seed);

    const double cpu_client = (p1.thread_cpu_ns - p0.thread_cpu_ns) / 1000.0 / ops;
    const double cpu_all = (p1.process_cpu_ns - p0.process_cpu_ns) / 1000.0 / ops;
    const double writevs = static_cast<double>(window.Counter("writev_calls"));
    const auto hist_p50 = [](const std::vector<uint64_t>& b) {
      return static_cast<double>(HistogramQuantile(b, 0.5));
    };
    m.Add("failed_ratio", Ratio(static_cast<double>(failed), ops), "ratio");
    m.Add("audio_loss_ratio", audio_loss_ratio, "ratio");
    m.Add("client.queue_ns", queue.Quantile(0.5), "ns");
    m.Add("client.flush_ns", flush.Quantile(0.5), "ns");
    m.Add("client.await_ns", await.Quantile(0.5), "ns");
    m.Add("client.decode_ns", decode.Quantile(0.5), "ns");
    m.Add("client.cpu_us_per_op", cpu_client, "us");
    m.Add("client.rtt_local_p50_us", rtt_local.Quantile(0.5) / 1000.0, "us");
    m.Add("client.rtt_forwarded_p50_us", rtt_forwarded.Quantile(0.5) / 1000.0, "us");
    m.Add("proto.encode_ns", fl.proto_encode_ns, "ns");
    m.Add("proto.decode_ns", fl.proto_decode_ns, "ns");
    m.Add("transport.pingpong_us", fl.transport_pingpong_us, "us");
    m.Add("transport.copy_ns", fl.transport_copy_ns, "ns");
    m.Add("server.cpu_us_per_op", cpu_all - cpu_client, "us");
    m.Add("server.dispatch_p50_us", hist_p50(OpcodeBucketDelta(window, shape->opcode)), "us");
    m.Add("server.poll_wake_p50_us",
          hist_p50(BucketDelta(window.after.poll_wake.buckets, window.before.poll_wake.buckets)),
          "us");
    m.Add("server.loop_iterations_per_op", window.Counter("loop_iterations") / ops, "count");
    m.Add("server.writev_per_op", writevs / ops, "count");
    m.Add("server.iovecs_per_writev", Ratio(window.Counter("writev_iovecs"), writevs), "count");
    m.Add("server.cross_shard_posted_per_op", window.Counter("cross_shard_posted") / ops,
          "count");
    m.Add("server.mailbox_wakes_per_op", window.Counter("mailbox_wakes") / ops, "count");
    m.Add("server.mailbox_spills", window.Counter("mailbox_spills"), "count");
    m.Add("devices.play_ns", fl.devices_play_ns, "ns");
    m.Add("devices.update_ns", fl.devices_update_ns, "ns");
    m.Add("devices.record_ns", fl.devices_record_ns, "ns");
    m.Add("devices.fused_gain_share",
          Ratio(window.Device("gain_fused_writes"), window.Device("mixed_writes")), "ratio");
    m.Add("devices.mix_fanin_hw", DeviceCounterSum(window.after, "mix_fanin_hw"), "count");
    m.Add("dsp.encode_ns", fl.dsp_encode_ns, "ns");
    m.Add("dsp.decode_ns", fl.dsp_decode_ns, "ns");
    m.Add("dsp.mix_gain_ns", fl.dsp_mix_gain_ns, "ns");
    m.Add("process.allocs_per_op", (p1.allocs - p0.allocs) / ops, "count");
    m.Add("process.ctx_switches_per_op", (p1.voluntary_switches - p0.voluntary_switches) / ops,
          "count");
    m.Add("budget.client_queue_us", traced.client_queue_us, "us");
    m.Add("budget.wire_us", traced.wire_us, "us");
    m.Add("budget.poll_wake_us", traced.poll_wake_us, "us");
    m.Add("budget.dispatch_us", traced.dispatch_us, "us");
    m.Add("budget.mailbox_us", traced.mailbox_us, "us");
    m.Add("budget.mix_us", traced.mix_us, "us");
    m.Add("budget.egress_us", traced.egress_us, "us");
    m.Add("budget.coverage", Ratio(traced.rows, traced.requests), "ratio");
    m.Add("budget.trace_overhead_pct",
          100.0 * Ratio(traced.rtt_p50_us - untraced_p50_us, untraced_p50_us), "%");
  }
  rig.reset();

  // A run-level check can weigh more than one op; failures never exceed
  // the ops attempted in the result line.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(std::min(failed, attempted)), m.Json().c_str());
  return 0;
}
