// The observability layer: metric primitives, the GetServerStats wire
// format, the astat rendering, and an end-to-end pass over a live server
// that played and recorded through a fault-injecting transport.
#include <gtest/gtest.h>

#include <algorithm>

#include "client/audio_context.h"
#include "clients/cores.h"
#include "clients/server_runner.h"
#include "common/metrics.h"
#include "proto/framing.h"
#include "proto/requests.h"
#include "proto/stats.h"

namespace af {
namespace {

// --- primitives -----------------------------------------------------------

TEST(MetricsTest, CounterAndGauge) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);

  Gauge g;
  g.Set(-7);
  EXPECT_EQ(g.Value(), -7);
  g.Add(10);
  EXPECT_EQ(g.Value(), 3);
}

TEST(MetricsTest, HistogramBucketLayout) {
  // bucket i holds values with bit_width == i: 0 -> 0, 1 -> 1, [2,3] -> 2...
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex((1u << 20) - 1), 20);
  EXPECT_EQ(Histogram::BucketIndex(1u << 20), 21);
  // Values beyond the top bucket saturate instead of indexing out of range.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
}

TEST(MetricsTest, HistogramRecordAndSnapshot) {
  Histogram h;
  h.Record(0);
  h.Record(5);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 1010u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);   // 5 has bit_width 3
  EXPECT_EQ(h.BucketCount(10), 1u);  // 1000 has bit_width 10

  uint64_t snap[Histogram::kBuckets];
  h.Snapshot(snap);
  EXPECT_EQ(snap[3], 2u);
}

TEST(MetricsTest, HistogramQuantiles) {
  // Empty histogram: all quantiles are 0.
  std::vector<uint64_t> empty(Histogram::kBuckets, 0);
  EXPECT_EQ(HistogramQuantile(empty, 0.5), 0u);

  // 90 fast samples (value 1) and 10 slow ones (~1000): the median sits in
  // the fast bucket, the p99 in the slow one.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  uint64_t snap[Histogram::kBuckets];
  h.Snapshot(snap);
  const std::span<const uint64_t> buckets(snap, Histogram::kBuckets);
  EXPECT_EQ(HistogramQuantile(buckets, 0.5), 1u);
  EXPECT_EQ(HistogramQuantile(buckets, 0.99), 1023u);  // upper bound of bucket 10
  EXPECT_LE(HistogramQuantile(buckets, 0.5), HistogramQuantile(buckets, 0.95));
  EXPECT_LE(HistogramQuantile(buckets, 0.95), HistogramQuantile(buckets, 0.99));
}

// --- wire format ----------------------------------------------------------

ServerStatsWire SampleStats() {
  ServerStatsWire s;
  s.counters.assign(kNumServerCounters, 0);
  s.counters[ServerCounterSlot("requests_dispatched")] = 1234;
  s.counters[ServerCounterSlot("bytes_in")] = 987654321;
  s.errors_by_code.assign(16, 0);
  s.errors_by_code[3] = 2;
  s.hist_buckets = Histogram::kBuckets;
  s.opcodes.resize(4);
  s.opcodes[2].count = 55;
  s.opcodes[2].sum_micros = 5500;
  s.opcodes[2].buckets.assign(Histogram::kBuckets, 0);
  s.opcodes[2].buckets[7] = 55;
  s.poll_wake.count = 9;
  s.poll_wake.sum = 90;
  s.poll_wake.buckets.assign(Histogram::kBuckets, 0);
  s.poll_wake.buckets[4] = 9;
  s.devices.resize(1);
  s.devices[0].index = 0;
  s.devices[0].counters.assign(kNumDeviceCounters, 0);
  s.devices[0].counters[DeviceCounterSlot("play_underruns")] = 3;
  s.devices[0].update_lag.count = 2;
  s.devices[0].update_lag.sum = 20;
  s.devices[0].update_lag.buckets.assign(Histogram::kBuckets, 0);
  s.devices[0].update_lag.buckets[4] = 2;
  return s;
}

TEST(StatsWireTest, EncodeDecodeRoundTrip) {
  const ServerStatsWire in = SampleStats();
  WireWriter w;
  in.Encode(w, /*seq=*/42);
  const auto& bytes = w.data();
  ASSERT_GT(bytes.size(), size_t{32});
  // A reply is one 32-byte unit and the extra data its header counts.
  EXPECT_EQ(FrameServerMessage(bytes, /*setup_done=*/true, HostWireOrder()), bytes.size());

  ServerStatsWire out;
  ASSERT_TRUE(ServerStatsWire::Decode(bytes, HostWireOrder(), &out));
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.counters, in.counters);
  EXPECT_EQ(out.errors_by_code, in.errors_by_code);
  EXPECT_EQ(out.hist_buckets, in.hist_buckets);
  ASSERT_EQ(out.opcodes.size(), in.opcodes.size());
  EXPECT_EQ(out.opcodes[2].count, 55u);
  EXPECT_EQ(out.opcodes[2].sum_micros, 5500u);
  EXPECT_EQ(out.opcodes[2].buckets[7], 55u);
  EXPECT_EQ(out.poll_wake.count, 9u);
  ASSERT_EQ(out.devices.size(), 1u);
  EXPECT_EQ(out.devices[0].counters, in.devices[0].counters);
  EXPECT_EQ(out.devices[0].update_lag.count, 2u);
}

TEST(StatsWireTest, DecodeRejectsDamage) {
  const ServerStatsWire in = SampleStats();
  WireWriter w;
  in.Encode(w, 1);
  std::vector<uint8_t> bytes = w.data();

  ServerStatsWire out;
  // Truncation at any point past the reply unit fails cleanly.
  std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + 40);
  EXPECT_FALSE(ServerStatsWire::Decode(cut, HostWireOrder(), &out));
  // An absurd array count is damage, not an allocation request.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[32 + 4] = 0xFF;  // low byte of n_counters
  corrupt[32 + 5] = 0xFF;
  corrupt[32 + 6] = 0xFF;
  corrupt[32 + 7] = 0xFF;
  EXPECT_FALSE(ServerStatsWire::Decode(corrupt, HostWireOrder(), &out));
}

// The wire layout golden: both name tables in wire order and the gauge
// slots, as literals. Rows are append-only, so a reordered table or a row
// inserted mid-list fails here; a row appended at the end does not.
TEST(StatsWireTest, LayoutGolden) {
  const std::vector<std::string> server = {
      "requests_dispatched", "events_sent",         "errors_sent",
      "clients_accepted",    "clients_reaped",      "loop_iterations",
      "bytes_in",            "bytes_out",           "highwater_hits",
      "suspends",            "resumes",             "faults_applied",
      "trace_dropped_events", "writev_calls",       "writev_iovecs",
      "poller_backend",      "watched_fds",         "cross_shard_posted",
      "cross_shard_drained", "cross_shard_events",  "cross_shard_plays",
      "mailbox_wakes",       "mailbox_spills",      "mailbox_depth_hw",
      "shards",              "oplog_records",       "resyncs",
      "oplog_acked",         "repl_overflows",      "failovers_promoted",
      "egress_highwater_hits",
  };
  const std::vector<std::string> device = {
      "play_underruns",        "play_underrun_samples", "record_overruns",
      "record_overrun_frames", "silence_filled_frames", "preempt_writes",
      "mixed_writes",          "passthrough_plays",     "converted_plays",
      "updates",               "play_discarded_frames", "mix_shared_writes",
      "preempt_clobber_writes", "mix_fanin_hw",         "gain_fused_writes",
  };
  const std::vector<size_t> gauge_slots = {15, 16, 23, 24, 27, 28, 29};

  ASSERT_GE(kNumServerCounters, server.size());
  ASSERT_GE(kNumDeviceCounters, device.size());
  for (size_t i = 0; i < server.size(); ++i) {
    EXPECT_EQ(kServerCounterNames[i], server[i]) << "server slot " << i;
  }
  for (size_t i = 0; i < device.size(); ++i) {
    EXPECT_EQ(kDeviceCounterNames[i], device[i]) << "device slot " << i;
  }
  std::vector<size_t> gauges;
  for (size_t i = 0; i < server.size(); ++i) {
    if (IsServerGaugeSlot(i)) {
      gauges.push_back(i);
    }
  }
  EXPECT_EQ(gauges, gauge_slots);
}

// --- astat rendering -------------------------------------------------------

TEST(AstatFormatTest, TableNamesWhatItCounts) {
  const std::string table = FormatServerStats(SampleStats(), /*json=*/false);
  EXPECT_NE(table.find("requests_dispatched"), std::string::npos);
  EXPECT_NE(table.find("1234"), std::string::npos);
  EXPECT_NE(table.find("play_underruns"), std::string::npos);
  EXPECT_NE(table.find("errors by code"), std::string::npos);
  EXPECT_NE(table.find("dispatch latency"), std::string::npos);
}

TEST(AstatFormatTest, JsonCarriesTheSameNumbers) {
  const std::string json = FormatServerStats(SampleStats(), /*json=*/true);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"requests_dispatched\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"play_underruns\":3"), std::string::npos);
  EXPECT_NE(json.find("\"poll_wake\""), std::string::npos);
  // Quick structural sanity: balanced braces and brackets.
  int braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- end to end ------------------------------------------------------------

TEST(MetricsEndToEnd, StatsOverTheWireUnderFaultInjection) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);

  // The server end of the connection reads through a fault schedule that
  // fragments every transfer into 64-byte pieces.
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(64);
  auto opened = runner->ConnectInProcess(nullptr, faults);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto conn = opened.take();
  conn->SetErrorHandler([](AFAudioConn&, const ErrorPacket&) {});

  // Traffic: time queries, a play, a non-blocking record, and one error.
  const DeviceId dev = runner->codec_id();
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  auto ac = conn->CreateAC(dev, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  std::vector<uint8_t> tone(800, 0xFF);
  auto played = ac.value()->PlaySamples(now.value() + 400, tone);
  ASSERT_TRUE(played.ok()) << played.status().ToString();
  std::vector<uint8_t> rec(400);
  auto recorded = ac.value()->RecordSamples(now.value() - 800, rec, /*block=*/false);
  ASSERT_TRUE(recorded.ok());
  EXPECT_FALSE(conn->GetTime(99).ok());  // provokes a BadDevice error

  // Provoke a play underrun: jump the sample clock far past the hardware
  // window, then run the device update, which finds the hole.
  runner->manual_clock()->Advance(1u << 17);
  runner->RunOnLoop([&] { runner->codec()->Update(); });

  auto stats_result = conn->GetServerStats();
  ASSERT_TRUE(stats_result.ok()) << stats_result.status().ToString();
  const ServerStatsWire& stats = stats_result.value();

  EXPECT_EQ(stats.version, kServerStatsVersion);
  ASSERT_EQ(stats.counters.size(), kNumServerCounters);
  EXPECT_GT(stats.counters[ServerCounterSlot("requests_dispatched")], 0u);
  EXPECT_GT(stats.counters[ServerCounterSlot("bytes_in")], 0u);
  EXPECT_GT(stats.counters[ServerCounterSlot("bytes_out")], 0u);
  EXPECT_GT(stats.counters[ServerCounterSlot("clients_accepted")], 0u);
  EXPECT_GT(stats.counters[ServerCounterSlot("faults_applied")], 0u);
  EXPECT_GT(stats.counters[ServerCounterSlot("errors_sent")], 0u);

  uint64_t total_errors = 0;
  for (uint64_t e : stats.errors_by_code) total_errors += e;
  EXPECT_GE(total_errors, 1u);

  // Per-opcode accounting: every request kind we sent shows up, and the
  // histogram agrees with the count.
  ASSERT_GT(stats.opcodes.size(), static_cast<size_t>(Opcode::kPlaySamples));
  const auto& get_time = stats.opcodes[static_cast<size_t>(Opcode::kGetTime)];
  const auto& play = stats.opcodes[static_cast<size_t>(Opcode::kPlaySamples)];
  const auto& record = stats.opcodes[static_cast<size_t>(Opcode::kRecordSamples)];
  EXPECT_GE(get_time.count, 2u);
  EXPECT_EQ(play.count, 1u);
  EXPECT_EQ(record.count, 1u);
  uint64_t play_bucket_total = 0;
  for (uint64_t b : play.buckets) play_bucket_total += b;
  EXPECT_EQ(play_bucket_total, play.count);
  // Percentiles are well-formed (monotone) even for small samples.
  const uint64_t p50 = HistogramQuantile(get_time.buckets, 0.5);
  const uint64_t p99 = HistogramQuantile(get_time.buckets, 0.99);
  EXPECT_LE(p50, p99);

  // The provoked underrun is visible in the device section.
  ASSERT_GE(stats.devices.size(), 1u);
  ASSERT_EQ(stats.devices[0].counters.size(), kNumDeviceCounters);
  EXPECT_GE(stats.devices[0].counters[DeviceCounterSlot("play_underruns")], 1u);
  EXPECT_GT(stats.devices[0].counters[DeviceCounterSlot("play_underrun_samples")], 0u);
  EXPECT_GT(stats.devices[0].counters[DeviceCounterSlot("updates")], 0u);

  // The text dump is astat's table of the same snapshot (exercised on the
  // loop thread, the path SIGUSR1 uses).
  std::string dump;
  runner->RunOnLoop([&] { dump = runner->server().DumpStatsText(); });
  EXPECT_NE(dump.find("requests_dispatched"), std::string::npos);
  EXPECT_NE(dump.find("device 0:"), std::string::npos);
  EXPECT_NE(dump.find("GetTime"), std::string::npos);

  // And the rendered forms work against live data.
  const std::string json = FormatServerStats(stats, true);
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
}

// Samples-lost accounting must be path-independent: a late play charges
// play_discarded_frames the same whether the AC mixes or preempts, never
// leaks into the underrun counter (that one is the device starving, not
// the client being late), and the baseline eager update counts its
// silence fill in the same counter the lazy path uses - all visible over
// the wire, where bench_bridge's "lost" column reads them.
TEST(MetricsEndToEnd, SamplesLostAccountingConsistentAcrossPaths) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);

  auto opened = runner->ConnectInProcess();
  ASSERT_TRUE(opened.ok());
  auto conn = opened.take();
  const DeviceId dev = runner->codec_id();

  ACAttributes mix_attrs;
  mix_attrs.preempt = 0;
  auto mixer = conn->CreateAC(dev, kACPreemption, mix_attrs);
  ASSERT_TRUE(mixer.ok());
  ACAttributes pre_attrs;
  pre_attrs.preempt = 1;
  auto preemptor = conn->CreateAC(dev, kACPreemption, pre_attrs);
  ASSERT_TRUE(preemptor.ok());

  // Move device time forward so there is a past to be late into. Advance
  // in sub-ring steps with an Update each: jumping more than one hardware
  // ring between updates is a real starvation event and would (correctly)
  // charge play_underrun_samples, which this test pins at zero.
  const auto step = [&](size_t frames) {
    runner->RunOnLoop([&] { runner->codec()->Update(); });
    while (frames > 0) {
      const size_t chunk = std::min<size_t>(frames, 512);
      runner->manual_clock()->Advance(static_cast<uint32_t>(chunk));
      runner->RunOnLoop([&] { runner->codec()->Update(); });
      frames -= chunk;
    }
  };
  step(1u << 14);

  const auto discarded = [&]() -> uint64_t {
    auto stats = conn->GetServerStats();
    EXPECT_TRUE(stats.ok());
    return stats.value().devices[0].counters[DeviceCounterSlot("play_discarded_frames")];
  };
  const uint64_t base = discarded();

  // Entirely-past plays: both paths charge exactly the request's frames.
  std::vector<uint8_t> tone(500, 0xFF);
  ASSERT_TRUE(mixer.value()->PlaySamples(1000, tone).ok());
  EXPECT_EQ(discarded(), base + 500);
  ASSERT_TRUE(preemptor.value()->PlaySamples(1000, tone).ok());
  EXPECT_EQ(discarded(), base + 1000);

  // Straddling plays: both paths charge exactly the clipped prefix.
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  ASSERT_TRUE(mixer.value()->PlaySamples(now.value() - 200, tone).ok());
  EXPECT_EQ(discarded(), base + 1200);
  ASSERT_TRUE(preemptor.value()->PlaySamples(now.value() - 200, tone).ok());
  EXPECT_EQ(discarded(), base + 1400);

  // The discards stayed out of the starvation counter, and the eager
  // baseline's silence fill lands in the shared counter.
  auto stats = conn->GetServerStats();
  ASSERT_TRUE(stats.ok());
  const auto& counters = stats.value().devices[0].counters;
  EXPECT_EQ(counters[DeviceCounterSlot("play_underrun_samples")], 0u);
  const uint64_t lazy_filled = counters[DeviceCounterSlot("silence_filled_frames")];
  runner->RunOnLoop([&] { runner->codec()->SetLazySilenceFill(false); });
  step(2048);
  auto after = conn->GetServerStats();
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after.value().devices[0].counters[DeviceCounterSlot("silence_filled_frames")],
            lazy_filled + 2048);
}

}  // namespace
}  // namespace af
