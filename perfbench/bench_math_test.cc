// Tests of the benchmark's own arithmetic: percentile ranks, deltas of
// two stats snapshots, and the budget telescoping check.
#include <gtest/gtest.h>

#include "bench_math.h"

namespace af::perfbench {
namespace {

TEST(PercentileTest, NearestRankOnUnsortedSamples) {
  std::vector<uint32_t> v = {50, 10, 40, 20, 30};
  EXPECT_EQ(Percentile(v, 0.5), 30);
  EXPECT_EQ(Percentile(v, 0.9), 50);   // rank ceil(4.5) = 5
  EXPECT_EQ(Percentile(v, 0.2), 10);   // rank 1
  EXPECT_EQ(Percentile(v, 0.0), 10);   // clamps to the first rank
  EXPECT_EQ(Percentile(v, 1.0), 50);
}

TEST(PercentileTest, EvenCountTakesTheLowerMiddle) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_EQ(Percentile(v, 0.5), 2);
  EXPECT_EQ(Median(std::vector<int>{7}), 7);
}

TEST(PercentileTest, EmptyIsZero) {
  std::vector<uint64_t> v;
  EXPECT_EQ(Percentile(v, 0.5), 0);
}

TEST(PercentileTest, NinetiethOfAThousand) {
  std::vector<int> v(1000);
  for (int i = 0; i < 1000; ++i) {
    v[i] = 999 - i;
  }
  EXPECT_EQ(Percentile(v, 0.9), 899);  // rank 900 of 0..999
  EXPECT_EQ(Percentile(v, 0.5), 499);
}

TEST(ReservoirTest, KeepsEverythingUntilFullThenSamplesUniformly) {
  Reservoir small(8);
  for (uint32_t v = 1; v <= 5; ++v) {
    small.Add(v);
  }
  EXPECT_EQ(small.seen(), 5u);
  EXPECT_EQ(small.Quantile(0.5), 3);  // exactly the five values kept
  EXPECT_EQ(small.Quantile(1.0), 5);

  // 100k values 0..99999 through a 4096-slot sample: quantiles stay within
  // a couple of percent of the stream's.
  Reservoir r(4096);
  for (uint32_t v = 0; v < 100000; ++v) {
    r.Add(v);
  }
  EXPECT_EQ(r.seen(), 100000u);
  EXPECT_NEAR(r.Quantile(0.5), 50000, 2500);
  EXPECT_NEAR(r.Quantile(0.9), 90000, 2500);
  EXPECT_EQ(Reservoir(0).Quantile(0.5), 0);
}

ServerStatsWire Snapshot(uint64_t dispatched, uint64_t mixed_dev0, uint64_t mixed_dev1) {
  ServerStatsWire s;
  s.counters.assign(kNumServerCounters, 0);
  s.counters[IndexOf(kServerCounterNames, "requests_dispatched")] = dispatched;
  for (const uint64_t mixed : {mixed_dev0, mixed_dev1}) {
    DeviceStatsWire d;
    d.counters.assign(kNumDeviceCounters, 0);
    d.counters[IndexOf(kDeviceCounterNames, "mixed_writes")] = mixed;
    s.devices.push_back(d);
  }
  return s;
}

TEST(StatsDeltaTest, CountersAndDeviceSums) {
  StatsWindow w;
  w.before = Snapshot(100, 5, 7);
  w.after = Snapshot(160, 25, 17);
  EXPECT_EQ(w.Counter("requests_dispatched"), 60u);
  EXPECT_EQ(w.Device("mixed_writes"), 30u);  // (25 + 17) - (5 + 7)
  EXPECT_EQ(w.Counter("no_such_counter"), 0u);
}

TEST(StatsDeltaTest, ShortOrRestartedSnapshotsClampToZero) {
  StatsWindow w;
  w.before = Snapshot(100, 5, 7);
  w.after = Snapshot(40, 1, 1);  // a restarted server: never a huge unsigned delta
  EXPECT_EQ(w.Counter("requests_dispatched"), 0u);
  EXPECT_EQ(w.Device("mixed_writes"), 0u);
  w.after.counters.resize(2);  // an older server's shorter array
  EXPECT_EQ(ServerCounter(w.after, "writev_calls"), 0u);
}

TEST(StatsDeltaTest, HistogramBucketsDifferenceThenQuantile) {
  const std::vector<uint64_t> before = {0, 4, 2, 0};
  const std::vector<uint64_t> after = {0, 4, 12, 1, 9};
  const std::vector<uint64_t> d = BucketDelta(after, before);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d, (std::vector<uint64_t>{0, 0, 10, 1}));
  EXPECT_EQ(HistogramQuantile(d, 0.5), 3u);  // bucket 2 holds [2, 4)
}

TEST(StatsDeltaTest, OpcodeBucketsAreSelectedByOpcode) {
  StatsWindow w;
  w.before.opcodes.resize(64);
  w.after.opcodes.resize(64);
  const size_t play = static_cast<size_t>(Opcode::kPlaySamples);
  w.before.opcodes[play].buckets = {0, 1, 1};
  w.after.opcodes[play].buckets = {0, 1, 6};
  EXPECT_EQ(OpcodeBucketDelta(w, Opcode::kPlaySamples), (std::vector<uint64_t>{0, 0, 5}));
  EXPECT_TRUE(OpcodeBucketDelta(w, Opcode::kRecordSamples).empty());
}

LatencyBudgetRow Row(int64_t q, int64_t wire, int64_t wake, int64_t disp, int64_t mbox,
                     int64_t mix, int64_t egress, int64_t total) {
  LatencyBudgetRow r;
  r.client_queue_us = q;
  r.wire_us = wire;
  r.poll_wake_us = wake;
  r.dispatch_us = disp;
  r.mailbox_us = mbox;
  r.mix_us = mix;
  r.egress_us = egress;
  r.total_us = total;
  return r;
}

TEST(BudgetTest, TelescopingIsExactIncludingNegativeResidue) {
  EXPECT_TRUE(Telescopes(Row(1, 3, 2, 4, 0, 0, 6, 16)));
  EXPECT_TRUE(Telescopes(Row(0, -1, 3, 2, 5, 3, 4, 16)));  // clock residue
  EXPECT_FALSE(Telescopes(Row(1, 3, 2, 4, 0, 0, 6, 17)));
}

TEST(BudgetTest, ComponentMedianAcrossRows) {
  const std::vector<LatencyBudgetRow> rows = {Row(1, 3, 2, 4, 0, 0, 6, 16),
                                              Row(2, 5, 2, 1, 9, 2, 6, 27),
                                              Row(1, 4, 3, 1, 8, 3, 7, 27)};
  EXPECT_EQ(BudgetMedian(rows, &LatencyBudgetRow::wire_us), 4);
  EXPECT_EQ(BudgetMedian(rows, &LatencyBudgetRow::mailbox_us), 8);
  EXPECT_EQ(BudgetMedian({}, &LatencyBudgetRow::mix_us), 0);
}

TEST(RatioTest, ZeroDenominatorReadsZero) {
  EXPECT_EQ(Ratio(3, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
}

}  // namespace
}  // namespace af::perfbench
