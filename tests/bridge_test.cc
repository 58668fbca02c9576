// The conference-bridge battery (ctest -L bridge): the shared-device
// fan-in path from kernel to conference.
//
// Layer by layer: the fused gain+mix kernels against their scalar
// references; K-party fan-in into a manually clocked device, bit-exact
// with SIMD on and off against in-test oracles; per-party gain
// golden vectors; the preempt-vs-mix counter split, fan-in high water,
// and samples-lost (discard) accounting; Goertzel DTMF detection at
// hostile block boundaries and through 8 kHz <-> 48 kHz resampling; and
// the abridge core end to end over a live server - floor grabs driven by
// decoded key presses, cross-shard fan-in with no lost plays (re-run
// under AF_SHARDS=4), and a seeded kill-one-party-mid-mix torture via
// FaultStream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>

#include "client/audio_context.h"
#include "clients/cores.h"
#include "clients/server_runner.h"
#include "devices/codec_device.h"
#include "devices/hifi_device.h"
#include "dsp/dtmf.h"
#include "dsp/g711.h"
#include "dsp/goertzel.h"
#include "dsp/mix.h"
#include "dsp/resample.h"
#include "dsp/simd.h"
#include "proto/requests.h"
#include "proto/stats.h"

namespace af {
namespace {

int ShardsFromEnv() {
  const char* s = std::getenv("AF_SHARDS");
  const int n = s != nullptr ? std::atoi(s) : 1;
  return n > 0 ? n : 1;
}

// --- fused kernels against their scalar references ---------------------------

TEST(FusedKernelTest, MulawGainMixMatchesScalarReference) {
  std::mt19937 rng(0x6a11);
  std::vector<uint8_t> dst(1337), src(1337);
  for (const int db : {-18, -6, -1, 3, 12}) {
    for (auto& v : dst) v = static_cast<uint8_t>(rng());
    for (auto& v : src) v = static_cast<uint8_t>(rng());
    std::vector<uint8_t> expect = dst;
    MixTableGainBlockScalar(MulawMixTable(), MulawGainTable(db), expect.data(),
                            src.data(), src.size());
    std::vector<uint8_t> got = dst;
    MixMulawGainBlock(got, src, MulawGainTable(db));
    EXPECT_EQ(got, expect) << "mu-law fused mix diverged at " << db << " dB";

    std::vector<uint8_t> expect_a = dst;
    MixTableGainBlockScalar(AlawMixTable(), AlawGainTable(db), expect_a.data(),
                            src.data(), src.size());
    std::vector<uint8_t> got_a = dst;
    MixAlawGainBlock(got_a, src, AlawGainTable(db));
    EXPECT_EQ(got_a, expect_a) << "A-law fused mix diverged at " << db << " dB";
  }
}

TEST(FusedKernelTest, MulawGainMixEqualsTwoPassForm) {
  // The fused kernel chains the gain table into the mix table; the two-pass
  // form stages the scaled source first. Same tables, same bytes.
  std::mt19937 rng(0x6a12);
  std::vector<uint8_t> dst(997), src(997);
  for (auto& v : dst) v = static_cast<uint8_t>(rng());
  for (auto& v : src) v = static_cast<uint8_t>(rng());
  const int db = -12;
  std::vector<uint8_t> staged(src.size());
  ApplyMulawGain(db, src, staged);
  std::vector<uint8_t> two_pass = dst;
  MixMulawBlock(two_pass, staged);
  std::vector<uint8_t> fused = dst;
  MixMulawGainBlock(fused, src, MulawGainTable(db));
  EXPECT_EQ(fused, two_pass);
}

TEST(FusedKernelTest, Lin16GainMixSimdMatchesScalar) {
  std::mt19937 rng(0x6a13);
  std::vector<int16_t> base(1031), src(1031);
  for (auto& v : base) v = static_cast<int16_t>(rng());
  for (auto& v : src) v = static_cast<int16_t>(rng());
  // Attenuation and unity run the SSE2/NEON lane; boost (> 32767) falls
  // back to the scalar int64 form. Edge factors included.
  for (const int32_t q15 : {0, 1, 123, 8192, 16384, 32767, 32768, 40000, 65536}) {
    std::vector<int16_t> expect = base;
    MixLin16GainBlockScalar(expect, src, q15);
    SetSimdEnabled(true);
    std::vector<int16_t> got = base;
    MixLin16GainBlock(got, src, q15);
    SetSimdEnabled(false);
    std::vector<int16_t> scalar_path = base;
    MixLin16GainBlock(scalar_path, src, q15);
    SetSimdEnabled(true);
    EXPECT_EQ(got, expect) << "SIMD fused lin16 mix diverged at q15=" << q15;
    EXPECT_EQ(scalar_path, expect) << "scalar fused lin16 mix diverged at q15=" << q15;
  }
  // The saturation edge the widen/shift/pack lane must get right:
  // full-scale negative through max attenuation, then the saturating add.
  std::vector<int16_t> edge_dst(16, -32768), edge_src(16, -32768);
  std::vector<int16_t> expect = edge_dst;
  MixLin16GainBlockScalar(expect, edge_src, 32767);
  std::vector<int16_t> got = edge_dst;
  MixLin16GainBlock(got, edge_src, 32767);
  EXPECT_EQ(got, expect);
}

TEST(FusedKernelTest, Lin16GainQ15MatchesDbForm) {
  // GainQ15 is the single source of the scale factor: the standalone gain
  // stage and the fused kernel must agree bit for bit.
  std::vector<int16_t> src(509);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<int16_t>(static_cast<int>(i * 131) - 32768);
  }
  for (const double db : {-18.0, -6.0, 2.5}) {
    std::vector<int16_t> via_db(src.size()), via_q15(src.size());
    ApplyLin16Gain(db, src, via_db);
    ApplyLin16GainQ15(GainQ15(db), src, via_q15);
    EXPECT_EQ(via_db, via_q15) << "at " << db << " dB";
  }
}

// --- K-party fan-in, bit-exact with SIMD on and off --------------------------

std::vector<uint8_t> PartyTone(size_t party, size_t frames) {
  std::vector<uint8_t> tone(frames);
  for (size_t i = 0; i < frames; ++i) {
    tone[i] = MulawFromLinear16(
        static_cast<int16_t>(4000.0 * std::sin(0.02 * (party + 1) * i)));
  }
  return tone;
}

// One deterministic conference block: four mu-law parties with distinct
// gains play the same region of a fresh manually clocked CODEC device.
// Returns what the DAC heard.
std::vector<uint8_t> HeardMulawFanIn(bool simd) {
  auto clock = std::make_shared<ManualSampleClock>(8000);
  auto dev = CodecDevice::Create(clock);
  auto sink = std::make_shared<CaptureSink>();
  dev->sim().SetSink(sink);
  SetSimdEnabled(simd);
  dev->Update();

  const int gains[] = {0, -6, -12, 6};
  const size_t frames = 1200;
  for (size_t p = 0; p < 4; ++p) {
    ServerAC ac;
    ac.id = static_cast<uint32_t>(p + 1);
    ac.device = dev.get();
    ACAttributes attrs;
    attrs.channels = dev->desc().play_nchannels;
    attrs.play_gain_db = gains[p];
    ac.attrs = attrs;
    EXPECT_TRUE(dev->MakeACOps(attrs, &ac.ops).ok());
    const auto tone = PartyTone(p, frames);
    PlayOutcome outcome;
    EXPECT_TRUE(dev->Play(ac, 2000, tone, false, &outcome).ok());
    EXPECT_EQ(outcome.consumed_client_bytes, frames);
  }
  for (uint64_t advanced = 0; advanced < 6000; advanced += 256) {
    clock->Advance(256);
    dev->Update();
  }
  SetSimdEnabled(true);
  return sink->Segment(2000, frames);
}

TEST(BridgeFanInTest, MulawFanInBitExactAcrossKernelPaths) {
  const auto reference = HeardMulawFanIn(/*simd=*/false);
  ASSERT_EQ(reference.size(), 1200u);
  EXPECT_EQ(HeardMulawFanIn(/*simd=*/true), reference);

  // Exact oracle: the first party's write is a gain translate into fresh
  // buffer space; each later party is a gained table mix in play order.
  // Same dsp primitives, applied outside the device.
  const int gains[] = {0, -6, -12, 6};
  std::vector<uint8_t> expect = PartyTone(0, 1200);
  ApplyMulawGain(gains[0], expect);
  for (size_t p = 1; p < 4; ++p) {
    const auto tone = PartyTone(p, 1200);
    MixTableGainBlockScalar(MulawMixTable(), MulawGainTable(gains[p]),
                            expect.data(), tone.data(), tone.size());
  }
  EXPECT_EQ(reference, expect);

  // And sanity: the result approximates the gained linear sum (a clobber
  // would have left only the last party's tone).
  double linear = 0;
  for (size_t p = 0; p < 4; ++p) {
    linear += 4000.0 * std::sin(0.02 * (p + 1) * 100) * DbToAmplitude(gains[p]);
  }
  EXPECT_NEAR(MulawToLinear16(reference[100]), linear, 900);
}

// The same for the lin16 path, against an exact in-test model built from
// the same Q15 arithmetic the kernels advertise.
std::vector<int16_t> HeardLin16FanIn(bool simd) {
  auto clock = std::make_shared<ManualSampleClock>(48000);
  auto dev = HiFiDevice::Create(clock);
  auto sink = std::make_shared<CaptureSink>(64u << 20);
  dev->sim().SetSink(sink);
  SetSimdEnabled(simd);
  dev->Update();

  const int gains[] = {-6, -18, 3};
  const size_t frames = 900;
  for (size_t p = 0; p < 3; ++p) {
    ServerAC ac;
    ac.id = static_cast<uint32_t>(p + 1);
    ac.device = dev.get();
    ACAttributes attrs;
    attrs.encoding = AEncodeType::kLin16;
    attrs.channels = 2;
    attrs.play_gain_db = gains[p];
    ac.attrs = attrs;
    EXPECT_TRUE(dev->MakeACOps(attrs, &ac.ops).ok());
    std::vector<int16_t> samples(frames * 2);
    for (size_t i = 0; i < samples.size(); ++i) {
      samples[i] =
          static_cast<int16_t>(((p + 3) * 1103 * i + 77) % 65536 - 32768);
    }
    PlayOutcome outcome;
    EXPECT_TRUE(dev->Play(ac, 4000,
                          std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(samples.data()),
                              samples.size() * 2),
                          !HostIsLittleEndian(), &outcome)
                    .ok());
  }
  for (uint64_t advanced = 0; advanced < 12000; advanced += 1024) {
    clock->Advance(1024);
    dev->Update();
  }
  SetSimdEnabled(true);
  const auto raw = sink->Segment(4000, frames * 4, 4);
  const auto* s16 = reinterpret_cast<const int16_t*>(raw.data());
  return std::vector<int16_t>(s16, s16 + raw.size() / 2);
}

TEST(BridgeFanInTest, Lin16FanInBitExactAcrossKernelPathsAndModel) {
  const auto reference = HeardLin16FanIn(/*simd=*/false);
  ASSERT_EQ(reference.size(), 1800u);  // 900 frames x 2 channels
  EXPECT_EQ(HeardLin16FanIn(/*simd=*/true), reference);

  // Exact model: party 0 lands on fresh space (gain translate), parties 1
  // and 2 mix - the identical Q15 scale-clamp then saturating add.
  const int gains[] = {-6, -18, 3};
  std::vector<int16_t> model(1800, 0);
  for (size_t p = 0; p < 3; ++p) {
    const int32_t q15 = GainQ15(gains[p]);
    for (size_t i = 0; i < model.size(); ++i) {
      const int16_t s =
          static_cast<int16_t>(((p + 3) * 1103 * i + 77) % 65536 - 32768);
      const int64_t scaled64 = (static_cast<int64_t>(s) * q15) >> 15;
      const int16_t scaled =
          static_cast<int16_t>(std::clamp<int64_t>(scaled64, -32768, 32767));
      model[i] = p == 0 ? scaled : MixLin16(model[i], scaled);
    }
  }
  EXPECT_EQ(reference, model);
}

TEST(BridgeFanInTest, PerPartyGainGoldenVectors) {
  // A single gained party: every output byte is the cached table
  // translation, which equals the functional decode-scale-reencode golden.
  auto clock = std::make_shared<ManualSampleClock>(8000);
  auto dev = CodecDevice::Create(clock);
  auto sink = std::make_shared<CaptureSink>();
  dev->sim().SetSink(sink);
  dev->Update();

  ServerAC ac;
  ac.id = 1;
  ac.device = dev.get();
  ACAttributes attrs;
  attrs.channels = dev->desc().play_nchannels;
  attrs.play_gain_db = -12;
  ac.attrs = attrs;
  ASSERT_TRUE(dev->MakeACOps(attrs, &ac.ops).ok());

  std::vector<uint8_t> pattern(256);
  for (size_t i = 0; i < 256; ++i) {
    pattern[i] = static_cast<uint8_t>(i);  // every mu-law code once
  }
  PlayOutcome outcome;
  ASSERT_TRUE(dev->Play(ac, 1000, pattern, false, &outcome).ok());
  for (uint64_t advanced = 0; advanced < 4000; advanced += 256) {
    clock->Advance(256);
    dev->Update();
  }
  const auto heard = sink->Segment(1000, 256);
  ASSERT_EQ(heard.size(), 256u);
  const GainTable& table = MulawGainTable(-12);
  for (size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(heard[i], table[pattern[i]]) << "byte " << i;
    EXPECT_EQ(heard[i], MulawGainFunctional(-12.0, pattern[i])) << "byte " << i;
  }
}

// --- the counter split: preempt vs mix, fan-in high water, discards ----------

class BridgeCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<ManualSampleClock>(8000);
    dev_ = CodecDevice::Create(clock_);
    sink_ = std::make_shared<CaptureSink>();
    dev_->sim().SetSink(sink_);
    dev_->Update();
  }

  ServerAC MakeAC(uint32_t preempt, int gain_db) {
    ServerAC ac;
    ac.id = ++next_id_;
    ac.device = dev_.get();
    ACAttributes attrs;
    attrs.channels = dev_->desc().play_nchannels;
    attrs.preempt = preempt;
    attrs.play_gain_db = gain_db;
    ac.attrs = attrs;
    EXPECT_TRUE(dev_->MakeACOps(attrs, &ac.ops).ok());
    return ac;
  }

  void Play(ServerAC& ac, ATime t, size_t frames) {
    PlayOutcome outcome;
    const std::vector<uint8_t> data(frames, 0x45);
    ASSERT_TRUE(dev_->Play(ac, t, data, false, &outcome).ok());
  }

  void RunFor(uint64_t samples) {
    for (uint64_t advanced = 0; advanced < samples; advanced += 256) {
      clock_->Advance(256);
      dev_->Update();
    }
  }

  std::shared_ptr<ManualSampleClock> clock_;
  std::unique_ptr<CodecDevice> dev_;
  std::shared_ptr<CaptureSink> sink_;
  uint32_t next_id_ = 0;
};

TEST_F(BridgeCountersTest, SharedWindowSplitsPreemptFromMix) {
  ServerAC a = MakeAC(0, 0);
  ServerAC b = MakeAC(0, -6);
  ServerAC c = MakeAC(1, 0);  // preempting

  // Window 1: two mixers and a preemptor land together. The second and
  // third writes see another live source in the window.
  Play(a, 2000, 400);
  Play(b, 2000, 400);
  Play(c, 2000, 400);
  const auto& m = dev_->metrics();
  EXPECT_EQ(m.mixed_writes.Value(), 2u);
  EXPECT_EQ(m.mix_shared_writes.Value(), 1u);
  EXPECT_EQ(m.preempt_writes.Value(), 1u);
  EXPECT_EQ(m.preempt_clobber_writes.Value(), 1u);
  EXPECT_EQ(m.mix_fanin_hw.Value(), 3u);
  // Gain fused only where the gain is non-zero and data was mixed.
  EXPECT_EQ(m.gain_fused_writes.Value(), 1u);

  // A new window with one lone source: no shared counts, high water holds.
  dev_->Update();
  Play(a, 2600, 400);
  EXPECT_EQ(m.mixed_writes.Value(), 3u);
  EXPECT_EQ(m.mix_shared_writes.Value(), 1u);
  EXPECT_EQ(m.mix_fanin_hw.Value(), 3u);

  // The same AC playing twice in one window is one source.
  dev_->Update();
  Play(a, 3200, 200);
  Play(a, 3400, 200);
  Play(b, 3200, 200);
  EXPECT_EQ(m.mix_fanin_hw.Value(), 3u);
  EXPECT_EQ(m.mix_shared_writes.Value(), 2u);  // only b's write was shared
}

TEST_F(BridgeCountersTest, DiscardAccountingIdenticalOnPreemptAndMixPaths) {
  ServerAC mixer = MakeAC(0, 0);
  ServerAC preemptor = MakeAC(1, 0);
  RunFor(8000);
  const auto& m = dev_->metrics();

  // Entirely in the past: all frames counted lost, both paths.
  Play(mixer, 1000, 500);
  EXPECT_EQ(m.play_discarded_frames.Value(), 500u);
  Play(preemptor, 1000, 500);
  EXPECT_EQ(m.play_discarded_frames.Value(), 1000u);

  // Straddling now: exactly the clipped prefix, both paths.
  const ATime now = dev_->GetTime();
  Play(mixer, now - 200, 600);
  EXPECT_EQ(m.play_discarded_frames.Value(), 1200u);
  Play(preemptor, now - 200, 600);
  EXPECT_EQ(m.play_discarded_frames.Value(), 1400u);

  // A future write loses nothing.
  Play(mixer, now + 400, 600);
  EXPECT_EQ(m.play_discarded_frames.Value(), 1400u);
  // Discards never masquerade as device starvation.
  EXPECT_EQ(m.play_underrun_samples.Value(), 0u);
}

TEST_F(BridgeCountersTest, EagerSilenceFillIsCountedInBaselineMode) {
  // The unoptimized (eager) update silence-fills every region that slides
  // into the past; that fill must land in the same counter the lazy path
  // uses, so the silence_filled_frames axis is comparable across the
  // ablation.
  dev_->SetLazySilenceFill(false);
  const uint64_t before = dev_->metrics().silence_filled_frames.Value();
  RunFor(4000);
  const uint64_t filled = dev_->metrics().silence_filled_frames.Value() - before;
  EXPECT_GE(filled, 4000u);  // every advanced sample had no client data
}

// --- DTMF arbitration: detector goldens ------------------------------------

TEST(BridgeDtmfTest, DigitsSurviveHostileBlockBoundaries) {
  const std::string dialed = "158*#";
  const std::vector<uint8_t> audio = SynthesizeDialString(dialed, 8000);
  // Feed the same audio in pathological chunkings; the detector's internal
  // 205-sample blocking must make the boundaries invisible.
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{205}, size_t{320},
                             size_t{1000}, audio.size()}) {
    DtmfDetector detector(8000);
    for (size_t off = 0; off < audio.size(); off += chunk) {
      const size_t n = std::min(chunk, audio.size() - off);
      detector.FeedMulaw(std::span<const uint8_t>(audio.data() + off, n));
    }
    EXPECT_EQ(detector.Digits(), dialed) << "chunk=" << chunk;
  }
}

TEST(BridgeDtmfTest, DigitsSurviveResamplingTo48kAndBack) {
  const std::string dialed = "42*";
  const std::vector<uint8_t> mulaw = SynthesizeDialString(dialed, 8000);
  std::vector<int16_t> lin(mulaw.size());
  for (size_t i = 0; i < mulaw.size(); ++i) {
    lin[i] = MulawToLinear16(mulaw[i]);
  }

  // Up to 48 kHz: detect with the block size scaled to keep the classic
  // 205-samples-at-8k bin alignment.
  LinearResampler up(8000, 48000);
  const std::vector<int16_t> at48k = up.Process(lin);
  ASSERT_GT(at48k.size(), lin.size() * 5);
  DtmfDetector hifi(48000, 205 * 6);
  hifi.Feed(at48k);
  EXPECT_EQ(hifi.Digits(), dialed);

  // And back down to 8 kHz through the same interpolator.
  LinearResampler down(48000, 8000);
  const std::vector<int16_t> back = down.Process(at48k);
  DtmfDetector phone(8000);
  phone.Feed(back);
  EXPECT_EQ(phone.Digits(), dialed);
}

TEST(BridgeDtmfTest, PressSplitAcrossConferenceBlocksDecodesOnce) {
  // A press split across conference blocks (the abridge case: an 800-frame
  // press over 320-frame blocks) must decode exactly once - the key-down
  // edge, not once per block.
  const std::vector<uint8_t> press = SynthesizeDialString("*", 8000);
  std::vector<uint8_t> tape(3 * 320, kMulawSilence);
  std::copy(press.begin(),
            press.begin() + static_cast<long>(std::min(press.size(), tape.size())),
            tape.begin());
  DtmfDetector detector(8000);
  for (size_t b = 0; b < 3; ++b) {
    detector.FeedMulaw(std::span<const uint8_t>(tape.data() + b * 320, 320));
  }
  EXPECT_EQ(detector.Digits(), "*");
}

// --- end to end: the abridge core over a live server -------------------------

TEST(BridgeEndToEndTest, ScriptedPressesDriveTheFloor) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);

  AbridgeOptions options;
  options.parties = 3;
  options.blocks = 20;
  options.device = static_cast<int>(runner->codec_id());
  options.muted_gain_db = -18;
  // Party 1 grabs, releases, then party 2 grabs; party 0 never presses.
  options.script = {{2, 1, '*'}, {8, 1, '#'}, {14, 2, '*'}};
  options.connect = [&](size_t) { return runner->ConnectInProcess(); };

  auto bridged = RunAbridge(options);
  ASSERT_TRUE(bridged.ok()) << bridged.status().ToString();
  const AbridgeResult& r = bridged.value();
  EXPECT_EQ(r.blocks_played, 60u);
  EXPECT_EQ(r.floor_log, "1*;1#;2*;");
  EXPECT_EQ(r.floor_changes, 3u);
  EXPECT_EQ(r.dtmf_digits, 3u);
  EXPECT_EQ(r.final_floor, 2);
  ASSERT_EQ(r.party_gains_db.size(), 3u);
  EXPECT_EQ(r.party_gains_db[0], -18);
  EXPECT_EQ(r.party_gains_db[1], -18);
  EXPECT_EQ(r.party_gains_db[2], 0);

  // The server saw the fan-in: every play mixed, all three parties in one
  // window at least once, per-party gain fused on the muted writes.
  auto probe = runner->ConnectInProcess();
  ASSERT_TRUE(probe.ok());
  auto stats = probe.value()->GetServerStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_GE(stats.value().devices.size(), 1u);
  const auto& counters = stats.value().devices[0].counters;
  ASSERT_EQ(counters.size(), kNumDeviceCounters);
  EXPECT_EQ(counters[DeviceCounterSlot("mixed_writes")], 60u);
  EXPECT_EQ(counters[DeviceCounterSlot("preempt_writes")], 0u);
  EXPECT_EQ(counters[DeviceCounterSlot("mix_fanin_hw")], 3u);
  EXPECT_GE(counters[DeviceCounterSlot("mix_shared_writes")], 2u);
  EXPECT_GT(counters[DeviceCounterSlot("gain_fused_writes")], 0u);
  EXPECT_EQ(counters[DeviceCounterSlot("play_discarded_frames")], 0u);
}

TEST(BridgeEndToEndTest, RotationArbitrationNeedsNoDetectors) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);

  AbridgeOptions options;
  options.parties = 4;
  options.blocks = 16;
  options.detect_dtmf = false;
  options.floor_rotate_blocks = 4;
  options.device = static_cast<int>(runner->codec_id());
  options.connect = [&](size_t) { return runner->ConnectInProcess(); };

  auto bridged = RunAbridge(options);
  ASSERT_TRUE(bridged.ok()) << bridged.status().ToString();
  EXPECT_EQ(bridged.value().floor_changes, 4u);
  EXPECT_EQ(bridged.value().floor_log, "0*;1*;2*;3*;");
  EXPECT_EQ(bridged.value().dtmf_digits, 0u);
  EXPECT_EQ(bridged.value().final_floor, 3);
}

// The cross-shard fan-in contract: run the conference with parties pinned
// round-robin across however many shards AF_SHARDS grants (the _shard4
// re-run makes this 4). Every play from a shard other than the device's
// owner runs under the owner's device lock, nothing may be lost, and the
// inboxes balance with a depth bounded by the synchronous client count.
TEST(BridgeEndToEndTest, CrossShardFanInLosesNothing) {
  const int shards = ShardsFromEnv();
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);

  AbridgeOptions options;
  options.parties = 8;
  options.blocks = 12;
  options.fleet = 2;
  options.device = static_cast<int>(runner->codec_id());
  options.connect = [&](size_t i) {
    return shards > 1 ? runner->ConnectInProcessOnShard(
                            static_cast<uint32_t>(i % static_cast<size_t>(shards)))
                      : runner->ConnectInProcess();
  };

  auto bridged = RunAbridge(options);
  ASSERT_TRUE(bridged.ok()) << bridged.status().ToString();
  EXPECT_EQ(bridged.value().blocks_played, 96u);  // 8 parties x 12 blocks
  EXPECT_EQ(bridged.value().fleet_plays, 24u);

  auto probe = runner->ConnectInProcess();
  ASSERT_TRUE(probe.ok());
  auto stats = probe.value()->GetServerStats();
  ASSERT_TRUE(stats.ok());
  const ServerStatsWire& s = stats.value();

  ASSERT_GE(s.devices.size(), 1u);
  const auto& counters = s.devices[0].counters;
  EXPECT_EQ(counters[DeviceCounterSlot("mixed_writes")], 120u);  // + fleet
  EXPECT_EQ(counters[DeviceCounterSlot("play_discarded_frames")], 0u);
  EXPECT_EQ(counters[DeviceCounterSlot("play_underrun_samples")], 0u);

  if (shards > 1) {
    const size_t plays_idx = ServerCounterSlot("cross_shard_plays");
    const size_t posted_idx = ServerCounterSlot("cross_shard_posted");
    const size_t drained_idx = ServerCounterSlot("cross_shard_drained");
    const size_t depth_idx = ServerCounterSlot("mailbox_depth_hw");
    uint64_t xplays = 0, posted = 0, drained = 0, depth_hw = 0;
    ASSERT_EQ(s.shards.size(), static_cast<size_t>(shards));
    for (const ShardStatsWire& sh : s.shards) {
      xplays += sh.counters[plays_idx];
      posted += sh.counters[posted_idx];
      drained += sh.counters[drained_idx];
      depth_hw = std::max(depth_hw, sh.counters[depth_idx]);
    }
    // The clients (of 8 parties + 2 fleet) not on the owner shard play 12
    // blocks each against its device.
    const uint64_t off_owner =
        10 - (10 + static_cast<uint64_t>(shards) - 1) / shards;
    EXPECT_GE(xplays, off_owner * 12);
    EXPECT_EQ(posted, drained) << "an inbox message was lost";
    // Plays are synchronous per party: at most one outstanding message per
    // connected client (plus control traffic) can ever queue.
    EXPECT_LE(depth_hw, 2u * 10u);
  }
}

// Seeded torture: one party's server-side stream is cut mid-conference (a
// FaultStream EOF at a scripted byte offset, a different offset per
// round). The survivors must keep mixing as if nothing happened and the
// inboxes must balance. Under AF_SHARDS=4 the survivors are pinned across
// shards, so their plays keep taking the owner's device lock while the
// victim's connection is torn down.
TEST(BridgeEndToEndTest, KillOnePartyMidMixSurvivorsKeepTheConference) {
  const int shards = ShardsFromEnv();
  std::mt19937 rng(0xB21D);
  for (int round = 0; round < 3; ++round) {
    ServerRunner::Config config;
    config.with_codec = true;
    config.realtime = false;
    auto runner = ServerRunner::Start(config);
    ASSERT_NE(runner, nullptr);

    constexpr size_t kParties = 4;
    constexpr size_t kBlocks = 10;
    constexpr size_t kBlockFrames = 320;
    // Past the setup handshake and CreateAC, inside the play stream (each
    // play carries ~340 bytes; the victim sends ten).
    const uint64_t cut_at = 400 + rng() % 2000;

    std::vector<std::unique_ptr<AFAudioConn>> conns;
    std::vector<AC*> acs;
    for (size_t i = 0; i < kParties; ++i) {
      Result<std::unique_ptr<AFAudioConn>> conn = [&] {
        if (i == 1) {  // the victim
          auto faults = std::make_shared<FaultSchedule>();
          faults->CutReadAt(cut_at);
          return runner->ConnectInProcess(nullptr, faults);
        }
        return shards > 1 ? runner->ConnectInProcessOnShard(
                                static_cast<uint32_t>(i % shards))
                          : runner->ConnectInProcess();
      }();
      ASSERT_TRUE(conn.ok()) << conn.status().ToString();
      conns.push_back(conn.take());
      conns.back()->SetErrorHandler([](AFAudioConn&, const ErrorPacket&) {});
      conns.back()->SetIOErrorHandler([](AFAudioConn&) {});  // no exit(1)
      ACAttributes attrs;
      attrs.preempt = 0;
      attrs.encoding = AEncodeType::kMu255;
      auto ac = conns.back()->CreateAC(runner->codec_id(),
                                       kACPreemption | kACEncodingType, attrs);
      ASSERT_TRUE(ac.ok()) << ac.status().ToString();
      acs.push_back(ac.value());
    }

    std::vector<bool> alive(kParties, true);
    std::vector<uint8_t> tone(kBlockFrames);
    for (size_t i = 0; i < tone.size(); ++i) {
      tone[i] =
          MulawFromLinear16(static_cast<int16_t>(3000.0 * std::sin(0.05 * i)));
    }
    size_t survivor_plays = 0;
    bool victim_died = false;
    for (size_t b = 0; b < kBlocks; ++b) {
      for (size_t i = 0; i < kParties; ++i) {
        if (!alive[i]) {
          continue;
        }
        auto played =
            acs[i]->PlaySamples(2000 + static_cast<ATime>(b * kBlockFrames), tone);
        if (!played.ok()) {
          EXPECT_EQ(i, 1u) << "a survivor's play failed: "
                           << played.status().ToString();
          alive[i] = false;
          victim_died = true;
          continue;
        }
        if (i != 1) {
          ++survivor_plays;
        }
      }
    }
    EXPECT_TRUE(victim_died) << "cut at byte " << cut_at << " never landed";
    EXPECT_EQ(survivor_plays, (kParties - 1) * kBlocks);

    auto probe = runner->ConnectInProcess();
    ASSERT_TRUE(probe.ok());
    auto stats = probe.value()->GetServerStats();
    ASSERT_TRUE(stats.ok());
    const ServerStatsWire& s = stats.value();
    ASSERT_GE(s.devices.size(), 1u);
    EXPECT_GE(s.devices[0].counters[DeviceCounterSlot("mixed_writes")],
              survivor_plays);
    if (shards > 1) {
      const size_t posted_idx = ServerCounterSlot("cross_shard_posted");
      const size_t drained_idx = ServerCounterSlot("cross_shard_drained");
      uint64_t posted = 0, drained = 0;
      for (const ShardStatsWire& sh : s.shards) {
        posted += sh.counters[posted_idx];
        drained += sh.counters[drained_idx];
      }
      EXPECT_EQ(posted, drained) << "round " << round << ", cut " << cut_at;
    }
  }
}

}  // namespace
}  // namespace af
