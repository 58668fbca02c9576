// End-to-end audio integration: real-time clocks, a server loop thread,
// and clients doing exactly what the paper's clients do - play with
// explicit time, record the recent past, mix, preempt, block, and hear the
// result on the simulated hardware.
#include <gtest/gtest.h>

#include <cmath>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "dsp/g711.h"
#include "dsp/gain.h"
#include "dsp/power.h"
#include "dsp/tones.h"

namespace af {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.realtime = true;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    sink_ = std::make_shared<CaptureSink>();
    source_ = std::make_shared<BufferSource>(1 << 16, 1, kMulawSilence);
    runner_->RunOnLoop([this] {
      runner_->codec()->sim().SetSink(sink_);
      runner_->codec()->sim().SetSource(source_);
    });
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    conn_ = conn.take();
    conn_->SetErrorHandler(
        [](AFAudioConn&, const ErrorPacket& error) {
          ADD_FAILURE() << "protocol error: " << ErrorText(error.code);
        });
  }

  AC* MakeAC(uint32_t mask = 0, ACAttributes attrs = ACAttributes()) {
    auto ac = conn_->CreateAC(0, mask, attrs);
    EXPECT_TRUE(ac.ok());
    return ac.value();
  }

  // Waits until device time reaches target.
  void WaitUntil(ATime target) {
    for (;;) {
      auto t = conn_->GetTime(0);
      ASSERT_TRUE(t.ok());
      if (TimeAtOrAfter(t.value(), target)) {
        return;
      }
      SleepMicros(10000);
    }
  }

  std::unique_ptr<ServerRunner> runner_;
  std::shared_ptr<CaptureSink> sink_;
  std::shared_ptr<BufferSource> source_;
  std::unique_ptr<AFAudioConn> conn_;
};

TEST_F(IntegrationTest, PlayIsHeardExactlyWhenScheduled) {
  AC* ac = MakeAC();
  std::vector<uint8_t> pattern(1600);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i % 240);
  }
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 800;  // 100 ms ahead
  auto played = ac->PlaySamples(start, pattern);
  ASSERT_TRUE(played.ok());
  WaitUntil(start + pattern.size() + 1600);

  std::vector<uint8_t> heard;
  runner_->RunOnLoop([&] { heard = sink_->Segment(start, pattern.size()); });
  EXPECT_EQ(heard, pattern);
}

TEST_F(IntegrationTest, TwoClientsMixOnTheWire) {
  auto conn2_result = runner_->ConnectInProcess();
  ASSERT_TRUE(conn2_result.ok());
  auto conn2 = conn2_result.take();
  AC* ac1 = MakeAC();
  auto ac2_result = conn2->CreateAC(0, 0, ACAttributes{});
  ASSERT_TRUE(ac2_result.ok());
  AC* ac2 = ac2_result.value();

  const uint8_t a = MulawFromLinear16(6000);
  const uint8_t b = MulawFromLinear16(3000);
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 1600;
  ASSERT_TRUE(ac1->PlaySamples(start, std::vector<uint8_t>(800, a)).ok());
  ASSERT_TRUE(ac2->PlaySamples(start, std::vector<uint8_t>(800, b)).ok());
  WaitUntil(start + 800 + 1600);

  std::vector<uint8_t> heard;
  runner_->RunOnLoop([&] { heard = sink_->Segment(start + 100, 100); });
  ASSERT_EQ(heard.size(), 100u);
  EXPECT_NEAR(MulawToLinear16(heard[50]), 9000, 400);
}

TEST_F(IntegrationTest, RecordTheRecentPast) {
  // "By recording from the recent past, the application can begin
  // recording at the instant the button was hit" (Section 2.1).
  AC* ac = MakeAC();
  // Something must have marked recording before the audio happens, since
  // the record update is gated (the paper's documented startup caveat).
  std::vector<uint8_t> warmup(80);
  ASSERT_TRUE(ac->RecordSamples(0, warmup, /*block=*/false).ok());

  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  std::vector<uint8_t> spoken(1600);
  for (size_t i = 0; i < spoken.size(); ++i) {
    spoken[i] = static_cast<uint8_t>(i % 199 + 17);
  }
  const ATime speak_at = now.value() + 400;
  runner_->RunOnLoop([&] { source_->PutAt(speak_at, spoken); });
  WaitUntil(speak_at + spoken.size() + 800);

  // Record from the past: the data is already in the server.
  std::vector<uint8_t> heard(spoken.size());
  auto rec = ac->RecordSamples(speak_at, heard, /*block=*/true);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().actual_bytes, spoken.size());
  EXPECT_EQ(heard, spoken);
}

TEST_F(IntegrationTest, RecordGainScalesWhatTheContextHears) {
  // A lin16 context on the mu-law CODEC recording at -6 dB hears the source
  // through the -6 dB mu-law gain table; changed back to 0 dB it hears the
  // source itself.
  ACAttributes attrs;
  attrs.record_gain_db = -6;
  attrs.encoding = AEncodeType::kLin16;
  attrs.big_endian_data = HostIsLittleEndian() ? 0 : 1;
  AC* ac = MakeAC(kACRecordGain | kACEncodingType | kACEndian, attrs);
  std::vector<uint8_t> warmup(160);
  ASSERT_TRUE(ac->RecordSamples(0, warmup, /*block=*/false).ok());

  std::vector<uint8_t> spoken(800);
  for (size_t i = 0; i < spoken.size(); ++i) {
    spoken[i] = static_cast<uint8_t>(i % 199 + 17);
  }
  // Speaks `spoken` into the recent past and records it back as lin16.
  std::vector<int16_t> heard(spoken.size());
  const auto speak_and_record = [&] {
    auto now = conn_->GetTime(0);
    ASSERT_TRUE(now.ok());
    const ATime speak_at = now.value() + 400;
    runner_->RunOnLoop([&] { source_->PutAt(speak_at, spoken); });
    WaitUntil(speak_at + spoken.size() + 800);
    auto rec = ac->RecordSamples(
        speak_at,
        std::span<uint8_t>(reinterpret_cast<uint8_t*>(heard.data()), heard.size() * 2),
        /*block=*/true);
    ASSERT_TRUE(rec.ok());
    ASSERT_EQ(rec.value().actual_bytes, spoken.size() * 2);
  };

  speak_and_record();
  ASSERT_FALSE(HasFatalFailure());
  const GainTable& minus6 = MulawGainTable(-6);
  for (size_t i = 0; i < spoken.size(); ++i) {
    ASSERT_EQ(heard[i], MulawToLinear16(minus6[spoken[i]])) << "sample " << i;
  }

  attrs.record_gain_db = 0;
  ac->ChangeAttributes(kACRecordGain, attrs);
  speak_and_record();
  ASSERT_FALSE(HasFatalFailure());
  for (size_t i = 0; i < spoken.size(); ++i) {
    ASSERT_EQ(heard[i], MulawToLinear16(spoken[i])) << "sample " << i;
  }
}

TEST_F(IntegrationTest, BlockingRecordPacesTheClient) {
  AC* ac = MakeAC();
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  // Ask for 4000 samples ending ~500 ms in the future; the call must not
  // return before that much real time has elapsed.
  const uint64_t start_us = HostMicros();
  std::vector<uint8_t> buf(4000);
  auto rec = ac->RecordSamples(now.value(), buf, /*block=*/true);
  ASSERT_TRUE(rec.ok());
  const uint64_t elapsed_us = HostMicros() - start_us;
  EXPECT_GE(elapsed_us, 400000u);  // ~500 ms minus scheduling slack
  EXPECT_EQ(rec.value().actual_bytes, 4000u);
}

TEST_F(IntegrationTest, NonBlockingRecordReturnsWhatExists) {
  AC* ac = MakeAC();
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  std::vector<uint8_t> buf(8000);
  auto rec = ac->RecordSamples(now.value() - 800, buf, /*block=*/false);
  ASSERT_TRUE(rec.ok());
  EXPECT_LT(rec.value().actual_bytes, buf.size());
  EXPECT_GE(rec.value().actual_bytes, 780u);  // about the 800 past samples
}

TEST_F(IntegrationTest, FarFuturePlayBlocksUntilItFits) {
  AC* ac = MakeAC();
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  const size_t window = conn_->devices()[0].play_buffer_samples;
  // Schedule just past the buffer end; the server suspends us briefly.
  const uint64_t start_us = HostMicros();
  std::vector<uint8_t> data(800, MulawFromLinear16(2500));
  const ATime when = now.value() + static_cast<ATime>(window) + 400;
  auto played = ac->PlaySamples(when, data);
  ASSERT_TRUE(played.ok());
  const uint64_t elapsed_us = HostMicros() - start_us;
  // We were blocked for a noticeable time (the paper: "the only case in
  // which AFPlaySamples will not immediately return").
  EXPECT_GE(elapsed_us, 20000u);
}

TEST_F(IntegrationTest, SilenceIsNotTransported) {
  // A client playing two bursts with a long gap sends no data for the gap,
  // yet the output is silence there.
  AC* ac = MakeAC();
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 800;
  std::vector<uint8_t> burst(400, MulawFromLinear16(5000));
  ASSERT_TRUE(ac->PlaySamples(start, burst).ok());
  ASSERT_TRUE(ac->PlaySamples(start + 2400, burst).ok());
  WaitUntil(start + 2800 + 1600);
  std::vector<uint8_t> gap;
  runner_->RunOnLoop([&] { gap = sink_->Segment(start + 500, 1800); });
  ASSERT_EQ(gap.size(), 1800u);
  for (uint8_t v : gap) {
    ASSERT_EQ(v, kMulawSilence);
  }
}

TEST_F(IntegrationTest, BigEndianClientData) {
  ACAttributes attrs;
  attrs.encoding = AEncodeType::kLin16;
  attrs.channels = 1;
  attrs.big_endian_data = 1;  // we will hand the server big-endian samples
  AC* ac = MakeAC(kACEncodingType | kACChannels | kACEndian, attrs);

  std::vector<uint8_t> big_endian(800);
  for (size_t i = 0; i < big_endian.size(); i += 2) {
    const int16_t v = 7000;
    big_endian[i] = static_cast<uint8_t>(v >> 8);
    big_endian[i + 1] = static_cast<uint8_t>(v & 0xFF);
  }
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 800;
  ASSERT_TRUE(ac->PlaySamples(start, big_endian).ok());
  WaitUntil(start + 400 + 1600);
  std::vector<uint8_t> heard;
  runner_->RunOnLoop([&] { heard = sink_->Segment(start, 400); });
  ASSERT_EQ(heard.size(), 400u);
  EXPECT_NEAR(MulawToLinear16(heard[100]), 7000, 200);
}

TEST_F(IntegrationTest, ChunkedPlayOfLargeBuffer) {
  // 24000 bytes = 3 chunks at the 8 KB default; one reply total.
  AC* ac = MakeAC();
  std::vector<uint8_t> large(24000);
  for (size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<uint8_t>((i * 31) % 250);
  }
  auto now = conn_->GetTime(0);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 800;
  auto played = ac->PlaySamples(start, large);
  ASSERT_TRUE(played.ok());
  WaitUntil(start + large.size() + 1600);
  std::vector<uint8_t> heard;
  runner_->RunOnLoop([&] { heard = sink_->Segment(start, large.size()); });
  EXPECT_EQ(heard, large);
}

TEST_F(IntegrationTest, LineServerDeviceThroughTheFullStack) {
  // The detached device behind the datagram protocol, driven by ordinary
  // protocol clients: device 1 of this server is a LineServer whose
  // "analog side" is a loopback wire.
  ServerRunner::Config config;
  config.with_codec = true;
  config.with_lineserver = true;
  auto ls_runner = ServerRunner::Start(config);
  ASSERT_NE(ls_runner, nullptr);
  auto wire = std::make_shared<LoopbackWire>(1 << 16, 1, kMulawSilence, 0);
  ls_runner->RunOnLoop([&] {
    ls_runner->lineserver()->firmware().SetSink(wire);
    ls_runner->lineserver()->firmware().SetSource(wire);
  });
  auto conn = ls_runner->ConnectInProcess().take();

  ASSERT_EQ(conn->devices().size(), 2u);
  const DeviceId ls = 1;
  EXPECT_EQ(conn->devices()[ls].type, DevType::kLineServer);

  auto ac_result = conn->CreateAC(ls, 0, ACAttributes{});
  ASSERT_TRUE(ac_result.ok());
  AC* ac = ac_result.value();

  std::vector<uint8_t> pattern(1200);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i % 200 + 30);
  }
  auto now = conn->GetTime(ls);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 1600;  // 200 ms out
  ASSERT_TRUE(ac->PlaySamples(start, pattern).ok());

  // Record the looped-back audio through the same protocol path.
  std::vector<uint8_t> heard(pattern.size());
  auto rec = ac->RecordSamples(start, heard, /*block=*/true);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(heard, pattern);

  // Device control crosses the datagram protocol too.
  conn->SetOutputGain(ls, 6);
  conn->Sync();
  ls_runner->RunOnLoop([&] {
    EXPECT_EQ(ls_runner->lineserver()->firmware().Register(LsCodecReg::kOutputGain), 6u);
  });
}

TEST_F(IntegrationTest, MonoHiFiViewsThroughTheFullStack) {
  ServerRunner::Config config;
  config.with_codec = false;
  config.with_hifi = true;
  auto hifi_runner = ServerRunner::Start(config);
  ASSERT_NE(hifi_runner, nullptr);
  auto sink = std::make_shared<CaptureSink>(64u << 20);
  hifi_runner->RunOnLoop([&] { hifi_runner->hifi()->sim().SetSink(sink); });
  auto conn = hifi_runner->ConnectInProcess().take();

  // Devices: 0 stereo, 1 left, 2 right.
  ASSERT_EQ(conn->devices().size(), 3u);
  EXPECT_EQ(conn->devices()[0].play_nchannels, 2u);
  EXPECT_EQ(conn->devices()[1].play_nchannels, 1u);

  ACAttributes attrs;
  attrs.encoding = AEncodeType::kLin16;
  attrs.channels = 1;
  auto left_ac = conn->CreateAC(1, kACEncodingType | kACChannels, attrs);
  ASSERT_TRUE(left_ac.ok());
  auto right_ac = conn->CreateAC(2, kACEncodingType | kACChannels, attrs);
  ASSERT_TRUE(right_ac.ok());

  std::vector<int16_t> ltone(4800, 1234);   // 100 ms at 48 kHz
  std::vector<int16_t> rtone(4800, -4321);
  auto now = conn->GetTime(0);
  ASSERT_TRUE(now.ok());
  const ATime start = now.value() + 9600;
  ASSERT_TRUE(left_ac.value()
                  ->PlaySamples(start, std::span<const uint8_t>(
                                           reinterpret_cast<const uint8_t*>(ltone.data()),
                                           ltone.size() * 2))
                  .ok());
  ASSERT_TRUE(right_ac.value()
                  ->PlaySamples(start, std::span<const uint8_t>(
                                           reinterpret_cast<const uint8_t*>(rtone.data()),
                                           rtone.size() * 2))
                  .ok());

  for (;;) {
    auto t = conn->GetTime(0);
    ASSERT_TRUE(t.ok());
    if (TimeAtOrAfter(t.value(), start + 4800 + 9600)) {
      break;
    }
    SleepMicros(20000);
  }
  std::vector<uint8_t> raw;
  hifi_runner->RunOnLoop([&] { raw = sink->Segment(start + 100, 100 * 4, 4); });
  ASSERT_EQ(raw.size(), 400u);
  const auto* frames = reinterpret_cast<const int16_t*>(raw.data());
  EXPECT_EQ(frames[0], 1234);   // left channel
  EXPECT_EQ(frames[1], -4321);  // right channel
}

TEST_F(IntegrationTest, TcpTransportWorksToo) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.tcp_port = 17917;
  auto tcp_runner = ServerRunner::Start(config);
  ASSERT_NE(tcp_runner, nullptr);
  SleepMicros(50000);  // listener up
  // Server name "host:n" maps to TCP port kAudioFileBasePort + n.
  auto conn =
      AFAudioConn::Open("127.0.0.1:" + std::to_string(17917 - kAudioFileBasePort));
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto t = conn.value()->GetTime(0);
  ASSERT_TRUE(t.ok());
}

TEST_F(IntegrationTest, UnixTransportWorksToo) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.unix_path = "/tmp/.AF-unix/AF55";
  auto unix_runner = ServerRunner::Start(config);
  ASSERT_NE(unix_runner, nullptr);
  SleepMicros(50000);
  auto conn = AFAudioConn::Open(":55");
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  auto t = conn.value()->GetTime(0);
  ASSERT_TRUE(t.ok());
}

}  // namespace
}  // namespace af
