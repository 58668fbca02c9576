// Heavier scenarios: the LineServer protocol over real UDP sockets with
// the firmware on its own thread (as a detached peripheral would be), and
// a many-client mixing stress run against one server.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "devices/lineserver_device.h"
#include "dsp/g711.h"

namespace af {
namespace {

TEST(LineServerUdpTest, PlayRecordOverRealSockets) {
  auto channels = UdpChannel::CreatePair();
  ASSERT_TRUE(channels.ok());
  auto& [host_end, device_end] = channels.value();

  auto clock = std::make_shared<SystemSampleClock>(8000);
  LineServerFirmware firmware(std::move(device_end), clock);
  auto wire = std::make_shared<LoopbackWire>(1 << 15, 1, kMulawSilence, 0);
  firmware.SetSink(wire);
  firmware.SetSource(wire);

  // The peripheral's "network thread": poll the socket continuously.
  std::atomic<bool> stop{false};
  std::thread peripheral([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      firmware.ProcessPending();
      SleepMicros(500);
    }
  });

  LineServerHw::Config config;
  config.refresh_interval_us = 0;
  LineServerHw hw(std::move(host_end), config);
  // Real network: "pump" just gives the peripheral thread a moment.
  hw.SetPump([] { SleepMicros(2000); });

  // Register write survives the real socket round trip.
  hw.SetOutputGainDb(9);
  EXPECT_EQ(firmware.Register(LsCodecReg::kOutputGain), 9u);

  // Time estimates come from real reply packets.
  const uint32_t t0 = hw.ReadCounter();
  SleepMicros(100000);
  const uint32_t t1 = hw.ReadCounter();
  EXPECT_GT(t1, t0);
  EXPECT_NEAR(static_cast<int>(t1 - t0), 800, 300);  // ~100 ms at 8 kHz

  // Play, loop back through the wire, and record over UDP. Device time is
  // real, so the play is anchored on a fresh counter read, and both ends
  // stay inside the firmware's rings: the lead plus the pattern fits the
  // play ring, and the readback starts as soon as the CODEC interrupt has
  // consumed the window, long before the record ring laps it.
  constexpr ATime kLead = 1024;  // 128 ms for the write to reach the firmware
  std::vector<uint8_t> pattern(600, 0x2C);
  static_assert(kLead + 600 <= LineServerFirmware::kRingFrames);
  const ATime when = hw.ReadCounter() + kLead;
  hw.WritePlay(when, pattern);
  const ATime end = when + static_cast<ATime>(pattern.size());
  const uint64_t deadline_us = HostMicros() + 10000000;
  while (TimeBefore(hw.ReadCounter(), end) && HostMicros() < deadline_us) {
    SleepMicros(1000);
  }

  // A readback request gets one reply and no retry (Section 7.4.3), so a
  // peripheral thread that misses the pump's 2 ms window loses it. The
  // record ring still holds the window for ~180 ms more: ask again.
  std::vector<uint8_t> heard(600);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const uint64_t losses = hw.record_losses();
    hw.ReadRecord(when, heard);
    if (hw.record_losses() == losses) {
      break;
    }
  }
  EXPECT_EQ(heard, pattern) << "record losses " << hw.record_losses();

  stop.store(true);
  peripheral.join();
}

TEST(StressTest, EightClientsMixConcurrently) {
  ServerRunner::Config config;
  config.with_codec = true;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);
  auto sink = std::make_shared<CaptureSink>();
  runner->RunOnLoop([&] { runner->codec()->sim().SetSink(sink); });

  // One probe client establishes the shared schedule.
  auto probe = runner->ConnectInProcess().take();
  const ATime start = probe->GetTime(0).value() + 8000;  // one second out

  constexpr int kClients = 8;
  const uint8_t quiet = MulawFromLinear16(1500);  // 8 x 1500 = 12000, no clip
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn_result = runner->ConnectInProcess();
      if (!conn_result.ok()) {
        ++failures;
        return;
      }
      auto conn = conn_result.take();
      conn->SetErrorHandler([&](AFAudioConn&, const ErrorPacket&) { ++failures; });
      conn->SetIOErrorHandler([&](AFAudioConn&) { ++failures; });
      auto ac = conn->CreateAC(0, 0, ACAttributes{});
      if (!ac.ok()) {
        ++failures;
        return;
      }
      // Each client streams two seconds in 0.25 s blocks, plus sprinkles
      // of control traffic.
      std::vector<uint8_t> block(2000, quiet);
      ATime t = start;
      for (int b = 0; b < 8; ++b) {
        if (!ac.value()->PlaySamples(t, block).ok()) {
          ++failures;
          return;
        }
        t += 2000;
        if (b % 3 == c % 3) {
          conn->NoOp();
          if (!conn->GetTime(0).ok()) {
            ++failures;
          }
        }
      }
      conn->Sync();
    });
  }
  for (auto& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Wait for the mixed stream to play out, then verify the sum: eight
  // equal tones mix to eight times the amplitude.
  for (;;) {
    auto t = probe->GetTime(0);
    ASSERT_TRUE(t.ok());
    if (TimeAtOrAfter(t.value(), start + 16000 + 1600)) {
      break;
    }
    SleepMicros(50000);
  }
  std::vector<uint8_t> heard;
  runner->RunOnLoop([&] { heard = sink->Segment(start + 4000, 2000); });
  ASSERT_EQ(heard.size(), 2000u);
  EXPECT_NEAR(MulawToLinear16(heard[1000]), 8 * 1504, 600);
}

TEST(StressTest, ManyShortLivedConnections) {
  ServerRunner::Config config;
  config.with_codec = true;
  config.realtime = false;
  auto runner = ServerRunner::Start(config);
  ASSERT_NE(runner, nullptr);
  for (int i = 0; i < 100; ++i) {
    auto conn = runner->ConnectInProcess();
    ASSERT_TRUE(conn.ok()) << "connection " << i;
    auto t = conn.value()->GetTime(0);
    ASSERT_TRUE(t.ok());
    auto ac = conn.value()->CreateAC(0, 0, ACAttributes{});
    ASSERT_TRUE(ac.ok());
    // Half the connections leave without freeing their AC: the server
    // must clean up on disconnect.
    if (i % 2 == 0) {
      conn.value()->FreeAC(ac.value());
      conn.value()->Flush();
    }
  }
  // Disconnect cleanup is event-driven; give the loop a few turns.
  for (int i = 0; i < 100; ++i) {
    size_t count = 1;
    runner->RunOnLoop([&] { count = runner->server().client_count(); });
    if (count == 0) {
      break;
    }
    SleepMicros(10000);
  }
  runner->RunOnLoop([&] { EXPECT_EQ(runner->server().client_count(), 0u); });
}

}  // namespace
}  // namespace af
