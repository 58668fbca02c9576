// Ablations of the design choices DESIGN.md calls out.
//
// A: lazy silence fill. "Our first implementation [filled] the play buffer
//    with silence immediately after the play data was sent to the device
//    ... it doubles the memory bandwidth requirements to the play buffer.
//    The solution is to fill silence only when absolutely necessary [via]
//    timeLastValid." (CRL 93/8 Section 7.4.1)
// B: client chunk size. The library chunks play/record at 8K bytes; this
//    sweep shows why: smaller chunks pay per-request overhead, larger ones
//    monopolize the server (Section 5.7).
//
// Ablation A runs at the device level against a manual clock so the only
// variable is the buffering algorithm; B runs through the full client/
// server path.
#include "bench/harness.h"
#include "bench/mix_functional.h"
#include "devices/codec_device.h"
#include "devices/hifi_device.h"
#include "dsp/g711.h"
#include "dsp/mix.h"

using namespace af;
using namespace af::bench;

namespace {

// Streams `seconds` of continuous audio through a buffered device with the
// given silence-fill policy; returns wall microseconds consumed.
template <typename MakeDevice>
double StreamSeconds(MakeDevice make, unsigned rate, size_t frame_bytes, double seconds,
                     bool lazy) {
  auto clock = std::make_shared<ManualSampleClock>(rate);
  auto dev = make(clock);
  dev->SetLazySilenceFill(lazy);
  dev->Update();

  ServerAC ac;
  ac.device = dev.get();
  ac.attrs.encoding = dev->desc().play_encoding;
  ac.attrs.channels = dev->desc().play_nchannels;
  if (!dev->MakeACOps(ac.attrs, &ac.ops).ok()) {
    std::exit(1);
  }

  const size_t block_frames = rate / 10;  // 100 ms blocks
  std::vector<uint8_t> block(block_frames * frame_bytes, 0x40);
  const uint64_t total_frames = static_cast<uint64_t>(seconds * rate);

  const uint64_t start = HostMicros();
  ATime t = 2048;
  uint64_t streamed = 0;
  while (streamed < total_frames) {
    PlayOutcome outcome;
    if (!dev->Play(ac, t, block, false, &outcome).ok()) {
      std::exit(1);
    }
    t += static_cast<ATime>(block_frames);
    streamed += block_frames;
    // Advance the "hardware" by the same amount, in update-period steps.
    uint64_t advanced = 0;
    while (advanced < block_frames) {
      const uint64_t step = std::min<uint64_t>(512, block_frames - advanced);
      clock->Advance(step);
      dev->Update();
      advanced += step;
    }
  }
  return static_cast<double>(HostMicros() - start);
}

}  // namespace

int main() {
  std::printf("Ablation A: lazy vs eager silence fill (device-level, manual clock)\n");
  PrintHeader("", {"device", "policy", "us per audio-sec"});
  {
    const double seconds = 60.0;
    for (const bool lazy : {true, false}) {
      const double us = StreamSeconds(
          [](std::shared_ptr<SampleClock> c) { return CodecDevice::Create(std::move(c)); },
          8000, 1, seconds, lazy);
      PrintCell("codec 8k");
      PrintCell(lazy ? "lazy" : "eager");
      PrintCell(us / seconds, "%.0f");
      EndRow();
    }
    for (const bool lazy : {true, false}) {
      const double us = StreamSeconds(
          [](std::shared_ptr<SampleClock> c) { return HiFiDevice::Create(std::move(c)); },
          48000, 4, seconds / 4, lazy);
      PrintCell("hifi 48k stereo");
      PrintCell(lazy ? "lazy" : "eager");
      PrintCell(us / (seconds / 4), "%.0f");
      EndRow();
    }
  }
  std::printf("\npaper: eager fill 'doubles the memory bandwidth requirements to the\n"
              "play buffer'; lazy should win, most visibly on the HiFi device.\n\n");

  std::printf("Ablation B: client chunk size vs play throughput (inproc)\n");
  PrintHeader("", {"chunk bytes", "MB/s"});
  {
    auto env = MakeEnv("inproc", 17860);
    if (env == nullptr) {
      return 1;
    }
    AFAudioConn& conn = *env->conn;
    ACAttributes attrs;
    attrs.preempt = 1;
    auto ac = conn.CreateAC(0, kACPreemption, attrs).value();
    std::vector<uint8_t> data(16384, 0x40);
    for (const size_t chunk : {512u, 1024u, 2048u, 4096u, 8192u, 16384u, 32768u}) {
      ac->set_chunk_bytes(chunk);
      const int iters = 300;
      double total_us = 0;
      int measured = 0;
      while (measured < iters) {
        const ATime anchor = conn.GetTime(0).value() + 8000;
        const uint64_t start = HostMicros();
        for (int i = 0; i < 50; ++i) {
          if (!ac->PlaySamples(anchor, data).ok()) {
            return 1;
          }
        }
        total_us += static_cast<double>(HostMicros() - start);
        measured += 50;
      }
      PrintCell(std::to_string(chunk));
      PrintCell(data.size() / (total_us / measured), "%.1f");
      EndRow();
    }
    conn.FreeAC(ac);
    conn.Flush();
  }
  std::printf("\nexpect throughput to rise toward the 8K-16K region and flatten: the\n"
              "paper chose 8K as the fairness/throughput compromise.\n\n");

  std::printf("Ablation C: companded mix, 64K table vs decode-add-encode\n");
  PrintHeader("", {"encoding", "form", "ns per sample"});
  {
    std::vector<uint8_t> dst(8192);
    std::vector<uint8_t> src(8192);
    for (size_t i = 0; i < dst.size(); ++i) {
      dst[i] = static_cast<uint8_t>(i * 37 + 11);
      src[i] = static_cast<uint8_t>(i * 101 + 5);
    }
    MulawMixTable();  // build outside the timed region
    AlawMixTable();
    struct Form {
      const char* encoding;
      const char* name;
      void (*mix)(std::span<uint8_t>, std::span<const uint8_t>);
    };
    const Form forms[] = {
        {"mulaw", "table", &MixMulawBlock},
        {"mulaw", "functional", &MixMulawBlockFunctional},
        {"alaw", "table", &MixAlawBlock},
        {"alaw", "functional", &MixAlawBlockFunctional},
    };
    for (const Form& f : forms) {
      const int iters = 2000;
      const uint64_t start = HostMicros();
      for (int i = 0; i < iters; ++i) {
        f.mix(dst, src);
      }
      const double ns_per_sample =
          (HostMicros() - start) * 1000.0 / (static_cast<double>(iters) * dst.size());
      PrintCell(f.encoding);
      PrintCell(f.name);
      PrintCell(ns_per_sample, "%.2f");
      EndRow();
    }
  }
  std::printf("\npaper: AF_mix_u trades 64K of table for the per-sample decode-add-\n"
              "encode chain; the table form should win by several x.\n");
  return 0;
}
