// Micro-benchmarks for the DSP substrate: the per-sample operations whose
// cost dominated the 1993 server (Section 7.4.1 "Performance
// Considerations"): G.711 conversion, table mixing, gain tables, tone
// synthesis, Goertzel filtering, and the FFT.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/mix_functional.h"
#include "dsp/dtmf.h"
#include "dsp/fft.h"
#include "dsp/g711.h"
#include "dsp/gain.h"
#include "dsp/goertzel.h"
#include "dsp/mix.h"
#include "dsp/power.h"
#include "dsp/tones.h"

namespace af {
namespace {

std::vector<uint8_t> MakeMulawTone(size_t n) {
  std::vector<uint8_t> tone(n);
  TonePair({440, -10}, {1000, -13}, 8000, 16, tone);
  return tone;
}

void BM_MulawDecodeBlock(benchmark::State& state) {
  const auto in = MakeMulawTone(static_cast<size_t>(state.range(0)));
  std::vector<int16_t> out(in.size());
  for (auto _ : state) {
    DecodeMulawBlock(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(in.size()));
}
BENCHMARK(BM_MulawDecodeBlock)->Arg(1024)->Arg(8192);

void BM_MulawEncodeBlock(benchmark::State& state) {
  std::vector<int16_t> in(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<int16_t>((i * 997) % 32768 - 16384);
  }
  std::vector<uint8_t> out(in.size());
  for (auto _ : state) {
    EncodeMulawBlock(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(in.size()));
}
BENCHMARK(BM_MulawEncodeBlock)->Arg(1024)->Arg(8192);

void BM_MixMulawTable(benchmark::State& state) {
  auto a = MakeMulawTone(static_cast<size_t>(state.range(0)));
  const auto b = MakeMulawTone(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    MixMulawBlock(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_MixMulawTable)->Arg(1024)->Arg(8192);

void BM_MixMulawFunctional(benchmark::State& state) {
  // The non-table path: decode-add-encode per sample, for comparison with
  // the paper's 64K AF_mix_u table.
  auto a = MakeMulawTone(static_cast<size_t>(state.range(0)));
  const auto b = MakeMulawTone(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    bench::MixMulawBlockFunctional(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_MixMulawFunctional)->Arg(1024)->Arg(8192);

void BM_MixLin16(benchmark::State& state) {
  std::vector<int16_t> a(static_cast<size_t>(state.range(0)), 1234);
  const std::vector<int16_t> b(a.size(), -567);
  for (auto _ : state) {
    MixLin16Block(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(a.size() * 2));
}
BENCHMARK(BM_MixLin16)->Arg(2048)->Arg(16384);

void BM_GainTableApply(benchmark::State& state) {
  auto samples = MakeMulawTone(8192);
  for (auto _ : state) {
    ApplyMulawGain(-6, samples);
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_GainTableApply);

void BM_GainFunctionalApply(benchmark::State& state) {
  // The pre-table form: per-sample decode-scale-saturate-reencode, kept as
  // the correctness oracle for the 256-entry gain translation tables.
  auto samples = MakeMulawTone(8192);
  for (auto _ : state) {
    for (uint8_t& s : samples) {
      s = MulawGainFunctional(-6, s);
    }
    benchmark::DoNotOptimize(samples.data());
  }
  state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_GainFunctionalApply);

void BM_MakeGainTable(benchmark::State& state) {
  for (auto _ : state) {
    GainTable table = MakeMulawGainTable(-7.5);
    benchmark::DoNotOptimize(table.data());
  }
}
BENCHMARK(BM_MakeGainTable);

void BM_TonePair(benchmark::State& state) {
  std::vector<uint8_t> out(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TonePair({697, -4}, {1209, -2}, 8000, 16, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_TonePair)->Arg(400)->Arg(8000);

void BM_DtmfDetect(benchmark::State& state) {
  const auto audio = SynthesizeDialString("18005551212", 8000);
  for (auto _ : state) {
    DtmfDetector detector(8000);
    detector.FeedMulaw(audio);
    benchmark::DoNotOptimize(detector.Digits().data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(audio.size()));
}
BENCHMARK(BM_DtmfDetect);

void BM_BlockPower(benchmark::State& state) {
  const auto audio = MakeMulawTone(1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MulawBlockPowerDbm(audio));
  }
  state.SetBytesProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BlockPower);

void BM_Fft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> block(n);
  SingleTone(1000, 0.5, 8000, 0.0, block);
  for (auto _ : state) {
    auto mags = RealMagnitudeSpectrum(block);
    benchmark::DoNotOptimize(mags.data());
  }
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(256)->Arg(512);

}  // namespace
}  // namespace af

// Accepts the suite-wide --json flag by translating it to Google
// Benchmark's JSON reporter, so all three hot-path benchmarks share one
// machine-readable interface.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      out_flag = "--benchmark_out=" + a.substr(7);
    } else if (a == "--json" && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
