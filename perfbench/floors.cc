#include "floors.h"

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "devices/codec_device.h"
#include "dsp/g711.h"
#include "dsp/gain.h"
#include "dsp/mix.h"
#include "process.h"
#include "proto/requests.h"
#include "transport/stream.h"

namespace af::perfbench {

namespace {

constexpr int kBatches = 31;
constexpr size_t kStep = 256;  // device-time step when bringing a clock forward

// Median over kBatches of the per-call time of fn, in ns, after one
// untimed batch.
template <typename Fn>
double PerCallNs(size_t calls_per_batch, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = -1; b < kBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < calls_per_batch; ++i) {
      fn(i);
    }
    if (b >= 0) {
      per_call.push_back(static_cast<double>(NowNs() - t0) / calls_per_batch);
    }
  }
  return Median(std::move(per_call));
}

// One request of the op, framed as the client library frames it.
void EncodeRequest(const Shape& shape, std::span<const uint8_t> block, WireWriter& w) {
  const size_t header = BeginRequest(w, shape.opcode);
  if (shape.kind == Kind::kRecordBulk) {
    RecordSamplesReq req;
    req.ac = 1;
    req.start_time = 1024;
    req.nbytes = static_cast<uint32_t>(shape.BlockBytes());
    req.flags = kRecordNoBlock;
    req.Encode(w);
  } else {
    PlaySamplesReq req;
    req.ac = 1;
    req.start_time = 1024;
    req.nbytes = static_cast<uint32_t>(block.size());
    req.data = block;
    req.Encode(w);
  }
  EndRequest(w, header);
}

// One reply of the op, as the server sends it.
std::vector<uint8_t> EncodeReply(const Shape& shape) {
  WireWriter w;
  if (shape.kind == Kind::kRecordBulk) {
    const std::vector<uint8_t> data(shape.BlockBytes(), 0x5a);
    RecordSamplesReply::EncodeTo(w, 1, 32000, data);
  } else {
    PlaySamplesReply reply;
    reply.time = 8000;
    reply.Encode(w, 1);
  }
  return w.Take();
}

// Client-observed round trips of one op over a bare socketpair with an
// echo thread answering each request with a reply of the op's size.
double PingPongUs(size_t request_bytes, size_t reply_bytes, size_t round_trips) {
  auto pair = CreateStreamPair();
  if (!pair.ok()) {
    return 0;
  }
  FdStream& client = pair.value().first;
  FdStream& server = pair.value().second;
  std::thread echo([&server, request_bytes, reply_bytes] {
    std::vector<uint8_t> in(request_bytes);
    const std::vector<uint8_t> out(reply_bytes, 0x5a);
    while (server.ReadAll(in.data(), in.size()).ok() &&
           server.WriteAll(out.data(), out.size()).ok()) {
    }
  });
  const std::vector<uint8_t> request(request_bytes, 0xa5);
  std::vector<uint8_t> reply(reply_bytes);
  std::vector<uint64_t> samples;
  constexpr int kOps = 4000;
  for (int i = 0; i < kOps + 200; ++i) {
    const uint64_t t0 = NowNs();
    bool ok = true;
    for (size_t r = 0; r < round_trips && ok; ++r) {
      ok = client.WriteAll(request.data(), request.size()).ok() &&
           client.ReadAll(reply.data(), reply.size()).ok();
    }
    if (!ok) {
      break;
    }
    if (i >= 200) {
      samples.push_back(NowNs() - t0);
    }
  }
  client.Shutdown();  // the echo thread reads EOF and returns
  echo.join();
  return Percentile(samples, 0.5) / 1000.0;
}

// One op's bytes through a socketpair and back out, on one thread: the
// syscall and copy cost without any wake-up.
double CopyNs(size_t request_bytes, size_t reply_bytes, size_t round_trips) {
  auto pair = CreateStreamPair();
  if (!pair.ok()) {
    return 0;
  }
  FdStream& a = pair.value().first;
  FdStream& b = pair.value().second;
  std::vector<uint8_t> request(request_bytes, 0xa5);
  std::vector<uint8_t> reply(reply_bytes, 0x5a);
  return PerCallNs(256, [&](size_t) {
    for (size_t r = 0; r < round_trips; ++r) {
      (void)a.WriteAll(request.data(), request.size());
      (void)b.ReadAll(request.data(), request.size());
      (void)b.WriteAll(reply.data(), reply.size());
      (void)a.ReadAll(reply.data(), reply.size());
    }
  });
}

// A CODEC device of its own on a manual clock, outside any server.
struct PrivateCodec {
  std::shared_ptr<ManualSampleClock> clock = std::make_shared<ManualSampleClock>(8000);
  std::unique_ptr<CodecDevice> dev = CodecDevice::Create(clock);

  PrivateCodec() { dev->Update(); }

  std::unique_ptr<ServerAC> MakeAC(AEncodeType encoding, int play_gain_db) {
    auto ac = std::make_unique<ServerAC>();
    ac->id = 1;
    ac->device = dev.get();
    ac->attrs.encoding = encoding;
    ac->attrs.play_gain_db = play_gain_db;
    if (!dev->MakeACOps(ac->attrs, &ac->ops).ok()) {
      return nullptr;
    }
    return ac;
  }

  void AdvanceTo(uint64_t frames) {
    while (clock->Now() < frames) {
      clock->Advance(kStep);
      dev->Update();
    }
  }
};

void DeviceFloors(const Shape& shape, std::mt19937_64& rng, Floors* out) {
  PrivateCodec codec;
  std::uniform_int_distribution<uint32_t> offset(0, 8000 - static_cast<uint32_t>(shape.block_frames));
  std::vector<std::vector<uint8_t>> blocks;
  std::vector<ATime> offsets;  // drawn up front: the timed loops only call the device
  for (int i = 0; i < 256; ++i) {
    offsets.push_back(offset(rng));
  }
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(MakeBlock(shape, rng));
  }
  PlayOutcome played;

  if (shape.kind == Kind::kPlaySmall) {
    // Frozen clock, plays scattered over the next second: the workload's
    // device-side work exactly.
    auto ac = codec.MakeAC(shape.encoding, shape.gain_db);
    codec.AdvanceTo(8000);
    const ATime now = static_cast<ATime>(codec.clock->Now());
    out->devices_play_ns = PerCallNs(256, [&](size_t i) {
      (void)codec.dev->Play(*ac, now + offsets[i % offsets.size()], blocks[i % blocks.size()],
                            false, &played);
    });
    std::vector<uint64_t> updates;
    for (int i = 0; i < 2000; ++i) {
      const ATime t = static_cast<ATime>(codec.clock->Now());
      (void)codec.dev->Play(*ac, t + offset(rng), blocks[i % blocks.size()], false, &played);
      codec.clock->Advance(shape.block_frames);
      const uint64_t t0 = NowNs();
      codec.dev->Update();
      updates.push_back(NowNs() - t0);
    }
    out->devices_update_ns = Percentile(updates, 0.5);
  } else if (shape.kind == Kind::kBridgeXshard) {
    // A conference round: every party mixes one block at the lead with its
    // own gain (fused gain+mix), then one block of time and one update.
    std::vector<std::unique_ptr<ServerAC>> acs;
    for (int p = 0; p < shape.parties; ++p) {
      acs.push_back(codec.MakeAC(shape.encoding, p == 0 ? shape.gain_db : shape.muted_gain_db));
    }
    codec.AdvanceTo(8000);
    std::vector<uint64_t> plays;
    std::vector<uint64_t> updates;
    for (int round = 0; round < 2000; ++round) {
      const ATime at = static_cast<ATime>(codec.clock->Now()) + 2000;
      const uint64_t t0 = NowNs();
      for (size_t p = 0; p < acs.size(); ++p) {
        (void)codec.dev->Play(*acs[p], at, blocks[(round + p) % blocks.size()], false, &played);
      }
      const uint64_t t1 = NowNs();
      codec.clock->Advance(shape.block_frames);
      codec.dev->Update();
      const uint64_t t2 = NowNs();
      plays.push_back((t1 - t0) / acs.size());
      updates.push_back(t2 - t1);
    }
    out->devices_play_ns = Percentile(plays, 0.5);
    out->devices_update_ns = Percentile(updates, 0.5);
  } else {
    // Recorded history with the device input gain, read back in 8 KiB
    // lin16 chunks, as record-bulk does.
    auto source = std::make_shared<BufferSource>(size_t{1} << 16, 1, kMulawSilence);
    std::vector<uint8_t> pattern(32000);
    for (uint8_t& b : pattern) {
      b = static_cast<uint8_t>(rng());
    }
    source->PutAt(0, pattern);
    codec.dev->sim().SetSource(source);
    (void)codec.dev->SetInputGain(shape.gain_db);
    auto ac = codec.MakeAC(shape.encoding, 0);
    std::span<const uint8_t> data;
    RecordOutcome recorded;
    (void)codec.dev->Record(*ac, 0, shape.BlockBytes(), false, true, &data, &recorded);
    codec.AdvanceTo(32000);
    // Chunk starts spread over the history, as the workload's are.
    std::uniform_int_distribution<uint32_t> start(
        1024, 32000 - static_cast<uint32_t>(shape.block_frames));
    for (ATime& t : offsets) {
      t = start(rng);
    }
    out->devices_record_ns = PerCallNs(64, [&](size_t i) {
      (void)codec.dev->Record(*ac, offsets[i % offsets.size()], shape.BlockBytes(), false, true,
                              &data, &recorded);
    });
    std::vector<uint64_t> updates;
    for (int i = 0; i < 2000; ++i) {
      codec.clock->Advance(kStep);
      const uint64_t t0 = NowNs();
      codec.dev->Update();
      updates.push_back(NowNs() - t0);
    }
    out->devices_update_ns = Percentile(updates, 0.5);
  }
}

void DspFloors(const Shape& shape, std::mt19937_64& rng, Floors* out) {
  const size_t n = shape.block_frames;
  const std::vector<int16_t> lin = MakeNoise(rng, n);
  std::vector<uint8_t> mu(n);
  EncodeMulawBlock(lin, mu);
  std::vector<int16_t> decoded(n);
  std::vector<uint8_t> mixed(mu);
  const GainTable& gain = MulawGainTable(shape.gain_db);
  const size_t calls = std::max<size_t>(16, 65536 / n);
  out->dsp_encode_ns = PerCallNs(calls, [&](size_t) { EncodeMulawBlock(lin, mu); });
  out->dsp_decode_ns = PerCallNs(calls, [&](size_t) { DecodeMulawBlock(mu, decoded); });
  out->dsp_mix_gain_ns = PerCallNs(calls, [&](size_t) { MixMulawGainBlock(mixed, mu, gain); });
}

}  // namespace

Floors RunFloors(const Shape& shape, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  Floors f;
  const std::vector<uint8_t> block = MakeBlock(shape, rng);
  WireWriter w;
  EncodeRequest(shape, block, w);
  const size_t request_bytes = w.size();
  const std::vector<uint8_t> reply = EncodeReply(shape);
  const size_t round_trips = shape.RequestsPerOp();

  f.proto_encode_ns = PerCallNs(1024, [&](size_t) {
    w.Reset(size_t{1} << 16);
    for (size_t r = 0; r < round_trips; ++r) {
      EncodeRequest(shape, block, w);
    }
  });
  if (shape.kind == Kind::kRecordBulk) {
    RecordSamplesReply decoded;
    f.proto_decode_ns = PerCallNs(256, [&](size_t) {
      for (size_t r = 0; r < round_trips; ++r) {
        (void)RecordSamplesReply::Decode(reply, HostWireOrder(), &decoded);
      }
    });
  } else {
    PlaySamplesReply decoded;
    f.proto_decode_ns = PerCallNs(1024, [&](size_t) {
      (void)PlaySamplesReply::Decode(reply, HostWireOrder(), &decoded);
    });
  }

  f.transport_pingpong_us = PingPongUs(request_bytes, reply.size(), round_trips);
  f.transport_copy_ns = CopyNs(request_bytes, reply.size(), round_trips);
  DeviceFloors(shape, rng, &f);
  DspFloors(shape, rng, &f);
  return f;
}

}  // namespace af::perfbench
