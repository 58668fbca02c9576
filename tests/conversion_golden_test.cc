// Golden equivalence for the zero-allocation conversion pipeline.
//
// The arena-based conversion modules replaced allocate-per-call versions;
// this suite keeps the old shape alive as reference oracles (straight
// per-sample functional decode/encode into fresh vectors) and checks the
// new pipeline against them for every client-encoding x device-encoding x
// byte-order x window combination, checks the cached gain tables against
// the functional gain form, and proves the steady-state play/record path
// and the flush of a connection that never catches up perform zero heap
// allocations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "common/endian.h"
#include "common/trace.h"
#include "devices/codec_device.h"
#include "dsp/adpcm.h"
#include "dsp/g711.h"
#include "dsp/gain.h"
#include "server/audio_device.h"
#include "server/client_conn.h"

// --- allocation counting hook ----------------------------------------------
//
// Replaces global operator new/delete with malloc-backed versions that
// count while armed. Only the plain (unaligned) forms are replaced; the
// server never over-aligns, and the aligned forms keep pairing with the
// default implementation.

namespace {
volatile size_t g_alloc_count = 0;
volatile bool g_alloc_armed = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_armed) {
    g_alloc_count = g_alloc_count + 1;
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_alloc_armed) {
    g_alloc_count = g_alloc_count + 1;
  }
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace af {
namespace {

// --- reference oracles ------------------------------------------------------
//
// The pre-arena implementations: allocate a fresh vector per call, decode
// and encode one sample at a time with the functional (non-table) forms.

int16_t RefDecodeSample(AEncodeType enc, uint8_t b) {
  return enc == AEncodeType::kMu255 ? MulawToLinear16(b) : AlawToLinear16(b);
}

uint8_t RefEncodeSample(AEncodeType enc, int16_t s) {
  return enc == AEncodeType::kMu255 ? MulawFromLinear16(s) : AlawFromLinear16(s);
}

bool HostBig() { return !HostIsLittleEndian(); }

// Client/device lin16 byte stream -> host int16 samples.
std::vector<int16_t> RefLin16FromBytes(std::span<const uint8_t> bytes, bool big) {
  std::vector<int16_t> out(bytes.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t lo = big ? bytes[2 * i + 1] : bytes[2 * i];
    const uint8_t hi = big ? bytes[2 * i] : bytes[2 * i + 1];
    out[i] = static_cast<int16_t>(static_cast<uint16_t>(lo) |
                                  (static_cast<uint16_t>(hi) << 8));
  }
  return out;
}

std::vector<uint8_t> RefLin16ToBytes(std::span<const int16_t> samples, bool big) {
  std::vector<uint8_t> out(samples.size() * 2);
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto u = static_cast<uint16_t>(samples[i]);
    out[2 * i] = static_cast<uint8_t>(big ? u >> 8 : u & 0xFF);
    out[2 * i + 1] = static_cast<uint8_t>(big ? u & 0xFF : u >> 8);
  }
  return out;
}

// Client bytes -> host int16 samples, whole request.
std::vector<int16_t> RefDecodeClient(AEncodeType cli, std::span<const uint8_t> bytes,
                                     bool big) {
  switch (cli) {
    case AEncodeType::kLin16:
      return RefLin16FromBytes(bytes, big);
    case AEncodeType::kAdpcm32:
      return AdpcmDecode(bytes, bytes.size() * 2);
    default: {
      std::vector<int16_t> out(bytes.size());
      for (size_t i = 0; i < bytes.size(); ++i) {
        out[i] = RefDecodeSample(cli, bytes[i]);
      }
      return out;
    }
  }
}

// The old convert_play: whole-request decode, frame window, device encode.
std::vector<uint8_t> RefConvertPlay(AEncodeType dev, AEncodeType cli,
                                    std::span<const uint8_t> bytes, bool big, size_t skip,
                                    size_t nframes) {
  // Byte-identical paths keep their bytes (no companding round trip).
  if (dev == cli && (dev == AEncodeType::kMu255 || dev == AEncodeType::kAlaw)) {
    return std::vector<uint8_t>(bytes.begin() + skip, bytes.begin() + skip + nframes);
  }
  if (dev == AEncodeType::kLin16 && cli == AEncodeType::kLin16) {
    const auto lin = RefLin16FromBytes(bytes, big);
    return RefLin16ToBytes(std::span<const int16_t>(lin).subspan(skip, nframes), HostBig());
  }
  if ((dev == AEncodeType::kMu255 || dev == AEncodeType::kAlaw) &&
      (cli == AEncodeType::kMu255 || cli == AEncodeType::kAlaw)) {
    // Direct transcode, as the cross-format tables are defined.
    std::vector<uint8_t> out(nframes);
    for (size_t i = 0; i < nframes; ++i) {
      out[i] = dev == AEncodeType::kMu255 ? AlawToMulaw(bytes[skip + i])
                                          : MulawToAlaw(bytes[skip + i]);
    }
    return out;
  }
  const std::vector<int16_t> lin = RefDecodeClient(cli, bytes, big);
  const size_t n = std::min(nframes, lin.size() > skip ? lin.size() - skip : 0);
  if (dev == AEncodeType::kLin16) {
    return RefLin16ToBytes(std::span<const int16_t>(lin).subspan(skip, n), HostBig());
  }
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = RefEncodeSample(dev, lin[skip + i]);
  }
  return out;
}

// The old convert_record: device bytes -> client encoding/byte order.
std::vector<uint8_t> RefConvertRecord(AEncodeType dev, AEncodeType cli,
                                      std::span<const uint8_t> bytes, bool big) {
  if (dev == cli && (dev == AEncodeType::kMu255 || dev == AEncodeType::kAlaw)) {
    return std::vector<uint8_t>(bytes.begin(), bytes.end());
  }
  if (dev == AEncodeType::kLin16 && cli == AEncodeType::kLin16) {
    return RefLin16ToBytes(RefLin16FromBytes(bytes, HostBig()), big);
  }
  if ((dev == AEncodeType::kMu255 || dev == AEncodeType::kAlaw) &&
      (cli == AEncodeType::kMu255 || cli == AEncodeType::kAlaw)) {
    std::vector<uint8_t> out(bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
      out[i] = cli == AEncodeType::kMu255 ? AlawToMulaw(bytes[i]) : MulawToAlaw(bytes[i]);
    }
    return out;
  }
  std::vector<int16_t> lin;
  if (dev == AEncodeType::kLin16) {
    lin = RefLin16FromBytes(bytes, HostBig());
  } else {
    lin.resize(bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i) {
      lin[i] = RefDecodeSample(dev, bytes[i]);
    }
  }
  if (cli == AEncodeType::kLin16) {
    return RefLin16ToBytes(lin, big);
  }
  if (cli == AEncodeType::kAdpcm32) {
    return AdpcmEncode(lin);
  }
  std::vector<uint8_t> out(lin.size());
  for (size_t i = 0; i < lin.size(); ++i) {
    out[i] = RefEncodeSample(cli, lin[i]);
  }
  return out;
}

// --- test data --------------------------------------------------------------

constexpr size_t kFrames = 200;

std::vector<uint8_t> MakeClientBytes(AEncodeType cli, bool big) {
  std::vector<int16_t> lin(kFrames);
  for (size_t i = 0; i < lin.size(); ++i) {
    lin[i] = static_cast<int16_t>((static_cast<int>(i) * 797) % 30000 - 15000);
  }
  switch (cli) {
    case AEncodeType::kLin16:
      return RefLin16ToBytes(lin, big);
    case AEncodeType::kAdpcm32:
      return AdpcmEncode(lin);
    default: {
      std::vector<uint8_t> out(lin.size());
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = RefEncodeSample(cli, lin[i]);
      }
      return out;
    }
  }
}

std::vector<uint8_t> MakeDeviceBytes(AEncodeType dev) {
  std::vector<int16_t> lin(kFrames);
  for (size_t i = 0; i < lin.size(); ++i) {
    lin[i] = static_cast<int16_t>((static_cast<int>(i) * 1103) % 28000 - 14000);
  }
  if (dev == AEncodeType::kLin16) {
    return RefLin16ToBytes(lin, HostBig());
  }
  std::vector<uint8_t> out(lin.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = RefEncodeSample(dev, lin[i]);
  }
  return out;
}

DeviceDesc DescFor(AEncodeType dev) {
  DeviceDesc desc;
  desc.play_encoding = dev;
  desc.rec_encoding = dev;
  desc.play_nchannels = 1;
  desc.rec_nchannels = 1;
  return desc;
}

std::vector<uint8_t> ToVec(std::span<const uint8_t> s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

const char* Name(AEncodeType e) {
  switch (e) {
    case AEncodeType::kMu255:
      return "mu255";
    case AEncodeType::kAlaw:
      return "alaw";
    case AEncodeType::kLin16:
      return "lin16";
    case AEncodeType::kAdpcm32:
      return "adpcm32";
    default:
      return "?";
  }
}

// --- golden equivalence -----------------------------------------------------

TEST(ConversionGolden, MatchesReferenceForAllCombos) {
  const AEncodeType devs[] = {AEncodeType::kMu255, AEncodeType::kAlaw,
                              AEncodeType::kLin16};
  const AEncodeType clis[] = {AEncodeType::kMu255, AEncodeType::kAlaw,
                              AEncodeType::kLin16, AEncodeType::kAdpcm32};
  const struct {
    size_t skip;
    size_t nframes;
  } windows[] = {{0, kFrames}, {6, 150}, {5, 80}};

  for (const AEncodeType dev : devs) {
    for (const AEncodeType cli : clis) {
      ACAttributes attrs;
      attrs.encoding = cli;
      attrs.channels = 1;
      ACOps ops;
      ASSERT_TRUE(BuildStandardACOps(DescFor(dev), attrs, &ops).ok())
          << Name(dev) << " <- " << Name(cli);
      for (const bool big : {false, true}) {
        SCOPED_TRACE(testing::Message() << "dev=" << Name(dev) << " cli=" << Name(cli)
                                        << " big=" << big);
        ScratchArena arena;
        const std::vector<uint8_t> client = MakeClientBytes(cli, big);
        for (const auto& w : windows) {
          const std::span<const uint8_t> got =
              ops.convert_play(client, big, w.skip, w.nframes, arena);
          const std::vector<uint8_t> want =
              RefConvertPlay(dev, cli, client, big, w.skip, w.nframes);
          EXPECT_EQ(ToVec(got), want) << "play skip=" << w.skip << " n=" << w.nframes;
        }
        const std::vector<uint8_t> device = MakeDeviceBytes(dev);
        const std::span<const uint8_t> rec = ops.convert_record(device, big, arena);
        EXPECT_EQ(ToVec(rec), RefConvertRecord(dev, cli, device, big)) << "record";
      }
    }
  }
}

TEST(ConversionGolden, PassThroughReturnsTheInputSpan) {
  // Matching companded encodings: the conversion must alias the client
  // bytes, not copy them.
  ACAttributes attrs;
  attrs.channels = 1;
  ScratchArena arena;
  for (const AEncodeType enc : {AEncodeType::kMu255, AEncodeType::kAlaw}) {
    attrs.encoding = enc;
    ACOps ops;
    ASSERT_TRUE(BuildStandardACOps(DescFor(enc), attrs, &ops).ok());
    const std::vector<uint8_t> client = MakeClientBytes(enc, false);
    const std::span<const uint8_t> play = ops.convert_play(client, false, 10, 100, arena);
    EXPECT_EQ(play.data(), client.data() + 10);
    const std::span<const uint8_t> rec = ops.convert_record(client, false, arena);
    EXPECT_EQ(rec.data(), client.data());
  }
  // Lin16 both sides, client byte order == host order: also pass-through
  // (the no-swap fast path), in both directions.
  attrs.encoding = AEncodeType::kLin16;
  ACOps ops;
  ASSERT_TRUE(BuildStandardACOps(DescFor(AEncodeType::kLin16), attrs, &ops).ok());
  const std::vector<uint8_t> client = MakeClientBytes(AEncodeType::kLin16, HostBig());
  const std::span<const uint8_t> play =
      ops.convert_play(client, HostBig(), 0, kFrames, arena);
  EXPECT_EQ(play.data(), client.data());
  const std::span<const uint8_t> rec = ops.convert_record(client, HostBig(), arena);
  EXPECT_EQ(rec.data(), client.data());
  // Opposite byte order must NOT alias (a swap happened).
  const std::span<const uint8_t> swapped =
      ops.convert_play(client, !HostBig(), 0, kFrames, arena);
  EXPECT_NE(swapped.data(), client.data());
}

// --- gain tables vs functional form ----------------------------------------

TEST(ConversionGolden, GainTablesMatchFunctionalForm) {
  for (int db = kMinGainDb; db <= kMaxGainDb; ++db) {
    const GainTable& mu = MulawGainTable(db);
    const GainTable& al = AlawGainTable(db);
    for (int s = 0; s < 256; ++s) {
      const auto b = static_cast<uint8_t>(s);
      ASSERT_EQ(mu[b], MulawGainFunctional(db, b)) << "mulaw db=" << db << " s=" << s;
      ASSERT_EQ(al[b], AlawGainFunctional(db, b)) << "alaw db=" << db << " s=" << s;
    }
  }
}

TEST(ConversionGolden, CopyingGainMatchesInPlace) {
  std::vector<uint8_t> src(256);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> dst(src.size(), 0);
  ApplyMulawGain(-9, src, dst);
  std::vector<uint8_t> in_place = src;
  ApplyMulawGain(-9, in_place);
  EXPECT_EQ(dst, in_place);

  std::vector<int16_t> lsrc(300);
  for (size_t i = 0; i < lsrc.size(); ++i) {
    lsrc[i] = static_cast<int16_t>(i * 219 - 30000);
  }
  std::vector<int16_t> ldst(lsrc.size(), 0);
  ApplyLin16Gain(-4.5, lsrc, ldst);
  std::vector<int16_t> lin_place = lsrc;
  ApplyLin16Gain(-4.5, lin_place);
  EXPECT_EQ(ldst, lin_place);
}

// --- gain through the device pipeline ---------------------------------------

TEST(ConversionGolden, DevicePlayGainMatchesFunctionalOracle) {
  auto clock = std::make_shared<ManualSampleClock>(8000);
  auto dev = CodecDevice::Create(clock);
  auto sink = std::make_shared<CaptureSink>();
  dev->sim().SetSink(sink);
  dev->Update();

  const auto run_for = [&](uint64_t samples) {
    for (uint64_t advanced = 0; advanced < samples; advanced += 256) {
      clock->Advance(std::min<uint64_t>(256, samples - advanced));
      dev->Update();
    }
  };

  // Pass-through client data (mulaw -> mulaw): gain must go through the
  // arena's gain slot, leaving the client bytes untouched.
  {
    ServerAC ac;
    ac.device = dev.get();
    ac.attrs.encoding = AEncodeType::kMu255;
    ac.attrs.channels = 1;
    ac.attrs.play_gain_db = -6;
    ac.attrs.preempt = 1;
    ASSERT_TRUE(dev->MakeACOps(ac.attrs, &ac.ops).ok());
    const std::vector<uint8_t> pattern = MakeClientBytes(AEncodeType::kMu255, false);
    const std::vector<uint8_t> before = pattern;
    PlayOutcome outcome;
    ASSERT_TRUE(dev->Play(ac, 4000, pattern, false, &outcome).ok());
    EXPECT_EQ(pattern, before);  // client bytes not scaled in place
    run_for(8000);
    std::vector<uint8_t> want(pattern.size());
    for (size_t i = 0; i < want.size(); ++i) {
      want[i] = MulawGainFunctional(-6, pattern[i]);
    }
    EXPECT_EQ(sink->Segment(4000, want.size()), want);
  }

  // Arena-owned conversion output (lin16 -> mulaw): gain is applied in
  // place on the converted bytes.
  {
    ServerAC ac;
    ac.device = dev.get();
    ac.attrs.encoding = AEncodeType::kLin16;
    ac.attrs.channels = 1;
    ac.attrs.play_gain_db = 9;
    ac.attrs.preempt = 1;
    ASSERT_TRUE(dev->MakeACOps(ac.attrs, &ac.ops).ok());
    const std::vector<uint8_t> client = MakeClientBytes(AEncodeType::kLin16, false);
    const ATime start = dev->GetTime() + 4000;
    PlayOutcome outcome;
    ASSERT_TRUE(dev->Play(ac, start, client, false, &outcome).ok());
    run_for(10000);
    const std::vector<int16_t> lin = RefLin16FromBytes(client, false);
    std::vector<uint8_t> want(lin.size());
    for (size_t i = 0; i < want.size(); ++i) {
      want[i] = MulawGainFunctional(9, MulawFromLinear16(lin[i]));
    }
    EXPECT_EQ(sink->Segment(start, want.size()), want);
  }
}

// --- zero allocation at steady state ----------------------------------------

TEST(ZeroAllocation, SteadyStatePlayRecordDoesNotAllocate) {
  auto clock = std::make_shared<ManualSampleClock>(8000);
  auto dev = CodecDevice::Create(clock);
  dev->Update();

  // Two contexts: a pass-through mixing client with gain (exercises the
  // gain slot) and a lin16 converting client (exercises the conversion and
  // in-place gain paths).
  ServerAC mu_ac;
  mu_ac.device = dev.get();
  mu_ac.attrs.encoding = AEncodeType::kMu255;
  mu_ac.attrs.channels = 1;
  mu_ac.attrs.play_gain_db = -6;
  ASSERT_TRUE(dev->MakeACOps(mu_ac.attrs, &mu_ac.ops).ok());

  ServerAC lin_ac;
  lin_ac.device = dev.get();
  lin_ac.attrs.encoding = AEncodeType::kLin16;
  lin_ac.attrs.channels = 1;
  lin_ac.attrs.play_gain_db = 3;
  ASSERT_TRUE(dev->MakeACOps(lin_ac.attrs, &lin_ac.ops).ok());

  const std::vector<uint8_t> mu_data(800, 0x43);
  const std::vector<uint8_t> lin_data(1600, 0x21);

  // Assertion-free cycle: gtest machinery stays out of the counted region.
  const auto one_cycle = [&](ATime t) {
    bool ok = true;
    PlayOutcome play_out;
    ok = dev->Play(mu_ac, t, mu_data, false, &play_out).ok() && ok;
    ok = dev->Play(lin_ac, t, lin_data, false, &play_out).ok() && ok;
    for (int step = 0; step < 3; ++step) {
      clock->Advance(256);
      dev->Update();
    }
    std::span<const uint8_t> rec;
    RecordOutcome rec_out;
    const ATime now = dev->GetTime();
    ok = dev->Record(mu_ac, now - 700, 700, false, true, &rec, &rec_out).ok() && ok;
    ok = dev->Record(lin_ac, now - 700, 1400, false, true, &rec, &rec_out).ok() && ok;
    return ok;
  };

  // Warm up: grows the arena buffers to their high-water size and takes
  // the one-time lazy table builds (gain tables, mix tables).
  ATime t = 2048;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(one_cycle(t));
    t += 768;
  }

  // Metrics recording rides the hot path; snapshot the counters that the
  // armed region must advance so "allocation-free" provably includes them.
  const uint64_t updates_before = dev->metrics().updates.Value();
  const uint64_t passthrough_before = dev->metrics().passthrough_plays.Value();
  const uint64_t converted_before = dev->metrics().converted_plays.Value();

  // Tracing also rides the hot path (device-timeline instants from the
  // play/update code); run the armed region with the global ring live so
  // "allocation-free" provably includes TraceRing::Record. The ring itself
  // is constructed (its slots mapped) by this call, before arming.
  GlobalTrace().Clear();
  GlobalTrace().Enable(true);
  const uint64_t traced_before = GlobalTrace().recorded();

  g_alloc_count = 0;
  g_alloc_armed = true;
  bool all_ok = true;
  for (int i = 0; i < 1000; ++i) {
    all_ok = one_cycle(t) && all_ok;
    t += 768;
  }
  g_alloc_armed = false;
  GlobalTrace().Enable(false);
  EXPECT_TRUE(all_ok);

  EXPECT_EQ(g_alloc_count, 0u)
      << "steady-state play/record performed heap allocations";
  EXPECT_GT(dev->arena().TotalBytes(), 0u);
  // The armed region must actually have traced (mixing writes at minimum),
  // or the zero-alloc claim about tracing would be vacuous.
  EXPECT_GT(GlobalTrace().recorded(), traced_before);
  GlobalTrace().Clear();

  // Each cycle ran 3 updates, one pass-through (mu-law) play and one
  // converting (lin16) play — all counted, all without allocating.
  EXPECT_EQ(dev->metrics().updates.Value() - updates_before, 3000u);
  EXPECT_EQ(dev->metrics().passthrough_plays.Value() - passthrough_before, 1000u);
  EXPECT_EQ(dev->metrics().converted_plays.Value() - converted_before, 1000u);
}

TEST(ZeroAllocation, NeverDrainedConnectionFlushDoesNotAllocate) {
  // A peer that reads as fast as the server writes but never catches up:
  // 1 MiB of 32-byte replies is queued, then each round the peer reads one
  // reply and the server queues one more and flushes. The output never
  // fully drains, so only the send buffer's own policy keeps its heap flat.
  constexpr size_t kReply = 32;
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FdStream peer = std::move(pair.value().first);
  ClientConn conn(std::move(pair.value().second), PeerAddress{}, 1);
  uint32_t queued = 0;
  const auto queue_reply = [&] {
    uint8_t reply[kReply] = {};
    std::memcpy(reply, &queued, sizeof(queued));
    ++queued;
    conn.out().Bytes(reply, sizeof(reply));
  };
  for (size_t i = 0; i < (size_t{1} << 20) / kReply; ++i) {
    queue_reply();
  }
  ASSERT_TRUE(conn.FlushOutput());

  // Assertion-free rounds: gtest machinery stays out of the counted region.
  uint32_t read = 0;
  const auto rounds = [&](int n) {
    bool ok = true;
    for (int i = 0; i < n; ++i) {
      uint8_t reply[kReply];
      ok = peer.ReadAll(reply, sizeof(reply)).ok() && ok;
      uint32_t index;
      std::memcpy(&index, reply, sizeof(index));
      ok = index == read++ && ok;
      queue_reply();
      ok = conn.FlushOutput() && ok;
    }
    return ok && conn.HasPendingOutput();
  };
  ASSERT_TRUE(rounds(20000));

  g_alloc_count = 0;
  g_alloc_armed = true;
  const bool ok = rounds(20000);
  g_alloc_armed = false;
  EXPECT_TRUE(ok) << "replies arrived out of order, or the backlog drained";
  EXPECT_EQ(g_alloc_count, 0u)
      << "flushing a connection that never catches up performed heap allocations";
}

}  // namespace
}  // namespace af
