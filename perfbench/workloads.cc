#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "devices/sim_hw.h"
#include "dsp/g711.h"
#include "dsp/gain.h"
#include "process.h"

namespace af::perfbench {

namespace {

// play-small starts 1 s into device time and freezes there, so every reply
// carries exactly that time; the bridge starts its paced timeline there.
constexpr uint64_t kStartTime = 8000;
// Device-time steps used to bring the clock forward at set-up: half the
// CODEC's 1024-frame hardware ring, so no update window is ever skipped.
constexpr uint64_t kSetUpStep = 256;
// play-small plays land anywhere in the second ahead of device time.
constexpr uint32_t kPlayWindowFrames = 8000;
// Bridge blocks land this far ahead of device time (the abridge default
// lead of 0.25 s), so nothing blocks on flow control or lands in the past.
constexpr ATime kBridgeLeadFrames = 2000;
// record-bulk: 4 s of recorded history; records start at least this far in.
constexpr uint64_t kHistoryFrames = 32000;
constexpr uint32_t kHistoryMargin = 1024;
// Distinct seeded inputs per workload (cycled through by op index).
constexpr size_t kBlockVariants = 64;
constexpr size_t kOffsetVariants = 4096;
constexpr size_t kMaxChunks = 2;

constexpr Shape kShapes[] = {
    {"play-small", Kind::kPlaySmall, 1, 1, AEncodeType::kLin16, 256, 1, -6, 0, 0, 4000,
     Opcode::kPlaySamples},
    {"bridge-xshard", Kind::kBridgeXshard, 2, 4, AEncodeType::kMu255, 320, 1, -3, -18, 25,
     4000, Opcode::kPlaySamples},
    {"record-bulk", Kind::kRecordBulk, 1, 1, AEncodeType::kLin16, 4096, 2, -6, 0, 0, 1000,
     Opcode::kRecordSamples},
};

static_assert(kShapes[2].chunks_per_op <= kMaxChunks);

}  // namespace

size_t Shape::BlockBytes() const { return SamplesToBytes(encoding, block_frames, 1); }

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<int16_t> MakeNoise(std::mt19937_64& rng, size_t frames) {
  std::uniform_int_distribution<int> sample(-4096, 4096);
  std::vector<int16_t> v(frames);
  for (int16_t& s : v) {
    s = static_cast<int16_t>(sample(rng));
  }
  return v;
}

std::vector<uint8_t> MakeBlock(const Shape& shape, std::mt19937_64& rng) {
  const std::vector<int16_t> lin = MakeNoise(rng, shape.block_frames);
  std::vector<uint8_t> bytes(shape.BlockBytes());
  if (shape.encoding == AEncodeType::kLin16) {
    std::memcpy(bytes.data(), lin.data(), bytes.size());
  } else {
    EncodeMulawBlock(lin, bytes);
  }
  return bytes;
}

Rig::Rig(const Shape& shape, uint64_t seed) : shape_(shape), rng_(seed) { MakeInputs(); }

Rig::~Rig() {
  // Connections close before the server stops so no shard sees a reset
  // mid-request.
  conns_.clear();
  runner_.reset();
}

void Rig::MakeInputs() {
  for (size_t b = 0; b < kBlockVariants; ++b) {
    blocks_.push_back(MakeBlock(shape_, rng_));
  }

  uint32_t lo = 0;
  uint32_t hi = 0;
  if (shape_.kind == Kind::kPlaySmall) {
    hi = kPlayWindowFrames - static_cast<uint32_t>(shape_.block_frames);
  } else if (shape_.kind == Kind::kRecordBulk) {
    lo = kHistoryMargin;
    hi = static_cast<uint32_t>(kHistoryFrames - shape_.FramesPerOp());
  }
  std::uniform_int_distribution<uint32_t> offset(lo, hi);
  for (size_t i = 0; i < kOffsetVariants; ++i) {
    offsets_.push_back(offset(rng_));
  }

  if (shape_.kind == Kind::kRecordBulk) {
    // The input heard at device time t is source_[t]; the client must get
    // back its -6 dB input-gain image, decoded to lin16.
    source_.resize(kHistoryFrames);
    std::uniform_int_distribution<int> byte(0, 255);
    for (uint8_t& b : source_) {
      b = static_cast<uint8_t>(byte(rng_));
    }
    std::vector<uint8_t> gained = source_;
    ApplyMulawGain(shape_.gain_db, std::span<uint8_t>(gained));
    expected_lin_.resize(gained.size());
    DecodeMulawBlock(gained, expected_lin_);
  }
}

bool Rig::SetUp() {
  ServerRunner::Config config;
  config.with_codec = true;  // device 0, owned by shard 0
  config.realtime = false;   // manual clock: device time moves only when paced
  config.server.num_shards = shape_.shards;
  runner_ = ServerRunner::Start(std::move(config));
  if (runner_ == nullptr) {
    std::fprintf(stderr, "perfbench: cannot start server\n");
    return false;
  }
  if (shape_.kind == Kind::kRecordBulk) {
    auto source = std::make_shared<BufferSource>(size_t{1} << 16, 1, kMulawSilence);
    source->PutAt(0, source_);
    runner_->RunOnLoop([&] { runner_->codec()->sim().SetSource(source); });
  }
  // Prime the update cursor at clock zero, as the periodic task would.
  runner_->RunOnLoop([&] { runner_->codec()->Update(); });

  for (int p = 0; p < shape_.parties; ++p) {
    // Party 0 shares shard 0 with the device; everyone else sits on shard 1
    // and has every play forwarded.
    auto conn = shape_.shards > 1
                    ? runner_->ConnectInProcessOnShard(p == 0 ? 0u : 1u)
                    : runner_->ConnectInProcess();
    if (!conn.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   conn.status().ToString().c_str());
      return false;
    }
    std::unique_ptr<AFAudioConn> c = conn.take();
    c->SetErrorHandler([this](AFAudioConn&, const ErrorPacket&) { ++async_errors_; });
    c->SetIOErrorHandler([this](AFAudioConn&) { ++async_errors_; });
    ACAttributes attrs;
    attrs.encoding = shape_.encoding;
    uint32_t mask = kACEncodingType;
    if (shape_.kind != Kind::kRecordBulk) {
      attrs.play_gain_db = shape_.kind == Kind::kBridgeXshard && p != floor_holder_
                               ? shape_.muted_gain_db
                               : shape_.gain_db;
      mask |= kACPlayGain;
    }
    auto ac = c->CreateAC(runner_->codec_id(), mask, attrs);
    if (!ac.ok()) {
      std::fprintf(stderr, "perfbench: CreateAC failed: %s\n", ac.status().ToString().c_str());
      return false;
    }
    acs_.push_back(ac.value());
    conns_.push_back(std::move(c));
  }
  held_floor_.assign(conns_.size(), false);
  held_floor_[floor_holder_] = true;

  if (shape_.kind == Kind::kRecordBulk) {
    if (!BuildRecordHistory()) {
      return false;
    }
  } else {
    AdvanceTo(kStartTime);
  }
  // Device time stays frozen here for play-small and record-bulk; the
  // bridge paces forward from it.
  base_time_ = static_cast<ATime>(runner_->manual_clock()->Now());
  last_time_ = base_time_;

  for (size_t i = 0; i < shape_.warmup_ops; ++i) {
    OpSample s;
    Op(&s);
    if (!s.ok) {
      std::fprintf(stderr, "perfbench: warm-up op %zu failed\n", i);
      return false;
    }
  }
  Quiesce();
  return async_errors_ == 0;
}

uint64_t Rig::Quiesce() {
  for (auto& c : conns_) {
    c->Sync();
  }
  return conns_.size();
}

bool Rig::BuildRecordHistory() {
  AFAudioConn& c = *conns_[0];
  c.SetInputGain(runner_->codec_id(), shape_.gain_db);
  // A first (empty, non-blocking) record marks the AC recording, which
  // switches the device's record update on before history accumulates.
  RecordSamplesReq req;
  req.ac = acs_[0]->id();
  req.start_time = 0;
  req.nbytes = static_cast<uint32_t>(shape_.BlockBytes());
  req.flags = kRecordNoBlock;
  if (!c.AwaitReply(c.QueueRequest(Opcode::kRecordSamples, req)).ok()) {
    std::fprintf(stderr, "perfbench: priming record failed\n");
    return false;
  }
  AdvanceTo(kHistoryFrames);
  return true;
}

void Rig::AdvanceTo(uint64_t frames) {
  auto clock = runner_->manual_clock();
  while (clock->Now() < frames) {
    clock->Advance(kSetUpStep);
    runner_->RunOnLoop([&] { runner_->codec()->Update(); });
  }
}

bool Rig::IsLocal(size_t party) const { return shape_.shards == 1 || party == 0; }

size_t Rig::floor_holders_seen() const {
  return static_cast<size_t>(std::count(held_floor_.begin(), held_floor_.end(), true));
}

bool Rig::Stats(ServerStatsWire* out) {
  auto s = conns_[0]->GetServerStats();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: GetServerStats failed: %s\n",
                 s.status().ToString().c_str());
    return false;
  }
  *out = s.take();
  return true;
}

bool Rig::CheckTime(ATime t) {
  if (shape_.kind == Kind::kBridgeXshard) {
    // Paced clock: replies may only move forward.
    if (TimeBefore(t, last_time_)) {
      return false;
    }
    last_time_ = t;
    return true;
  }
  return t == last_time_;
}

void Rig::Op(OpSample* out) {
  *out = OpSample();
  const size_t party = shape_.kind == Kind::kBridgeXshard ? ops_ % conns_.size() : 0;
  AFAudioConn& c = *conns_[party];
  const uint32_t offset = offsets_[ops_ % offsets_.size()];
  out->party = static_cast<int>(party);
  bool ok = true;

  if (shape_.kind == Kind::kRecordBulk) {
    RecordSamplesReply replies[kMaxChunks];
    const ATime start = static_cast<ATime>(offset);
    const uint64_t t_begin = NowNs();
    for (size_t chunk = 0; chunk < shape_.chunks_per_op && ok; ++chunk) {
      RecordSamplesReq req;
      req.ac = acs_[0]->id();
      req.start_time = start + static_cast<ATime>(chunk * shape_.block_frames);
      req.nbytes = static_cast<uint32_t>(shape_.BlockBytes());
      req.flags = kRecordNoBlock;
      const uint64_t t0 = NowNs();
      const uint16_t seq = c.QueueRequest(Opcode::kRecordSamples, req);
      const uint64_t t1 = NowNs();
      c.Flush();
      const uint64_t t2 = NowNs();
      auto reply = c.AwaitReply(seq);
      const uint64_t t3 = NowNs();
      ok = reply.ok() &&
           RecordSamplesReply::Decode(reply.value(), c.order(), &replies[chunk]);
      const uint64_t t4 = NowNs();
      out->queue_ns += t1 - t0;
      out->flush_ns += t2 - t1;
      out->await_ns += t3 - t2;
      out->decode_ns += t4 - t3;
    }
    out->rtt_ns = NowNs() - t_begin;
    // Every byte must be the seeded input after input gain and decoding.
    for (size_t chunk = 0; chunk < shape_.chunks_per_op && ok; ++chunk) {
      const RecordSamplesReply& r = replies[chunk];
      const int16_t* want = expected_lin_.data() + offset + chunk * shape_.block_frames;
      ok = CheckTime(r.time) && r.data.size() == shape_.BlockBytes() &&
           std::memcmp(r.data.data(), want, r.data.size()) == 0;
    }
  } else {
    PlaySamplesReq req;
    req.ac = acs_[party]->id();
    req.start_time = shape_.kind == Kind::kPlaySmall
                         ? base_time_ + static_cast<ATime>(offset)
                         : base_time_ + kBridgeLeadFrames +
                               static_cast<ATime>(round_ * shape_.block_frames);
    req.nbytes = static_cast<uint32_t>(shape_.BlockBytes());
    req.data = blocks_[(ops_ / conns_.size() + party) % blocks_.size()];
    const uint64_t t0 = NowNs();
    const uint16_t seq = c.QueueRequest(Opcode::kPlaySamples, req);
    const uint64_t t1 = NowNs();
    c.Flush();
    const uint64_t t2 = NowNs();
    auto reply = c.AwaitReply(seq);
    const uint64_t t3 = NowNs();
    PlaySamplesReply decoded;
    ok = reply.ok() && PlaySamplesReply::Decode(reply.value(), c.order(), &decoded);
    const uint64_t t4 = NowNs();
    out->queue_ns = t1 - t0;
    out->flush_ns = t2 - t1;
    out->await_ns = t3 - t2;
    out->decode_ns = t4 - t3;
    out->rtt_ns = t4 - t0;
    ok = ok && CheckTime(decoded.time);
  }
  out->ok = ok && async_errors_ == 0;
  ++ops_;

  if (shape_.kind == Kind::kBridgeXshard && party + 1 == conns_.size()) {
    Pace();
  }
}

void Rig::Pace() {
  {
    UntrackedScope untracked;
    // One block of device time per conference round, with the owner shard's
    // update run right away: the periodic task is scheduled in wall time,
    // which the paced clock outruns.
    runner_->manual_clock()->Advance(shape_.block_frames);
    runner_->RunOnLoop([&] { runner_->codec()->Update(); });
  }
  ++round_;
  if (round_ % shape_.rotate_blocks == 0) {
    RotateFloor();
  }
}

void Rig::RotateFloor() {
  std::uniform_int_distribution<int> pick(1, static_cast<int>(conns_.size()) - 1);
  const int next = (floor_holder_ + pick(rng_)) % static_cast<int>(conns_.size());
  for (const int p : {floor_holder_, next}) {
    ACAttributes attrs = acs_[p]->attrs();
    attrs.play_gain_db = p == next ? shape_.gain_db : shape_.muted_gain_db;
    // Queued: it reaches the server ahead of the party's next play.
    acs_[p]->ChangeAttributes(kACPlayGain, attrs);
    ++extra_requests_;
  }
  floor_holder_ = next;
  held_floor_[next] = true;
}

}  // namespace af::perfbench
