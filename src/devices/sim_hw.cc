#include "devices/sim_hw.h"

#include <algorithm>
#include <cstring>

#include "dsp/g711.h"
#include "dsp/mix.h"

namespace af {

namespace {

uint8_t SilenceFor(AEncodeType type) {
  switch (type) {
    case AEncodeType::kMu255:
      return kMulawSilence;
    case AEncodeType::kAlaw:
      return kAlawSilence;
    default:
      return 0;
  }
}

}  // namespace

void SilenceSource::Generate(ATime, std::span<uint8_t> out) {
  std::memset(out.data(), silence_, out.size());
}

void CaptureSink::Consume(ATime t, std::span<const uint8_t> frames) {
  if (!started_) {
    started_ = true;
    start_time_ = t;
  }
  if (data_.size() + frames.size() <= max_bytes_) {
    data_.insert(data_.end(), frames.begin(), frames.end());
  }
}

void CaptureSink::Clear() {
  data_.clear();
  started_ = false;
  start_time_ = 0;
}

std::vector<uint8_t> CaptureSink::Segment(ATime t, size_t nbytes, size_t frame_bytes) const {
  if (!started_) {
    return {};
  }
  const int32_t offset_frames = TimeDelta(t, start_time_);
  if (offset_frames < 0) {
    return {};
  }
  const size_t offset = static_cast<size_t>(offset_frames) * frame_bytes;
  if (offset >= data_.size()) {
    return {};
  }
  const size_t n = std::min(nbytes, data_.size() - offset);
  return std::vector<uint8_t>(data_.begin() + offset, data_.begin() + offset + n);
}

SimulatedAudioHw::SimulatedAudioHw(Config config, std::shared_ptr<SampleClock> clock)
    : config_(config),
      clock_(std::move(clock)),
      play_ring_(config.ring_frames, SamplesToBytes(config.encoding, 1, config.nchannels),
                 SilenceFor(config.encoding)),
      rec_ring_(config.ring_frames, SamplesToBytes(config.encoding, 1, config.nchannels),
                SilenceFor(config.encoding)),
      passthrough_ring_(config.ring_frames,
                        SamplesToBytes(config.encoding, 1, config.nchannels),
                        SilenceFor(config.encoding)) {
  consumed_until_ = clock_->Now();
}

uint64_t SimulatedAudioHw::Now64() { return clock_->Now(); }

uint32_t SimulatedAudioHw::ReadCounter() {
  Advance();
  // Report the time the DAC/ADC simulation has actually reached, not a
  // fresh clock read: a fresher value would let the server's update write
  // one full ring ahead into slots the DAC has not consumed yet.
  const uint32_t mask =
      config_.counter_bits >= 32 ? 0xFFFFFFFFu : ((1u << config_.counter_bits) - 1u);
  return static_cast<uint32_t>(consumed_until_) & mask;
}

void SimulatedAudioHw::WritePlay(ATime t, std::span<const uint8_t> bytes) {
  play_ring_.Write(t, bytes, MixMode::kCopy);
}

void SimulatedAudioHw::FillPlaySilence(ATime t, size_t nframes) {
  play_ring_.FillSilence(t, nframes);
}

void SimulatedAudioHw::ReadRecord(ATime t, std::span<uint8_t> out) {
  Advance();
  rec_ring_.Read(t, out);
}

void SimulatedAudioHw::ApplyOutputGain(std::span<uint8_t> frames) {
  if (!output_enabled_) {
    std::memset(frames.data(), play_ring_.silence_byte(), frames.size());
    return;
  }
  ApplyGainInPlace(config_.encoding, output_gain_db_, frames);
}

void SimulatedAudioHw::ApplyInputGain(std::span<uint8_t> frames) {
  if (!input_enabled_) {
    std::memset(frames.data(), rec_ring_.silence_byte(), frames.size());
    return;
  }
  ApplyGainInPlace(config_.encoding, input_gain_db_, frames);
}

void SimulatedAudioHw::InjectPassThrough(ATime t, std::span<const uint8_t> frames) {
  passthrough_ring_.Write(t, frames, MixMode::kCopy);
  passthrough_active_ = true;
}

void SimulatedAudioHw::Advance() {
  if (advancing_) {
    return;  // sources/sinks may read the counter; don't recurse
  }
  const uint64_t now = clock_->Now();
  if (now <= consumed_until_) {
    return;
  }
  advancing_ = true;
  uint64_t from = consumed_until_;
  // A jump far beyond the ring means everything in between underran; only
  // the most recent ring-full is meaningful.
  const uint64_t ring = play_ring_.nframes();
  if (now - from > ring) {
    from = now - ring;
  }
  const size_t fb = play_ring_.frame_bytes();
  while (from < now) {
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(now - from, ring / 2));
    const ATime t = static_cast<ATime>(from);
    // Play side: DAC consumes, sink hears, firmware backfills silence.
    scratch_.resize(chunk * fb);
    play_ring_.Read(t, scratch_);
    play_ring_.FillSilence(t, chunk);
    ApplyOutputGain(scratch_);
    if (passthrough_active_) {
      // Mix the peer's pass-through audio into what the speaker hears.
      std::vector<uint8_t> pt(chunk * fb);
      passthrough_ring_.Read(t, pt);
      switch (config_.encoding) {
        case AEncodeType::kMu255:
          MixMulawBlock(scratch_, pt);
          break;
        case AEncodeType::kAlaw:
          MixAlawBlock(scratch_, pt);
          break;
        default: {
          auto* dst = reinterpret_cast<int16_t*>(scratch_.data());
          const auto* src = reinterpret_cast<const int16_t*>(pt.data());
          MixLin16Block(std::span<int16_t>(dst, scratch_.size() / 2),
                        std::span<const int16_t>(src, pt.size() / 2));
          break;
        }
      }
    }
    if (sink_) {
      sink_->Consume(t, scratch_);
    }

    // Record side: ADC samples the source.
    scratch_.resize(chunk * fb);
    if (source_) {
      source_->Generate(t, scratch_);
    } else {
      std::memset(scratch_.data(), rec_ring_.silence_byte(), scratch_.size());
    }
    ApplyInputGain(scratch_);
    rec_ring_.Write(t, scratch_, MixMode::kCopy);
    if (passthrough_peer_ != nullptr) {
      passthrough_peer_->InjectPassThrough(t, scratch_);
    }

    from += chunk;
  }
  consumed_until_ = now;
  advancing_ = false;
}

}  // namespace af
