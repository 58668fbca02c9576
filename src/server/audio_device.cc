#include "server/audio_device.h"

#include <algorithm>
#include <cstring>

#include "common/trace.h"
#include "dsp/g711.h"
#include "dsp/adpcm.h"
#include "dsp/gain.h"

namespace af {

namespace {

uint8_t SilenceByteFor(AEncodeType type) {
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

// ---------------------------------------------------------------------------
// AudioDevice default device-control / telephony behavior

Status AudioDevice::SetInputGain(int db) {
  if (db < kGainMinDb || db > kGainMaxDb) {
    return Status(AfError::kBadValue, "input gain out of range");
  }
  input_gain_db_ = db;
  OnIOControlChanged();
  return Status::Ok();
}

Status AudioDevice::SetOutputGain(int db) {
  if (db < kGainMinDb || db > kGainMaxDb) {
    return Status(AfError::kBadValue, "output gain out of range");
  }
  output_gain_db_ = db;
  OnIOControlChanged();
  return Status::Ok();
}

Status AudioDevice::EnableInput(uint32_t mask) {
  input_enable_mask_ |= mask;
  OnIOControlChanged();
  return Status::Ok();
}

Status AudioDevice::DisableInput(uint32_t mask) {
  input_enable_mask_ &= ~mask;
  OnIOControlChanged();
  return Status::Ok();
}

Status AudioDevice::EnableOutput(uint32_t mask) {
  output_enable_mask_ |= mask;
  OnIOControlChanged();
  return Status::Ok();
}

Status AudioDevice::DisableOutput(uint32_t mask) {
  output_enable_mask_ &= ~mask;
  OnIOControlChanged();
  return Status::Ok();
}

Status AudioDevice::HookSwitch(bool) {
  return Status(AfError::kBadMatch, "not a telephone device");
}

Status AudioDevice::FlashHook(unsigned) {
  return Status(AfError::kBadMatch, "not a telephone device");
}

Status AudioDevice::QueryPhone(bool*, bool*) {
  return Status(AfError::kBadMatch, "not a telephone device");
}

Status AudioDevice::SetPassThrough(AudioDevice*, bool) {
  return Status(AfError::kBadMatch, "pass-through not supported by this device");
}

Status AudioDevice::SetGainControl(bool) { return Status::Ok(); }

// ---------------------------------------------------------------------------
// Standard conversion modules
//
// All modules write into spans borrowed from the caller's ScratchArena (or
// return the input unchanged - true pass-through); the hot path performs no
// heap allocation at steady state. Each pipeline stage uses its own arena
// slot so a later stage can read the previous stage's output.

namespace {

// Whether lin16 byte data can be reinterpreted as int16 in place.
bool Lin16Aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % alignof(int16_t) == 0;
}

// Normalizes multi-byte samples between the data byte order and host
// order. Pass-through (no copy) when no swap is needed and the data is
// int16-aligned; otherwise stages into the given arena slot.
std::span<const uint8_t> SwapLin16IfNeeded(std::span<const uint8_t> bytes,
                                           bool data_big_endian, ScratchArena& arena,
                                           ScratchArena::Slot slot) {
  const bool host_big = !HostIsLittleEndian();
  if (data_big_endian == host_big) {
    if (Lin16Aligned(bytes.data())) {
      return bytes;
    }
    std::span<uint8_t> out = arena.Bytes(slot, bytes.size());
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }
  std::span<uint8_t> out = arena.Bytes(slot, bytes.size());
  size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2) {
    out[i] = bytes[i + 1];
    out[i + 1] = bytes[i];
  }
  if (i < bytes.size()) {
    out[i] = bytes[i];
  }
  return out;
}

// In-place variant for data already staged in the arena.
void SwapLin16InPlace(std::span<uint8_t> bytes, bool data_big_endian) {
  const bool host_big = !HostIsLittleEndian();
  if (data_big_endian == host_big) {
    return;
  }
  for (size_t i = 0; i + 1 < bytes.size(); i += 2) {
    std::swap(bytes[i], bytes[i + 1]);
  }
}

std::span<const uint8_t> MapBytes(std::span<const uint8_t> in,
                                  const std::array<uint8_t, 256>& t, ScratchArena& arena,
                                  ScratchArena::Slot slot) {
  std::span<uint8_t> out = arena.Bytes(slot, in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = t[in[i]];
  }
  return out;
}

std::span<uint8_t> MulawToLin16Bytes(std::span<const uint8_t> in, ScratchArena& arena,
                                     ScratchArena::Slot slot) {
  std::span<int16_t> lin = arena.Lin16(slot, in.size());
  DecodeMulawBlock(in, lin);
  return std::span<uint8_t>(reinterpret_cast<uint8_t*>(lin.data()), in.size() * 2);
}

std::span<uint8_t> AlawToLin16Bytes(std::span<const uint8_t> in, ScratchArena& arena,
                                    ScratchArena::Slot slot) {
  std::span<int16_t> lin = arena.Lin16(slot, in.size());
  DecodeAlawBlock(in, lin);
  return std::span<uint8_t>(reinterpret_cast<uint8_t*>(lin.data()), in.size() * 2);
}

// in must be int16-aligned (SwapLin16IfNeeded guarantees it).
std::span<const uint8_t> Lin16BytesToMulaw(std::span<const uint8_t> in, ScratchArena& arena,
                                           ScratchArena::Slot slot) {
  std::span<uint8_t> out = arena.Bytes(slot, in.size() / 2);
  const auto* lin = reinterpret_cast<const int16_t*>(in.data());
  EncodeMulawBlock(std::span<const int16_t>(lin, out.size()), out);
  return out;
}

std::span<const uint8_t> Lin16BytesToAlaw(std::span<const uint8_t> in, ScratchArena& arena,
                                          ScratchArena::Slot slot) {
  std::span<uint8_t> out = arena.Bytes(slot, in.size() / 2);
  const auto* lin = reinterpret_cast<const int16_t*>(in.data());
  EncodeAlawBlock(std::span<const int16_t>(lin, out.size()), out);
  return out;
}

}  // namespace

namespace {

// Wraps a whole-buffer byte transform into the windowed convert_play shape
// for encodings whose frames slice cleanly at byte boundaries.
template <typename Fn>
void SetSlicedPlay(ACOps* ops, size_t bytes_per_frame, Fn fn) {
  ops->convert_play = [bytes_per_frame, fn](std::span<const uint8_t> b, bool big,
                                            size_t skip_frames, size_t nframes,
                                            ScratchArena& arena) {
    return fn(b.subspan(skip_frames * bytes_per_frame, nframes * bytes_per_frame), big,
              arena);
  };
}

// ADPCM client data: decode the nibble stream from its start (each request
// is self-contained) into kConvertA, then hand back the requested frame
// window.
std::span<const int16_t> AdpcmWindow(std::span<const uint8_t> packed, size_t skip_frames,
                                     size_t nframes, ScratchArena& arena) {
  std::span<int16_t> all = arena.Lin16(ScratchArena::kConvertA, skip_frames + nframes);
  const size_t decoded = AdpcmDecodeInto(packed, all);
  if (decoded <= skip_frames) {
    return {};
  }
  return std::span<const int16_t>(all.data() + skip_frames, decoded - skip_frames);
}

}  // namespace

Status BuildStandardACOps(const DeviceDesc& desc, const ACAttributes& attrs, ACOps* ops) {
  const AEncodeType dev = desc.play_encoding;
  const AEncodeType cli = attrs.encoding;
  const unsigned channels = desc.play_nchannels;

  if (attrs.channels != channels) {
    return Status(AfError::kBadMatch, "channel count does not match device");
  }

  // Identity and simple table transcodes for companded devices.
  if (dev == AEncodeType::kMu255 || dev == AEncodeType::kAlaw) {
    const bool dev_is_mu = dev == AEncodeType::kMu255;
    if (cli == dev) {
      // True pass-through: the window of the client's bytes IS the device
      // data; no staging copy at all.
      SetSlicedPlay(ops, channels, [](std::span<const uint8_t> b, bool, ScratchArena&) {
        return b;
      });
      ops->convert_record = [](std::span<const uint8_t> b, bool, ScratchArena&) {
        return b;
      };
      ops->client_bytes_to_frames = [channels](size_t n) { return n / channels; };
      ops->frames_to_client_bytes = [channels](size_t f) { return f * channels; };
      return Status::Ok();
    }
    if (cli == AEncodeType::kMu255 || cli == AEncodeType::kAlaw) {
      // Cross-companded transcodes via the 256-entry tables.
      const auto& to_dev = dev_is_mu ? AlawToMulawTable() : MulawToAlawTable();
      const auto& to_cli = dev_is_mu ? MulawToAlawTable() : AlawToMulawTable();
      SetSlicedPlay(ops, channels,
                    [&to_dev](std::span<const uint8_t> b, bool, ScratchArena& arena) {
        return MapBytes(b, to_dev, arena, ScratchArena::kConvertA);
      });
      ops->convert_record = [&to_cli](std::span<const uint8_t> b, bool,
                                      ScratchArena& arena) {
        return MapBytes(b, to_cli, arena, ScratchArena::kConvertA);
      };
      ops->client_bytes_to_frames = [channels](size_t n) { return n / channels; };
      ops->frames_to_client_bytes = [channels](size_t f) { return f * channels; };
      return Status::Ok();
    }
    if (cli == AEncodeType::kLin16) {
      SetSlicedPlay(ops, 2 * channels,
                    [dev_is_mu](std::span<const uint8_t> b, bool big, ScratchArena& arena) {
        const std::span<const uint8_t> host =
            SwapLin16IfNeeded(b, big, arena, ScratchArena::kConvertA);
        return dev_is_mu ? Lin16BytesToMulaw(host, arena, ScratchArena::kConvertB)
                         : Lin16BytesToAlaw(host, arena, ScratchArena::kConvertB);
      });
      ops->convert_record = [dev_is_mu](std::span<const uint8_t> b, bool big,
                                        ScratchArena& arena) {
        std::span<uint8_t> lin = dev_is_mu
                                     ? MulawToLin16Bytes(b, arena, ScratchArena::kConvertA)
                                     : AlawToLin16Bytes(b, arena, ScratchArena::kConvertA);
        SwapLin16InPlace(lin, big);
        return std::span<const uint8_t>(lin);
      };
      ops->client_bytes_to_frames = [channels](size_t n) { return n / 2 / channels; };
      ops->frames_to_client_bytes = [channels](size_t f) { return f * 2 * channels; };
      return Status::Ok();
    }
    if (cli == AEncodeType::kAdpcm32 && channels == 1) {
      const bool to_mu = dev_is_mu;
      ops->convert_play = [to_mu](std::span<const uint8_t> b, bool, size_t skip,
                                  size_t nframes, ScratchArena& arena) {
        const std::span<const int16_t> lin = AdpcmWindow(b, skip, nframes, arena);
        std::span<uint8_t> out = arena.Bytes(ScratchArena::kConvertB, lin.size());
        if (to_mu) {
          EncodeMulawBlock(lin, out);
        } else {
          EncodeAlawBlock(lin, out);
        }
        return std::span<const uint8_t>(out);
      };
      ops->convert_record = [to_mu](std::span<const uint8_t> b, bool,
                                    ScratchArena& arena) {
        std::span<int16_t> lin = arena.Lin16(ScratchArena::kConvertA, b.size());
        if (to_mu) {
          DecodeMulawBlock(b, lin);
        } else {
          DecodeAlawBlock(b, lin);
        }
        std::span<uint8_t> out = arena.Bytes(ScratchArena::kConvertB, (b.size() + 1) / 2);
        AdpcmEncodeInto(lin, out);
        return std::span<const uint8_t>(out);
      };
      ops->client_bytes_to_frames = [](size_t n) { return n * 2; };
      ops->frames_to_client_bytes = [](size_t f) { return (f + 1) / 2; };
      ops->samples_per_unit = 2;
      return Status::Ok();
    }
    return Status(AfError::kBadMatch, "unsupported client encoding for companded device");
  }

  if (dev == AEncodeType::kLin16) {
    if (cli == AEncodeType::kLin16) {
      // Pass-through when the client's byte order already matches the host.
      SetSlicedPlay(ops, 2 * channels,
                    [](std::span<const uint8_t> b, bool big, ScratchArena& arena) {
        return SwapLin16IfNeeded(b, big, arena, ScratchArena::kConvertA);
      });
      ops->convert_record = [](std::span<const uint8_t> b, bool big, ScratchArena& arena) {
        return SwapLin16IfNeeded(b, big, arena, ScratchArena::kConvertA);
      };
      ops->client_bytes_to_frames = [channels](size_t n) { return n / 2 / channels; };
      ops->frames_to_client_bytes = [channels](size_t f) { return f * 2 * channels; };
      return Status::Ok();
    }
    if ((cli == AEncodeType::kMu255 || cli == AEncodeType::kAlaw) && channels == 1) {
      const bool cli_is_mu = cli == AEncodeType::kMu255;
      SetSlicedPlay(ops, 1,
                    [cli_is_mu](std::span<const uint8_t> b, bool, ScratchArena& arena) {
        return std::span<const uint8_t>(
            cli_is_mu ? MulawToLin16Bytes(b, arena, ScratchArena::kConvertA)
                      : AlawToLin16Bytes(b, arena, ScratchArena::kConvertA));
      });
      ops->convert_record = [cli_is_mu](std::span<const uint8_t> b, bool,
                                        ScratchArena& arena) {
        return cli_is_mu ? Lin16BytesToMulaw(b, arena, ScratchArena::kConvertA)
                         : Lin16BytesToAlaw(b, arena, ScratchArena::kConvertA);
      };
      ops->client_bytes_to_frames = [](size_t n) { return n; };
      ops->frames_to_client_bytes = [](size_t f) { return f; };
      return Status::Ok();
    }
    if (cli == AEncodeType::kAdpcm32 && channels == 1) {
      ops->convert_play = [](std::span<const uint8_t> b, bool, size_t skip, size_t nframes,
                             ScratchArena& arena) {
        const std::span<const int16_t> lin = AdpcmWindow(b, skip, nframes, arena);
        return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(lin.data()),
                                        lin.size() * 2);
      };
      ops->convert_record = [](std::span<const uint8_t> b, bool, ScratchArena& arena) {
        const auto* lin = reinterpret_cast<const int16_t*>(b.data());
        std::span<uint8_t> out = arena.Bytes(ScratchArena::kConvertB, (b.size() / 2 + 1) / 2);
        AdpcmEncodeInto(std::span<const int16_t>(lin, b.size() / 2), out);
        return std::span<const uint8_t>(out);
      };
      ops->client_bytes_to_frames = [](size_t n) { return n * 2; };
      ops->frames_to_client_bytes = [](size_t f) { return (f + 1) / 2; };
      ops->samples_per_unit = 2;
      return Status::Ok();
    }
    return Status(AfError::kBadMatch, "unsupported client encoding for linear device");
  }

  return Status(AfError::kBadMatch, "device encoding has no conversion modules");
}

void ApplyGainInPlace(AEncodeType encoding, int gain_db, std::span<uint8_t> samples) {
  if (gain_db == 0) {
    return;
  }
  switch (encoding) {
    case AEncodeType::kMu255:
      ApplyMulawGain(gain_db, samples);
      break;
    case AEncodeType::kAlaw:
      ApplyAlawGain(gain_db, samples);
      break;
    default: {
      const std::span<int16_t> lin(reinterpret_cast<int16_t*>(samples.data()),
                                   samples.size() / 2);
      ApplyLin16GainQ15(GainQ15(gain_db), lin, lin);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// BufferedAudioDevice

BufferedAudioDevice::BufferedAudioDevice(DeviceDesc desc, std::unique_ptr<AudioHw> hw)
    : AudioDevice(desc),
      hw_(std::move(hw)),
      play_buf_(NextPow2(4u * desc.play_sample_rate),
                SamplesToBytes(desc.play_encoding, 1, desc.play_nchannels),
                SilenceByteFor(desc.play_encoding)),
      rec_buf_(NextPow2(4u * desc.rec_sample_rate),
               SamplesToBytes(desc.rec_encoding, 1, desc.rec_nchannels),
               SilenceByteFor(desc.rec_encoding)) {
  // Export the true ring sizes as the client-visible buffer attributes.
  desc_.play_buffer_samples = static_cast<uint32_t>(play_buf_.nframes());
  desc_.rec_buffer_samples = static_cast<uint32_t>(rec_buf_.nframes());
  old_counter_ = hw_->ReadCounter();
  ApplyGainHooksInit();
}

void BufferedAudioDevice::ApplyGainHooksInit() { OnIOControlChanged(); }

void BufferedAudioDevice::OnIOControlChanged() {
  hw_->SetOutputGainDb(output_gain_db_);
  hw_->SetInputGainDb(input_gain_db_);
  hw_->SetOutputEnabled(output_enable_mask_ != 0);
  hw_->SetInputEnabled(input_enable_mask_ != 0);
}

ATime BufferedAudioDevice::GetTime() {
  const uint32_t counter = hw_->ReadCounter();
  const unsigned bits = hw_->CounterBits();
  const uint32_t mask = bits >= 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  const uint32_t delta = (counter - old_counter_) & mask;
  old_counter_ = counter;
  time0_ += delta;
  return time0_;
}

unsigned BufferedAudioDevice::UpdatePeriodMs() const {
  // Update at half the hardware ring's drain time so the DAC never starves
  // (the paper used 100 ms against a 125 ms CODEC ring).
  const uint64_t drain_ms =
      static_cast<uint64_t>(hw_->RingFrames()) * 1000u / desc_.play_sample_rate;
  const uint64_t period = drain_ms / 2;
  return period == 0 ? 1 : static_cast<unsigned>(period);
}

MixMode BufferedAudioDevice::MixModeForDevice() const {
  switch (desc_.play_encoding) {
    case AEncodeType::kMu255:
      return MixMode::kMixMulaw;
    case AEncodeType::kAlaw:
      return MixMode::kMixAlaw;
    default:
      return MixMode::kMixLin16;
  }
}

Status BufferedAudioDevice::MakeACOps(const ACAttributes& attrs, ACOps* ops) {
  return BuildStandardACOps(desc_, attrs, ops);
}

void BufferedAudioDevice::SeedTimeForTest(ATime t) {
  old_counter_ = hw_->ReadCounter();
  time0_ = t;
  time_last_updated_ = t;
  time_next_update_ = t;
  time_last_valid_ = t;
  time_rec_last_updated_ = t;
}

void BufferedAudioDevice::Update() {
  metrics_.updates.Add();
  // Open a new fan-in window: distinct play sources are counted per
  // update period (each AC remembers the epoch it last played in).
  ++fanin_epoch_;
  fanin_window_sources_ = 0;
  const ATime now = GetTime();
  if (lazy_silence_fill_) {
    if (rec_ref_count_ > 0) {
      RecordUpdate(now);
    } else {
      // Keep the record cursor within the retained hardware window so the
      // first record request after a long idle period stays wrap-safe.
      // Data before it is simply gone - the paper's documented caveat for
      // clients that start up and immediately record from the past.
      const ATime floor = now - static_cast<ATime>(hw_->RingFrames());
      if (TimeBefore(time_rec_last_updated_, floor)) {
        time_rec_last_updated_ = floor;
      }
    }
  } else {
    RecordUpdate(now);
  }
  PlayUpdate(now);
}

void BufferedAudioDevice::PlayUpdate(ATime now) {
  const size_t fb = play_buf_.frame_bytes();
  const ATime target = now + static_cast<ATime>(hw_->RingFrames());

  if (TimeBefore(time_last_valid_, now)) {
    time_last_valid_ = now;
  }

  ATime from = time_next_update_;
  if (TimeBefore(from, now)) {
    // Underrun: the hardware already consumed (and backfilled) the region
    // between the last update target and now.
    const uint64_t lost = static_cast<uint64_t>(TimeDelta(now, from));
    metrics_.play_underruns.Add();
    metrics_.play_underrun_samples.Add(lost);
    TraceDeviceEvent(TraceKind::kUnderrun, desc_.index, now, lost);
    from = now;
  }
  if (TimeAtOrAfter(from, target)) {
    time_last_updated_ = now;
    return;
  }

  if (lazy_silence_fill_) {
    // Copy only valid client data; the rest of the hardware window gets
    // silence written directly (the server buffer is never refilled).
    const ATime valid_end = TimeMin(time_last_valid_, target);
    if (TimeAfter(valid_end, from)) {
      const size_t frames = static_cast<size_t>(valid_end - from);
      std::span<uint8_t> stage = arena_.Bytes(ScratchArena::kStage, frames * fb);
      play_buf_.Read(from, stage);
      hw_->WritePlay(from, stage);
      from = valid_end;
    }
    if (TimeAfter(target, from)) {
      const size_t frames = static_cast<size_t>(target - from);
      metrics_.silence_filled_frames.Add(frames);
      TraceDeviceEvent(TraceKind::kSilenceFill, desc_.index, from, frames);
      hw_->FillPlaySilence(from, frames);
    }
  } else {
    // Baseline: copy the whole window and eagerly silence-fill the region
    // that just slid into the past (double-writes the play buffer).
    const size_t frames = static_cast<size_t>(target - from);
    std::span<uint8_t> stage = arena_.Bytes(ScratchArena::kStage, frames * fb);
    play_buf_.Read(from, stage);
    hw_->WritePlay(from, stage);
    if (TimeAfter(now, time_last_updated_)) {
      // The eager fill is silence-filling just like the lazy path's gap
      // fill; it must count the same way or the baseline under-reports
      // (the preempt/mix accounting audit caught it missing).
      const size_t filled = static_cast<size_t>(now - time_last_updated_);
      metrics_.silence_filled_frames.Add(filled);
      TraceDeviceEvent(TraceKind::kSilenceFill, desc_.index, time_last_updated_, filled);
      play_buf_.FillSilence(time_last_updated_, filled);
    }
  }

  time_last_updated_ = now;
  time_next_update_ = target;
}

void BufferedAudioDevice::RecordUpdate(ATime now) {
  const size_t fb = rec_buf_.frame_bytes();
  ATime from = time_rec_last_updated_;
  if (TimeAtOrAfter(from, now)) {
    return;
  }
  // The hardware ring only retains RingFrames of history; anything older
  // was lost while the record update was gated off.
  const ATime oldest = now - static_cast<ATime>(hw_->RingFrames());
  if (TimeBefore(from, oldest)) {
    const size_t lost = static_cast<size_t>(oldest - from);
    metrics_.record_overruns.Add();
    metrics_.record_overrun_frames.Add(lost);
    TraceDeviceEvent(TraceKind::kRecordOverrun, desc_.index, now, lost);
    rec_buf_.FillSilence(from, std::min(lost, rec_buf_.nframes()));
    from = oldest;
  }
  const size_t frames = static_cast<size_t>(now - from);
  if (frames > 0) {
    std::span<uint8_t> stage = arena_.Bytes(ScratchArena::kStage, frames * fb);
    hw_->ReadRecord(from, stage);
    rec_buf_.Write(from, stage, MixMode::kCopy);
  }
  time_rec_last_updated_ = now;
}

void BufferedAudioDevice::ReleaseRecordRef() {
  if (rec_ref_count_ > 0) {
    --rec_ref_count_;
  }
}

Status BufferedAudioDevice::PlayOnChannel(ServerAC& ac, ATime start,
                                          std::span<const uint8_t> client_bytes,
                                          bool big_endian, int channel, PlayOutcome* out) {
  const ATime now = GetTime();
  out->device_time = now;
  out->consumed_client_bytes = client_bytes.size();
  out->would_block = false;

  const size_t total_frames = ac.ops.client_bytes_to_frames(client_bytes.size());
  if (total_frames == 0) {
    return Status::Ok();
  }
  const ATime end = start + static_cast<ATime>(total_frames);

  // Frames scheduled for the past are consumed but never reach the buffer
  // - the request-side samples lost. Counted identically on the preempt
  // and mix paths (the loss happens before the branch).
  const auto discard = [&](size_t frames) {
    if (frames == 0) {
      return;
    }
    metrics_.play_discarded_frames.Add(frames);
    TraceDeviceEvent(TraceKind::kPlayDiscard, desc_.index, now, frames);
  };

  // Entirely in the past: silently discarded (Section 2.2).
  if (TimeAtOrBefore(end, now)) {
    discard(total_frames);
    return Status::Ok();
  }

  // Clip the part scheduled for the past.
  ATime eff_start = start;
  size_t skip_frames = 0;
  if (TimeBefore(start, now)) {
    skip_frames = static_cast<size_t>(now - start);
    eff_start = now;
  }

  // The play buffer ends at the device time of the last update plus the
  // buffer size (Section 7.2).
  const ATime window_end = time_last_updated_ + static_cast<ATime>(play_buf_.nframes());
  if (TimeAtOrAfter(eff_start, window_end)) {
    discard(skip_frames);
    out->consumed_client_bytes = ac.ops.frames_to_client_bytes(skip_frames);
    out->would_block = true;
    out->resume_time = TimeMax(end - static_cast<ATime>(play_buf_.nframes()) +
                                   static_cast<ATime>(hw_->RingFrames()),
                               now + static_cast<ATime>(hw_->RingFrames() / 2 + 1));
    return Status::Ok();
  }

  const size_t fit_frames =
      std::min(total_frames - skip_frames, static_cast<size_t>(window_end - eff_start));

  // Unit-coded streams (ADPCM nibbles) cannot be split at arbitrary frame
  // offsets across a suspension, so they are written all-or-nothing; the
  // library's 8K chunking keeps well under the buffer, and a single
  // request that could never fit is rejected outright.
  if (ac.ops.samples_per_unit > 1 && fit_frames < total_frames - skip_frames) {
    if (total_frames > play_buf_.nframes()) {
      return Status(AfError::kBadValue, "unit-coded request larger than the play buffer");
    }
    out->consumed_client_bytes = 0;
    out->would_block = true;
    out->resume_time = TimeMax(end - static_cast<ATime>(play_buf_.nframes()) +
                                   static_cast<ATime>(hw_->RingFrames()),
                               now + static_cast<ATime>(hw_->RingFrames() / 2 + 1));
    return Status::Ok();
  }

  const ATime write_end = eff_start + static_cast<ATime>(fit_frames);
  // The clipped prefix is consumed with the rest of the request from here
  // on; count it lost now that every early-out has passed.
  discard(skip_frames);

  // Fan-in window accounting: this AC is a distinct source of the current
  // update window if it has not played since the window opened.
  if (ac.play_epoch != fanin_epoch_) {
    ac.play_epoch = fanin_epoch_;
    ++fanin_window_sources_;
    if (fanin_window_sources_ > fanin_hw_) {
      metrics_.mix_fanin_hw.Add(fanin_window_sources_ - fanin_hw_);
      fanin_hw_ = fanin_window_sources_;
    }
  }
  const bool shared_window = fanin_window_sources_ > 1;

  // Convert exactly the window being written (the module sees the whole
  // request so stateful encodings decode from the stream start). The
  // result aliases the arena - or the request itself when the encoding
  // matches the device and no endian swap is needed (pass-through).
  std::span<const uint8_t> device_bytes =
      ac.ops.convert_play(client_bytes, big_endian, skip_frames, fit_frames, arena_);
  // Arena ownership distinguishes a staged conversion from a zero-copy
  // window of the client's own request bytes.
  if (arena_.Owns(device_bytes.data())) {
    metrics_.converted_plays.Add();
  } else {
    metrics_.passthrough_plays.Add();
  }
  // Per-source gain stage, carried into the buffer write itself so each
  // party of a fan-in mix costs one pass per region.
  const int gain_db = std::clamp(ac.attrs.play_gain_db, kGainMinDb, kGainMaxDb);
  DeviceBuffer::WriteGain gain;
  if (gain_db != 0) {
    gain.db = gain_db;
    gain.q15 = GainQ15(gain_db);
    metrics_.gain_fused_writes.Add();
  }

  const bool preempt = ac.attrs.preempt != 0;
  if (preempt) {
    metrics_.preempt_writes.Add();
    if (shared_window) {
      metrics_.preempt_clobber_writes.Add();
    }
  } else {
    metrics_.mixed_writes.Add();
    if (shared_window) {
      metrics_.mix_shared_writes.Add();
    }
  }
  TraceDeviceEvent(preempt ? TraceKind::kPreemptWrite : TraceKind::kMixWrite,
                     desc_.index, eff_start, fit_frames);
  // Writes [t, t + n) of device_bytes into the play buffer, mixing or
  // copying, full-frame or strided into one channel of the interleaved
  // frames (mono sub-device case), with the per-source gain folded in.
  const auto write_frames = [&](ATime t, size_t frame_offset, size_t n, bool mix) {
    if (n == 0) {
      return;
    }
    if (channel < 0) {
      const size_t fb = play_buf_.frame_bytes();
      const std::span<const uint8_t> part(device_bytes.data() + frame_offset * fb, n * fb);
      play_buf_.WriteGained(t, part, MixModeForDevice(), mix, gain);
    } else {
      const auto* mono = reinterpret_cast<const int16_t*>(device_bytes.data());
      play_buf_.WriteLin16Channel(t, std::span<const int16_t>(mono + frame_offset, n),
                                  static_cast<unsigned>(channel), mix, gain.q15);
    }
  };

  if (lazy_silence_fill_) {
    // Lazy silence fill: the gap between the last valid sample and this
    // request has stale bytes; fill it now (Section 7.4.1).
    if (TimeBefore(time_last_valid_, now)) {
      time_last_valid_ = now;
    }
    if (TimeAfter(eff_start, time_last_valid_)) {
      const size_t gap = static_cast<size_t>(eff_start - time_last_valid_);
      metrics_.silence_filled_frames.Add(gap);
      TraceDeviceEvent(TraceKind::kSilenceFill, desc_.index, time_last_valid_, gap);
      play_buf_.FillSilence(time_last_valid_, gap);
    }
    if (preempt) {
      write_frames(eff_start, 0, fit_frames, /*mix=*/false);
    } else {
      // Mix before timeLastValid, copy after. The interval cannot wrap:
      // write_end is eff_start plus a non-negative frame count.
      const ATime mix_end = TimeClamp(time_last_valid_, eff_start, write_end);
      const size_t mix_frames = TimeAfter(mix_end, eff_start)
                                    ? static_cast<size_t>(mix_end - eff_start)
                                    : 0;
      write_frames(eff_start, 0, mix_frames, /*mix=*/true);
      write_frames(eff_start + static_cast<ATime>(mix_frames), mix_frames,
                   fit_frames - mix_frames, /*mix=*/false);
    }
    time_last_valid_ = TimeMax(time_last_valid_, write_end);
  } else {
    // Baseline: buffer is always silence-filled, so mixing is always valid.
    write_frames(eff_start, 0, fit_frames, /*mix=*/!preempt);
    time_last_valid_ = TimeMax(time_last_valid_, write_end);
  }

  // Write-through: the region already pushed to the hardware must be
  // patched there as well (Section 7.2's update-region special case).
  if (TimeBefore(eff_start, time_next_update_)) {
    const ATime wt_end = TimeMin(write_end, time_next_update_);
    const size_t frames = static_cast<size_t>(wt_end - eff_start);
    if (frames > 0) {
      const size_t fb = play_buf_.frame_bytes();
      std::span<uint8_t> stage = arena_.Bytes(ScratchArena::kStage, frames * fb);
      play_buf_.Read(eff_start, stage);
      hw_->WritePlay(eff_start, stage);
    }
  }

  const size_t consumed_frames = skip_frames + fit_frames;
  out->consumed_client_bytes = ac.ops.frames_to_client_bytes(consumed_frames);
  if (consumed_frames < total_frames) {
    out->would_block = true;
    out->resume_time = TimeMax(end - static_cast<ATime>(play_buf_.nframes()) +
                                   static_cast<ATime>(hw_->RingFrames()),
                               now + static_cast<ATime>(hw_->RingFrames() / 2 + 1));
  }
  return Status::Ok();
}

Status BufferedAudioDevice::RecordOnChannel(ServerAC& ac, ATime start, size_t client_nbytes,
                                            bool big_endian, bool no_block, int channel,
                                            std::span<const uint8_t>* data,
                                            RecordOutcome* out) {
  if (!ac.recording) {
    ac.recording = true;
    AddRecordRef();
  }

  const ATime now = GetTime();
  out->device_time = now;
  out->returned_bytes = 0;
  out->would_block = false;
  *data = {};

  size_t frames = ac.ops.client_bytes_to_frames(client_nbytes);
  if (frames == 0) {
    return Status::Ok();
  }
  ATime end = start + static_cast<ATime>(frames);

  if (TimeAfter(end, now)) {
    if (!no_block) {
      out->would_block = true;
      out->ready_time = end;
      return Status::Ok();
    }
    // Non-blocking: return whatever is available now.
    if (TimeAtOrAfter(start, now)) {
      return Status::Ok();
    }
    end = now;
    frames = static_cast<size_t>(end - start);
  }

  if (TimeAfter(end, time_rec_last_updated_)) {
    RecordUpdate(now);
  }

  // Gather device frames into the staging slot; anything older than the
  // record buffer is served as silence (Section 2.3). RecordUpdate above
  // also uses kStage but has fully consumed it by now.
  const size_t fb = rec_buf_.frame_bytes();
  std::span<uint8_t> stage = arena_.Bytes(ScratchArena::kStage, frames * fb);
  const ATime oldest = now - static_cast<ATime>(rec_buf_.nframes());
  ATime cursor = start;
  size_t offset = 0;
  if (TimeBefore(cursor, oldest)) {
    const size_t silent = std::min(frames, static_cast<size_t>(oldest - cursor));
    std::memset(stage.data(), rec_buf_.silence_byte(), silent * fb);
    cursor += static_cast<ATime>(silent);
    offset = silent;
  }
  if (offset < frames) {
    rec_buf_.Read(cursor, stage.subspan(offset * fb, (frames - offset) * fb));
  }

  std::span<uint8_t> device_bytes = stage;
  if (channel >= 0) {
    // Mono sub-device: extract one interleaved channel before conversion.
    std::span<int16_t> mono16 = arena_.Lin16(ScratchArena::kChannel, frames);
    const unsigned nchannels = static_cast<unsigned>(fb / 2);
    const auto* frames16 = reinterpret_cast<const int16_t*>(stage.data());
    for (size_t i = 0; i < frames; ++i) {
      mono16[i] = frames16[i * nchannels + static_cast<unsigned>(channel)];
    }
    device_bytes = std::span<uint8_t>(reinterpret_cast<uint8_t*>(mono16.data()), frames * 2);
  }
  // The context's record gain, applied in the device encoding before
  // conversion with the play path's kernels (a mono view's channel is
  // lin16, like its parent's frames).
  ApplyGainInPlace(desc_.rec_encoding,
                   std::clamp(ac.attrs.record_gain_db, kGainMinDb, kGainMaxDb),
                   device_bytes);
  *data = ac.ops.convert_record(device_bytes, big_endian, arena_);
  out->returned_bytes = data->size();
  return Status::Ok();
}

}  // namespace af
