// The device-dependent audio (DDA) interface and the shared buffered-device
// implementation.
//
// The paper's server is split into device-independent audio (DIA), which
// owns connections, dispatching, and the main loop, and device-dependent
// audio (DDA), which presents one abstract device per piece of hardware
// (CRL 93/8 Section 7.3). AudioDevice is that boundary: the dispatcher
// calls through it for time, play, record, telephony, and device control.
//
// Threading: a device is not thread-safe. In a sharded server any shard
// may call it, so every caller holds the owning shard's device lock
// (AFServer::device_mutex) - dispatch for the call plus the reply encode,
// the owner's update task around Update(). Devices assert nothing about
// the lock: standalone use (tests, benchmarks) needs none.
//
// BufferedAudioDevice implements the paper's buffering design (Section 7.2)
// over an AudioHw - the hardware abstraction our simulated DAC/ADC rings
// stand behind: a periodic update task keeps the hardware ring consistent
// with the server's circular play buffer, requests in the update regions
// write through / force an update, timeLastValid makes silence fill lazy,
// and a count of recording contexts gates the record update.
#ifndef AF_SERVER_AUDIO_DEVICE_H_
#define AF_SERVER_AUDIO_DEVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/atime.h"
#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "proto/events.h"
#include "proto/setup.h"
#include "proto/stats.h"
#include "proto/types.h"
#include "server/audio_context.h"
#include "server/device_buffer.h"
#include "server/scratch_arena.h"

namespace af {

struct PlayOutcome {
  ATime device_time = 0;          // current device time, for the reply
  size_t consumed_client_bytes = 0;  // how much of the request was written
  bool would_block = false;       // remainder is beyond the near future
  ATime resume_time = 0;          // device time at which to retry
};

struct RecordOutcome {
  ATime device_time = 0;
  size_t returned_bytes = 0;
  bool would_block = false;  // request extends into the future and blocking
  ATime ready_time = 0;      // device time at which all data will exist
};

// Per-device health counters (wire order documented in PROTOCOL.md under
// GetServerStats; names in proto/stats.cc must match). All members follow
// the metrics hot-path contract: recording is lock- and allocation-free.
struct DeviceMetrics {
  Counter play_underruns;         // PlayUpdate ran after the hw drained its window
  Counter play_underrun_samples;  // samples the hardware backfilled across those
  Counter record_overruns;        // RecordUpdate found history lost off the hw ring
  Counter record_overrun_frames;  // frames lost (served as silence) across those
  Counter silence_filled_frames;  // play-side frames lazily filled with silence
  Counter preempt_writes;         // play requests written preemptively
  Counter mixed_writes;           // play requests mixed into existing data
  Counter passthrough_plays;      // play conversions that were zero-copy
  Counter converted_plays;        // play conversions staged through the arena
  Counter updates;                // periodic Update() runs
  // Fan-in accounting (PR 7, conference bridge). Every device call holds
  // the owner's device lock, so the high-water counter can be maintained
  // by adding the delta whenever a window beats the previous maximum.
  Counter play_discarded_frames;  // play frames clipped to the past (never buffered)
  Counter mix_shared_writes;      // mixed writes with >= 2 sources in the window
  Counter preempt_clobber_writes; // preempt writes with >= 2 sources in the window
  Counter mix_fanin_hw;           // max distinct play sources in one update window
  Counter gain_fused_writes;      // writes that took the fused gain+mix path
  Histogram update_lag_micros;    // scheduled deadline vs actual run time
};

// The counters in kDeviceCounterNames wire order (proto/stats.h).
inline std::array<const Counter*, kNumDeviceCounters> DeviceCounterList(
    const DeviceMetrics& m) {
  return {&m.play_underruns, &m.play_underrun_samples, &m.record_overruns,
          &m.record_overrun_frames, &m.silence_filled_frames, &m.preempt_writes,
          &m.mixed_writes, &m.passthrough_plays, &m.converted_plays, &m.updates,
          &m.play_discarded_frames, &m.mix_shared_writes, &m.preempt_clobber_writes,
          &m.mix_fanin_hw, &m.gain_fused_writes};
}

// DDA interface: one instance per abstract audio device.
class AudioDevice {
 public:
  explicit AudioDevice(DeviceDesc desc) : desc_(desc) {}
  virtual ~AudioDevice() = default;

  AudioDevice(const AudioDevice&) = delete;
  AudioDevice& operator=(const AudioDevice&) = delete;

  const DeviceDesc& desc() const { return desc_; }
  DeviceId id() const { return desc_.index; }
  void set_id(DeviceId id) { desc_.index = id; }

  // Health counters; recorded by the device itself (and by the server's
  // update scheduler for update_lag_micros), read by GetServerStats.
  DeviceMetrics& metrics() { return metrics_; }
  const DeviceMetrics& metrics() const { return metrics_; }

  // Installed by the server; devices post events through it (the paper's
  // ProcessInputEvents -> FilterEvents path).
  using EventSink = std::function<void(AEvent)>;
  void SetEventSink(EventSink sink) { event_sink_ = std::move(sink); }

  // Current device time (updates the server's time register from the
  // hardware counter).
  virtual ATime GetTime() = 0;

  // Periodic update task body; the server schedules it every
  // UpdatePeriodMs() milliseconds.
  virtual void Update() = 0;
  virtual unsigned UpdatePeriodMs() const = 0;

  // Builds conversion handlers for a client encoding; kBadMatch when the
  // device cannot convert it.
  virtual Status MakeACOps(const ACAttributes& attrs, ACOps* ops) = 0;

  // Audio paths. Both return the current device time in the outcome as a
  // convenience to the client (Section 5.7). Record's data span aliases the
  // device's scratch arena (or its internal buffers) and stays valid until
  // the next play/record/update call on the same device - callers must
  // serialize the bytes before releasing the device lock (dispatch encodes
  // the reply under it).
  virtual Status Play(ServerAC& ac, ATime start, std::span<const uint8_t> client_bytes,
                      bool big_endian, PlayOutcome* out) = 0;
  virtual Status Record(ServerAC& ac, ATime start, size_t client_nbytes, bool big_endian,
                        bool no_block, std::span<const uint8_t>* data, RecordOutcome* out) = 0;

  // Recording-context reference counting (gates the record update).
  virtual void AddRecordRef() {}
  virtual void ReleaseRecordRef() {}

  // Device control. Gains are in dB; enable masks are bit-per-connector.
  virtual Status SetInputGain(int db);
  virtual Status SetOutputGain(int db);
  int input_gain_db() const { return input_gain_db_; }
  int output_gain_db() const { return output_gain_db_; }
  virtual Status EnableInput(uint32_t mask);
  virtual Status DisableInput(uint32_t mask);
  virtual Status EnableOutput(uint32_t mask);
  virtual Status DisableOutput(uint32_t mask);
  uint32_t input_enable_mask() const { return input_enable_mask_; }
  uint32_t output_enable_mask() const { return output_enable_mask_; }

  // Telephony; defaults reject with kBadMatch on non-telephone devices.
  virtual Status HookSwitch(bool off_hook);
  virtual Status FlashHook(unsigned duration_ms);
  virtual Status QueryPhone(bool* off_hook, bool* loop_current);
  virtual Status SetPassThrough(AudioDevice* other, bool enable);
  // "Not for general use" AGC toggles; accepted as no-ops by default so the
  // requests stay wire-compatible.
  virtual Status SetGainControl(bool enabled);

  // Failover promotion: fast-forwards the device time model to at least t
  // so times stamped by the dead primary stay in this server's past.
  // Default no-op for devices without a seedable time model.
  virtual void FastForwardTime(ATime t) { (void)t; }

 protected:
  void PostEvent(AEvent event) {
    TraceDeviceEvent(TraceKind::kDeviceEvent, desc_.index, event.dev_time, event.detail,
                     static_cast<uint8_t>(event.type));
    if (event_sink_) {
      event.device = desc_.index;
      event_sink_(std::move(event));
    }
  }
  // Hook for subclasses when gains/enables change.
  virtual void OnIOControlChanged() {}

  DeviceDesc desc_;
  EventSink event_sink_;
  DeviceMetrics metrics_;
  int input_gain_db_ = 0;
  int output_gain_db_ = 0;
  uint32_t input_enable_mask_ = ~0u;
  uint32_t output_enable_mask_ = ~0u;
};

// Hardware abstraction behind BufferedAudioDevice. Times are in device
// sample frames. The hardware keeps a small play/record ring (the paper's
// 1024-sample CODEC rings, 4096-sample HiFi rings) and a sample counter of
// possibly fewer than 32 bits.
class AudioHw {
 public:
  virtual ~AudioHw() = default;

  // Raw hardware sample counter, truncated to CounterBits(). Reading the
  // counter advances the simulation (the DAC consumes, the ADC produces).
  virtual uint32_t ReadCounter() = 0;
  virtual unsigned CounterBits() const = 0;

  virtual size_t RingFrames() const = 0;
  virtual size_t FrameBytes() const = 0;

  // Writes play frames for [t, t + bytes/FrameBytes()).
  virtual void WritePlay(ATime t, std::span<const uint8_t> bytes) = 0;
  // Fills the hardware play ring with silence for [t, t + nframes).
  virtual void FillPlaySilence(ATime t, size_t nframes) = 0;
  // Reads record frames for [t, t + out.size()/FrameBytes()).
  virtual void ReadRecord(ATime t, std::span<uint8_t> out) = 0;

  // Volume controls implemented "in hardware" (Section 2.2/2.3).
  virtual void SetOutputGainDb(int db) = 0;
  virtual void SetInputGainDb(int db) = 0;
  virtual void SetOutputEnabled(bool enabled) = 0;
  virtual void SetInputEnabled(bool enabled) = 0;
};

// The shared buffering implementation used by the CODEC, HiFi and phone
// devices (the LineServer device manages its own remote buffers).
class BufferedAudioDevice : public AudioDevice {
 public:
  BufferedAudioDevice(DeviceDesc desc, std::unique_ptr<AudioHw> hw);

  ATime GetTime() override;
  void Update() override;
  unsigned UpdatePeriodMs() const override;

  Status MakeACOps(const ACAttributes& attrs, ACOps* ops) override;
  Status Play(ServerAC& ac, ATime start, std::span<const uint8_t> client_bytes,
              bool big_endian, PlayOutcome* out) override {
    return PlayOnChannel(ac, start, client_bytes, big_endian, -1, out);
  }
  Status Record(ServerAC& ac, ATime start, size_t client_nbytes, bool big_endian,
                bool no_block, std::span<const uint8_t>* data, RecordOutcome* out) override {
    return RecordOnChannel(ac, start, client_nbytes, big_endian, no_block, -1, data, out);
  }

  // Channel-view variants used by mono sub-devices layered on this device's
  // stereo buffers (channel = -1 means all channels / full frames; channel
  // >= 0 means the AC's ops yield mono lin16 that is strided into the
  // interleaved frames).
  Status PlayOnChannel(ServerAC& ac, ATime start, std::span<const uint8_t> client_bytes,
                       bool big_endian, int channel, PlayOutcome* out);
  Status RecordOnChannel(ServerAC& ac, ATime start, size_t client_nbytes, bool big_endian,
                         bool no_block, int channel, std::span<const uint8_t>* data,
                         RecordOutcome* out);

  void AddRecordRef() override { ++rec_ref_count_; }
  void ReleaseRecordRef() override;

  // Ablation toggle: when false, reverts to the paper's first, unoptimized
  // implementation that silence-fills eagerly on every update and always
  // runs the play/record updates (Section 7.4.1's "Performance
  // Considerations" baseline). Benchmarked by bench_ablation.
  void SetLazySilenceFill(bool lazy) { lazy_silence_fill_ = lazy; }

  // Ablation toggle for the per-source gain stage: when true (default) a
  // non-zero AC play gain is folded into the buffer write itself
  // (DeviceBuffer::WriteGained, one pass per region); when false the
  // two-pass baseline runs (ApplyPlayGain staging copy, then Write). Both
  // produce bit-identical buffers; the bridge tests assert it.
  void SetFusedGain(bool fused) { fused_gain_ = fused; }

  // Test hook: moves the whole time model to t (all time registers and the
  // hardware-counter baseline set consistently, buffers untouched) so wrap
  // behaviour can be exercised without simulating 2^32 samples.
  void SeedTimeForTest(ATime t);

  // Promotion fast-forward rides on the same mechanism: only ever moves
  // time forward.
  void FastForwardTime(ATime t) override {
    if (TimeAfter(t, GetTime())) {
      SeedTimeForTest(t);
    }
  }

  // Introspection for tests.
  ATime time_last_valid() const { return time_last_valid_; }
  ATime time_next_update() const { return time_next_update_; }
  ATime time_rec_last_updated() const { return time_rec_last_updated_; }
  int rec_ref_count() const { return rec_ref_count_; }
  DeviceBuffer& play_buffer() { return play_buf_; }
  DeviceBuffer& rec_buffer() { return rec_buf_; }
  AudioHw& hw() { return *hw_; }
  ScratchArena& arena() { return arena_; }

 protected:
  void OnIOControlChanged() override;

  // Applies the AC play gain to device-encoded bytes. Arena-owned input is
  // mutated in place; pass-through client data is translated into the
  // arena's gain slot instead (the input is const). Returns the span
  // holding the post-gain bytes (the input itself when gain is 0 dB).
  std::span<const uint8_t> ApplyPlayGain(int gain_db, std::span<const uint8_t> device_bytes);
  MixMode MixModeForDevice() const;

  void PlayUpdate(ATime now);
  void RecordUpdate(ATime now);

  std::unique_ptr<AudioHw> hw_;
  DeviceBuffer play_buf_;
  DeviceBuffer rec_buf_;

  // The paper's time registers.
  ATime time0_ = 0;            // server's view of device time
  uint32_t old_counter_ = 0;   // previous hardware counter sample
  ATime time_last_updated_ = 0;
  ATime time_next_update_ = 0;     // hw has play data through this time
  ATime time_last_valid_ = 0;      // end of valid client play data
  ATime time_rec_last_updated_ = 0;
  int rec_ref_count_ = 0;
  bool lazy_silence_fill_ = true;
  bool fused_gain_ = true;

  // Fan-in window state (under the device lock, like everything else in
  // the device). Update() opens a new window; each play compares its AC's
  // last-seen epoch to count distinct sources.
  uint64_t fanin_epoch_ = 1;
  uint64_t fanin_window_sources_ = 0;
  uint64_t fanin_hw_ = 0;

 private:
  void ApplyGainHooksInit();
  // Rate-limited (about one line per second per device, with a suppressed
  // count) so a soak with a starved consumer cannot flood stderr.
  void WarnUnderrun(uint64_t samples);

  RateLimitedLog underrun_log_;

  // Staging buffers for updates, conversions, gain, and channel
  // extraction. Grow-only: the streaming path allocates nothing once the
  // traffic's high-water sizes have been seen.
  ScratchArena arena_;
};

// Builds the standard conversion modules between a client encoding and a
// device's native encoding. Shared by the concrete devices.
Status BuildStandardACOps(const DeviceDesc& desc, const ACAttributes& attrs, ACOps* ops);

}  // namespace af

#endif  // AF_SERVER_AUDIO_DEVICE_H_
