// The conference bridge: N scripted telephone parties mixing into one
// shared device, with DTMF-driven talker arbitration.
//
// Each party is a VirtualPhoneLine whose far end is scripted (a
// distinguishable talk tone plus Touch-Tone key presses), its own
// AFAudioConn, and a mixing AC on the shared bridge device. The bridge
// runs a Goertzel DtmfDetector over every party's line audio: '*' grabs
// the floor - the grabber keeps live_gain_db and every other party's AC is
// retuned to muted_gain_db through AFChangeACAttributes - and '#' from the
// holder reopens the floor. The per-party gain is applied server-side on
// the shared-device write (the fused gain+mix path), so the bridge itself
// never touches sample data beyond generating it.
//
// This is the fan-in counterpart of bench_fanout's fan-out: many sources
// into one device is the hard cross-shard case (every shard's parties
// contend for the device owner's lock), and bench_bridge
// drives this core across the parties x shards grid.
#include <cstring>

#include "clients/cores.h"
#include "common/clock.h"
#include "devices/phone_line.h"
#include "dsp/dtmf.h"
#include "dsp/goertzel.h"
#include "proto/requests.h"

namespace af {

namespace {

struct BridgeParty {
  std::unique_ptr<AFAudioConn> conn;
  AC* ac = nullptr;
  std::unique_ptr<VirtualPhoneLine> line;
  std::unique_ptr<DtmfDetector> detector;
  std::vector<uint8_t> talk_tone;   // one block of this party's tone
  std::vector<bool> press_block;    // blocks covered by a scripted key press
  int gain_db = 0;
};

struct FleetMember {
  std::unique_ptr<AFAudioConn> conn;
  AC* ac = nullptr;
  std::vector<uint8_t> greeting;  // looping greeting + beep, mu-law
  size_t cursor = 0;
};

// Party talk tones stay clear of the DTMF rows (697-941 Hz) and columns
// (1209-1633 Hz) so the arbitration detectors only ever fire on the
// scripted key presses.
std::vector<uint8_t> MakeTalkTone(size_t party, size_t block_frames, unsigned rate) {
  std::vector<uint8_t> tone(block_frames);
  const double f1 = 260.0 + 30.0 * static_cast<double>(party % 10);
  const double f2 = 1900.0 + 60.0 * static_cast<double>(party % 12);
  AFTonePair(f1, -16.0, f2, -18.0, rate, /*gainramp_samples=*/0, tone);
  return tone;
}

}  // namespace

Result<AbridgeResult> RunAbridge(const AbridgeOptions& options) {
  if (!options.connect) {
    return Status(AfError::kBadValue, "abridge: options.connect is required");
  }
  if (options.parties == 0 || options.block_frames == 0) {
    return Status(AfError::kBadValue, "abridge: parties and block_frames must be > 0");
  }

  AbridgeResult result;
  const size_t bf = options.block_frames;

  // The scripted key presses: explicit, or a rotating-grab default when
  // the arbitration runs on DTMF.
  std::vector<AbridgeKeyPress> script = options.script;
  if (script.empty() && options.detect_dtmf && options.floor_rotate_blocks == 0 &&
      options.blocks > 4) {
    const size_t gap = std::max<size_t>(4, options.blocks / std::max<size_t>(options.parties, 2));
    size_t j = 0;
    for (size_t b = 1; b + 3 < options.blocks; b += gap, ++j) {
      script.push_back({b, j % options.parties, '*'});
    }
  }
  // A press occupies the dial string's frames starting at its block.
  const size_t press_frames = SynthesizeDialString("*", options.sample_rate).size();
  const size_t press_blocks = (press_frames + bf - 1) / bf;

  // --- bring up the parties -----------------------------------------------
  std::vector<BridgeParty> parties(options.parties);
  DeviceId bridge_dev = 0;
  ATime t0 = 0;
  for (size_t i = 0; i < parties.size(); ++i) {
    BridgeParty& p = parties[i];
    auto conn = options.connect(i);
    if (!conn.ok()) {
      return conn.status();
    }
    p.conn = conn.take();
    if (i == 0) {
      auto dev = PickDevice(*p.conn, options.device, /*phone=*/false);
      if (!dev.ok()) {
        return dev.status();
      }
      bridge_dev = dev.value();
      auto now = p.conn->GetTime(bridge_dev);
      if (!now.ok()) {
        return now.status();
      }
      t0 = now.value() +
           SecondsToTicks(options.lead_seconds, options.sample_rate);
    }
    ACAttributes attrs;
    attrs.preempt = 0;  // parties mix
    attrs.encoding = AEncodeType::kMu255;
    attrs.play_gain_db = options.live_gain_db;
    auto ac = p.conn->CreateAC(bridge_dev,
                               kACPreemption | kACEncodingType | kACPlayGain, attrs);
    if (!ac.ok()) {
      return ac.status();
    }
    p.ac = ac.value();
    p.gain_db = options.live_gain_db;

    p.line = std::make_unique<VirtualPhoneLine>(options.sample_rate);
    p.line->SetHook(true);  // the party is on the call
    if (options.detect_dtmf) {
      p.detector = std::make_unique<DtmfDetector>(options.sample_rate);
    }
    p.talk_tone = MakeTalkTone(i, bf, options.sample_rate);
    p.press_block.assign(options.blocks, false);
    for (const AbridgeKeyPress& k : script) {
      if (k.party != i) {
        continue;
      }
      p.line->FarEndSendDigits(static_cast<ATime>(k.block * bf), std::string(1, k.digit));
      for (size_t b = k.block; b < std::min(options.blocks, k.block + press_blocks); ++b) {
        p.press_block[b] = true;
      }
    }
  }

  // --- background fleet ----------------------------------------------------
  std::vector<FleetMember> fleet(options.fleet);
  for (size_t j = 0; j < fleet.size(); ++j) {
    FleetMember& m = fleet[j];
    auto conn = options.connect(options.parties + j);
    if (!conn.ok()) {
      return conn.status();
    }
    m.conn = conn.take();
    ACAttributes attrs;
    attrs.preempt = 0;
    attrs.encoding = AEncodeType::kMu255;
    attrs.play_gain_db = options.muted_gain_db;  // background, kept quiet
    auto ac = m.conn->CreateAC(bridge_dev,
                               kACPreemption | kACEncodingType | kACPlayGain, attrs);
    if (!ac.ok()) {
      return ac.status();
    }
    m.ac = ac.value();
    // The answering-machine greeting: ringback-cadence tone then a beep.
    m.greeting = SynthesizeCallProgress(RingbackSpec(), 0.5, options.sample_rate);
    std::vector<uint8_t> beep(options.sample_rate / 10);
    AFTonePair(1000.0, -13.0, 1000.0, -13.0, options.sample_rate, 8, beep);
    m.greeting.insert(m.greeting.end(), beep.begin(), beep.end());
    m.cursor = (j * 997) % m.greeting.size();  // stagger the loop starts
  }

  // --- the arbitration state machine ---------------------------------------
  int floor_holder = -1;
  const auto retune = [&]() {
    for (size_t i = 0; i < parties.size(); ++i) {
      BridgeParty& p = parties[i];
      const int target = (floor_holder < 0 || floor_holder == static_cast<int>(i))
                             ? options.live_gain_db
                             : options.muted_gain_db;
      if (p.gain_db == target) {
        continue;
      }
      ACAttributes attrs = p.ac->attrs();
      attrs.play_gain_db = target;
      p.ac->ChangeAttributes(kACPlayGain, attrs);
      p.gain_db = target;
    }
  };
  const auto handle_digit = [&](size_t party, char digit) {
    ++result.dtmf_digits;
    if (digit == '*' && floor_holder != static_cast<int>(party)) {
      floor_holder = static_cast<int>(party);
      ++result.floor_changes;
      result.floor_log += std::to_string(party) + "*;";
      retune();
    } else if (digit == '#' && floor_holder == static_cast<int>(party)) {
      floor_holder = -1;
      ++result.floor_changes;
      result.floor_log += std::to_string(party) + "#;";
      retune();
    }
  };
  const auto grant_floor = [&](size_t party) {
    if (floor_holder == static_cast<int>(party)) {
      return;
    }
    floor_holder = static_cast<int>(party);
    ++result.floor_changes;
    result.floor_log += std::to_string(party) + "*;";
    retune();
  };

  // --- the conference ------------------------------------------------------
  std::vector<uint8_t> block(bf);
  std::vector<uint8_t> rec(bf);
  for (size_t b = 0; b < options.blocks; ++b) {
    if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) {
      break;
    }
    if (options.floor_rotate_blocks > 0 && b % options.floor_rotate_blocks == 0) {
      grant_floor((b / options.floor_rotate_blocks) % options.parties);
    }
    const ATime line_t = static_cast<ATime>(b * bf);
    for (size_t i = 0; i < parties.size(); ++i) {
      BridgeParty& p = parties[i];
      // Fill this block of the far end's tape unless a scripted key press
      // already owns it, then lift the line audio.
      if (!p.press_block[b]) {
        p.line->FarEndSendAudio(line_t, p.talk_tone);
      }
      p.line->GenerateLineAudio(line_t, block);
      if (p.detector) {
        for (char d : p.detector->FeedMulaw(block)) {
          handle_digit(i, d);
        }
      }
      const uint64_t before = HostMicros();
      auto played = p.ac->PlaySamples(t0 + line_t, block);
      if (!played.ok()) {
        return played.status();
      }
      if (options.on_play_micros) {
        options.on_play_micros(HostMicros() - before);
      }
      ++result.blocks_played;
    }
    for (FleetMember& m : fleet) {
      // Greeting playback, wrapping through the loop...
      for (size_t filled = 0; filled < bf;) {
        const size_t run = std::min(bf - filled, m.greeting.size() - m.cursor);
        std::memcpy(block.data() + filled, m.greeting.data() + m.cursor, run);
        m.cursor = (m.cursor + run) % m.greeting.size();
        filled += run;
      }
      auto played = m.ac->PlaySamples(t0 + line_t, block);
      if (!played.ok()) {
        return played.status();
      }
      ++result.fleet_plays;
      // ...and a no-block record poll every few blocks (the machine
      // "listening" for the caller), exercising the record path.
      if (b % 4 == 3) {
        auto recorded = m.ac->RecordSamples(t0 + line_t - static_cast<ATime>(bf), rec,
                                            /*block=*/false);
        if (!recorded.ok()) {
          return recorded.status();
        }
        ++result.fleet_records;
      }
    }
    if (options.pacer) {
      options.pacer(b);
    }
  }

  result.final_floor = floor_holder;
  result.party_gains_db.reserve(parties.size());
  for (const BridgeParty& p : parties) {
    result.party_gains_db.push_back(p.gain_db);
  }
  return result;
}

}  // namespace af
