// Library-form cores of the standard AudioFile clients (CRL 93/8 Sections
// 8 and 9): aplay, arecord, apass, aevents, ahs/aphone, the trivial
// answering machine, and afft. The example executables are thin wrappers
// over these so the integration tests can drive the same code headlessly.
#ifndef AF_CLIENTS_CORES_H_
#define AF_CLIENTS_CORES_H_

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "afutil/afutil.h"
#include "client/af_compat.h"
#include "client/audio_context.h"
#include "client/connection.h"
#include "common/clock.h"
#include "dsp/window.h"
#include "proto/trace_wire.h"

namespace af {

// --- aplay (Section 8.1) ----------------------------------------------------

struct AplayOptions {
  int device = -1;            // -d; -1 = first non-telephone device
  double time_offset = 0.1;   // -t seconds; negative discards that much data
  int gain_db = 0;            // -g
  bool flush = false;         // -f: wait until the last sound has played
  bool big_endian_data = false;  // -b / -l
  size_t block_frames = 1000;    // file read granularity
  // Cooperative interrupt: when set mid-play, aplay stops "on a dime" by
  // erasing the buffered future audio with preemptive silence.
  std::atomic<bool>* interrupt = nullptr;
};

struct AplayResult {
  ATime start_time = 0;  // device time of the first scheduled sample
  ATime end_time = 0;    // device time just after the last scheduled sample
  size_t bytes_played = 0;
  bool interrupted = false;
};

Result<AplayResult> RunAplay(AFAudioConn& aud, const AplayOptions& options,
                             std::span<const uint8_t> sound);

// --- arecord (Section 8.2) -----------------------------------------------------

struct ArecordOptions {
  int device = -1;
  double length_seconds = -1.0;   // -l; < 0 = until silence or max
  double time_offset = 0.125;     // -t; negative records from the past
  std::optional<double> silent_level_dbm;  // -silentlevel
  double silent_time = 3.0;                // -silenttime
  double max_seconds = 60.0;               // hard stop for library use
  size_t block_frames = 1000;
};

struct ArecordResult {
  ATime start_time = 0;
  std::vector<uint8_t> sound;
};

Result<ArecordResult> RunArecord(AFAudioConn& aud, const ArecordOptions& options);

// --- apass (Section 8.3) -----------------------------------------------------------

struct ApassOptions {
  int input_device = -1;   // -id
  int output_device = -1;  // -od
  double delay = 0.3;      // -delay: record-to-playback delay, seconds
  double aj = 0.1;         // -aj: anti-jitter tolerance, seconds
  double buffering = 0.2;  // -buffering: per-operation block, seconds
  int gain_db = 0;         // -gain
  size_t iterations = 0;   // run this many blocks (0 = until *stop)
  std::atomic<bool>* stop = nullptr;
};

struct ApassResult {
  size_t iterations = 0;
  size_t resyncs = 0;  // times the delay left the tolerance band
};

// from_aud records, to_aud plays; they may be the same connection.
Result<ApassResult> RunApass(AFAudioConn& from_aud, AFAudioConn& to_aud,
                             const ApassOptions& options);

// --- aevents / telephone control (Sections 8.4, 8.5) ---------------------------------

struct AeventsOptions {
  int device = -1;            // -1 = all devices with phone connections
  uint32_t mask = kAllEventsMask;
  size_t max_events = 0;      // stop after this many (0 = unbounded)
  int ring_count = 0;         // stop after this many ring-on events
  std::atomic<bool>* stop = nullptr;
  std::function<void(const AEvent&)> on_event;  // optional observer
};

Result<std::vector<AEvent>> RunAevents(AFAudioConn& aud, const AeventsOptions& options);

// ahs: hookswitch control. state "off" takes the phone off-hook.
Status RunAhs(AFAudioConn& aud, bool off_hook, int device = -1);

// aphone: dials a number on the telephone device.
Result<ATime> RunAphone(AFAudioConn& aud, std::string_view number, int device = -1);

// --- the trivial answering machine (Section 8.6) ------------------------------------

struct AnsweringMachineOptions {
  int phone_device = -1;
  int ring_count = 2;
  std::vector<uint8_t> outgoing_message;  // mu-law
  std::vector<uint8_t> beep;              // mu-law
  double record_max_seconds = 30.0;
  double silent_level_dbm = -35.0;
  double silent_time = 4.0;
  std::atomic<bool>* stop = nullptr;
};

struct AnsweringMachineResult {
  bool answered = false;
  std::vector<uint8_t> message;  // the caller's recording (mu-law)
};

Result<AnsweringMachineResult> RunAnsweringMachine(AFAudioConn& aud,
                                                   const AnsweringMachineOptions& options);

// --- abridge: the conference bridge (PR 7) -------------------------------------------
//
// Drives N scripted VirtualPhoneLine parties into one shared mix device.
// Every party is its own connection + mixing AC (preempt = 0) whose
// per-party gain the bridge retunes through AFChangeACAttributes; talker
// arbitration is DTMF-driven - each party's line audio runs through a
// bridge-side Goertzel detector, '*' grabs the floor (everyone else is
// attenuated to muted_gain_db), '#' releases it. An answering-machine
// style fleet (greeting playback + no-block record polling) rides along as
// background load.

// One scripted key press: party presses digit at the given block.
struct AbridgeKeyPress {
  size_t block = 0;
  size_t party = 0;
  char digit = '*';
};

struct AbridgeOptions {
  int device = -1;                 // shared bridge device; -1 = first non-phone
  size_t parties = 4;              // scripted phone-line parties
  size_t fleet = 0;                // background answering-machine pairs
  size_t blocks = 25;              // conference length in blocks per party
  size_t block_frames = 320;       // 40 ms at 8 kHz
  unsigned sample_rate = 8000;
  int live_gain_db = 0;            // open floor / floor-holder gain
  int muted_gain_db = -18;         // everyone else while the floor is held
  double lead_seconds = 0.25;      // how far ahead of device time blocks land
  // Arbitration source: when detect_dtmf is set, the bridge decodes each
  // party's audio with a Goertzel DtmfDetector and key presses drive the
  // floor. script supplies explicit presses; empty + detect_dtmf derives a
  // rotating-grab script from the party count. floor_rotate_blocks > 0
  // instead rotates the floor directly every so many blocks (bench scale,
  // no per-party detector cost).
  bool detect_dtmf = true;
  std::vector<AbridgeKeyPress> script;
  size_t floor_rotate_blocks = 0;
  std::atomic<bool>* stop = nullptr;
  // Connection factory: called for party i in [0, parties), then fleet
  // member parties + j. Benchmarks pin shards here.
  std::function<Result<std::unique_ptr<AFAudioConn>>(size_t index)> connect;
  // Called after each block round; benchmarks advance the manual clock
  // here. Default: none (the server's flow control self-paces).
  std::function<void(size_t block)> pacer;
  // Per-play-request wall micros (the mix-write latency the bench reports).
  std::function<void(uint64_t micros)> on_play_micros;
};

struct AbridgeResult {
  size_t blocks_played = 0;       // party play requests that completed
  size_t floor_changes = 0;       // grabs + releases the arbitration applied
  size_t dtmf_digits = 0;         // digits the bridge-side detectors decoded
  int final_floor = -1;           // party holding the floor at the end (-1 = open)
  std::string floor_log;          // "1*;1#;2*;" - party index + grab/release
  std::vector<int> party_gains_db;  // gain each party's AC ended at
  size_t fleet_plays = 0;         // background greeting blocks played
  size_t fleet_records = 0;       // background no-block record polls
};

Result<AbridgeResult> RunAbridge(const AbridgeOptions& options);

// --- afft (Section 9.5) ------------------------------------------------------------------

struct AfftOptions {
  size_t fft_length = 256;    // -length: 64..512, power of two
  size_t stride = 128;        // -stride: hop between transforms
  WindowType window = WindowType::kHamming;
  bool log_scale = true;      // -log
  double floor_db = -60.0;
};

// Spectrogram of mu-law audio: one row of fft_length/2 magnitudes per hop.
std::vector<std::vector<float>> ComputeSpectrogramMulaw(std::span<const uint8_t> mulaw,
                                                        const AfftOptions& options);

// Renders a spectrogram as ASCII art (time across, frequency up) or as a
// binary PGM image.
std::string RenderSpectrogramAscii(const std::vector<std::vector<float>>& rows,
                                   size_t max_cols = 78, size_t max_lines = 24);
Status WriteSpectrogramPgm(const std::vector<std::vector<float>>& rows,
                           const std::string& path);

// --- astat: server statistics reporter ----------------------------------------------

struct AstatOptions {
  bool json = false;  // --json: one machine-readable object instead of the table
  // --shards: append the per-shard breakdown (accepted connections,
  // dispatch p95, inbox depth high-water, cross-shard traffic). The
  // default view stays the aggregate the server always reported; a 1-shard
  // server shows a single row.
  bool shards = false;
  // --watch <seconds>: instead of one absolute snapshot, report the counter
  // deltas accumulated over each interval (watch_count intervals; the CLI
  // passes SIZE_MAX and runs until killed). Histograms and latency sums are
  // differenced the same way, so percentiles describe just that interval.
  double watch_seconds = 0;
  size_t watch_count = 1;
  // --prom: Prometheus text exposition format (version 0.0.4) instead of
  // the table. Counters become af_<name>_total, gauge slots af_<name>,
  // histograms af_*_micros with cumulative le buckets ending at +Inf.
  bool prom = false;
  // Invoked with each interval's report as it completes (watch mode only);
  // the final return value concatenates them regardless.
  std::function<void(const std::string&)> on_report;
};

// Prometheus text exposition of a decoded stats block (see AstatOptions::prom).
std::string FormatServerStatsProm(const ServerStatsWire& stats);

// Formats a decoded stats block. The table form groups counters, per-opcode
// dispatch latency (nonzero rows only, p50/p95/p99 via HistogramQuantile),
// and per-device audio-health counters; the JSON form is a single object
// with the same content. Counters the wire carries beyond this build's name
// tables (a newer server) are labelled counter<N>.
std::string FormatServerStats(const ServerStatsWire& stats, bool json,
                              bool shards = false, bool restarted = false);

// Round-trips kGetServerStats and renders the result.
Result<std::string> RunAstat(AFAudioConn& aud, const AstatOptions& options);

// Elementwise delta (cur - prev) of two stats snapshots from the same
// server: counters, error counts, per-opcode latency, and histograms are
// differenced; sizes are clamped to the smaller snapshot.
ServerStatsWire DiffServerStats(const ServerStatsWire& prev, const ServerStatsWire& cur);

// True when cur cannot be a later snapshot of the same server process as
// prev: a monotonic counter went backwards, i.e. the server restarted (or
// failed over) between the two. Gauge slots, which legitimately move both
// ways, are excluded. --watch uses this to reset its baseline instead of
// printing an all-zero saturated diff (PR 8 satellite fix).
bool ServerStatsRegressed(const ServerStatsWire& prev, const ServerStatsWire& cur);

// --- atrace: event-trace fetcher -----------------------------------------------------

struct AtraceOptions {
  bool json = false;          // --json: Chrome trace_event JSON (Perfetto loads it)
  bool enable = false;        // turn tracing on before the first drain
  bool disable_after = false; // turn tracing off after the final drain
  double follow_seconds = 0;  // --follow <s>: keep polling this long
  double poll_interval_seconds = 0.2;
  // One-shot capture window between the enabling and disabling fetches;
  // 0 = drain whatever is already in the ring in a single request.
  double window_seconds = 1.0;
  // --merge: capture a window with client-side tracing live, run a small
  // correlated probe workload, then merge the client ring into the server
  // window on one clock and append the per-request latency-budget table
  // (client-queue / wire / poll-wake / dispatch / egress). JSON output
  // gains Perfetto flow-event arrows joining each correlation ID's spans
  // across the wire.
  bool merge = false;
};

// One line per trace record, oldest first, headed by a drop/enable summary.
std::string FormatTraceText(const TraceWire& trace);
// Chrome trace_event JSON: request spans as "X" events on per-connection
// tracks, device instants on per-device tracks, with thread_name metadata.
// Client-side records (kClientEnqueue/kClientFlush/kClientReply) land on a
// dedicated "client" track; kClientReply (and kRemoteExec from older
// dumps) render as spans.
std::string FormatTraceJson(const TraceWire& trace);

// Drains the server's trace ring (polling for follow_seconds when set) and
// renders the merged result in the chosen format. In follow mode, windows
// are deduplicated by (shard, ring sequence) across polls and a synthetic
// kTraceGap record is inserted whenever the server's cumulative drop count
// advanced between polls (events were lost to a ring wrap mid-follow).
Result<std::string> RunAtrace(AFAudioConn& aud, const AtraceOptions& options);

// --- atrace --merge: one causal timeline across client and server -------------------

// Shifts the client-side events onto the server's clock and splices them
// into *server (re-sorted by host_us). The offset (server minus client
// microseconds) comes from the tightest corr-matched pair of client
// kClientReply span and server kRequest span: the pair with the least
// slack bounds the true offset best, and the midpoint estimator halves the
// asymmetric-delay error. Returns the offset applied (0 when the two sides
// already share a clock or no pair matched).
int64_t MergeClientServerTrace(TraceWire* server, std::vector<TraceEvent> client_events);

// One awaited request's latency decomposition, all in merged-clock micros.
// The components telescope: they sum exactly to total (reply seen minus
// enqueue), so the budget never silently loses a hop. Components are
// signed — clock-offset residue can push a boundary a few micros negative.
struct LatencyBudgetRow {
  uint64_t corr = 0;
  uint8_t opcode = 0;
  int64_t client_queue_us = 0;  // enqueue -> socket flush
  int64_t wire_us = 0;          // flush -> server read of those bytes
  int64_t poll_wake_us = 0;     // read -> dispatch start
  int64_t dispatch_us = 0;      // dispatch start -> reply staged
  // Retired components of the cross-shard borrow (mailbox dwell, owner
  // shard execution): every request now runs on its home shard, so both
  // read 0. Kept because the benchmark reports them.
  int64_t mailbox_us = 0;
  int64_t mix_us = 0;
  int64_t egress_us = 0;        // reply staged -> client saw the reply
  int64_t total_us = 0;         // sum of the above == reply seen - enqueue
};

// Builds one row per correlation ID that has both client enqueue/reply
// records and a server kRequest span in the merged trace, sorted by total.
std::vector<LatencyBudgetRow> ComputeLatencyBudget(const TraceWire& merged);

// The human-readable budget table: per-component p50 column plus the
// exact breakdown of the median-total request (whose components sum to its
// total by construction).
std::string FormatLatencyBudget(const std::vector<LatencyBudgetRow>& rows);

// FormatTraceJson plus flow-event arrows (ph s/t/f, id = corr) joining
// each correlation ID's spans — client reply span and server dispatch
// span — and the latency budget rows embedded in
// otherData.latency_budget_us.
std::string FormatMergedTraceJson(const TraceWire& merged,
                                  const std::vector<LatencyBudgetRow>& budget);

// --- flight recorder post-mortem ----------------------------------------------------

// A crash dump decoded back into trace form: the per-shard rings merged
// and sorted, plus the counter snapshots as text lines.
struct FlightDump {
  TraceWire trace;
  std::string counters_text;  // "shard N: name=value" per counter
};

// Loads a flight-recorder dump written by the crash handler
// (common/flight_recorder.h). Torn records (the handler copies the ring
// while the victim threads may still be mid-store) are dropped by kind
// range; the merged events sort by host_us.
Result<FlightDump> LoadFlightRecorderDump(const std::string& path);

// --- asniff: wire sniffer (the xscope analogue) --------------------------------------

// Relays bytes between a client-side stream and a server-side stream on a
// background thread, feeding both directions through the shared wire
// decoder (proto/decode.h). Decoded lines are pushed to the sink from the
// relay thread, prefixed "c->s " or "s->c ".
class SniffRelay {
 public:
  using Sink = std::function<void(const std::string&)>;

  SniffRelay(FdStream client_side, FdStream server_side, Sink sink);
  ~SniffRelay();  // stops and joins

  void Stop();

  // Message totals per direction; safe after Stop().
  size_t client_messages() const { return client_messages_; }
  size_t server_messages() const { return server_messages_; }
  bool saw_error() const { return saw_error_; }

 private:
  void Run();

  FdStream client_side_;
  FdStream server_side_;
  Sink sink_;
  std::atomic<bool> stop_{false};
  size_t client_messages_ = 0;
  size_t server_messages_ = 0;
  bool saw_error_ = false;
  std::thread thread_;
};

class AFServer;

struct SniffedConnection {
  std::unique_ptr<AFAudioConn> conn;
  std::unique_ptr<SniffRelay> relay;
};

// Connects a client to the server through a sniffing relay: two socketpairs
// with the relay pumping (and decoding) the bytes in between.
Result<SniffedConnection> ConnectSniffed(AFServer& server, SniffRelay::Sink sink);

// --- shared helpers ------------------------------------------------------------

// Picks a device: explicit index, else first non-telephone (phone=false) or
// first telephone-connected (phone=true) device.
Result<DeviceId> PickDevice(AFAudioConn& aud, int requested, bool phone);

}  // namespace af

#endif  // AF_CLIENTS_CORES_H_
