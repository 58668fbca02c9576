// atrace: fetches the server's event trace (request spans, device-timeline
// instants, server-loop events) and prints it as text or as Chrome
// trace_event JSON for Perfetto / chrome://tracing.
//
//   atrace [--json] [--window <seconds>] [--follow <seconds>] [--merge]
//          [--dump <file>] [-demo] [server]
//
// One-shot runs enable tracing, hold the window open for --window
// seconds (default 1), drain the ring, and disable tracing again.
// --follow keeps tracing on and polls the ring for the given duration
// before the final drain (ring-wrap losses appear as synthetic `gap`
// records). --merge turns on
// client-side tracing too, aligns the two clocks, and renders one causal
// timeline with per-request latency budgets (JSON output gains Perfetto
// flow arrows along each correlation ID). --dump skips the server
// entirely and renders a crash flight-recorder dump file
// (AF_FLIGHT_RECORDER=<path> on the server arms it). With -demo (or when
// AUDIOFILE is unset) an in-process server is started and a short
// fault-injected play/record workload is traced; ci.sh validates the
// -demo --json output.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "clients/cores.h"
#include "clients/server_runner.h"

using namespace af;

int main(int argc, char** argv) {
  AtraceOptions options;
  options.enable = true;
  options.disable_after = true;
  const char* server = nullptr;
  const char* dump_path = nullptr;
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    if (!strcmp(argv[i], "--json") || !strcmp(argv[i], "-json")) {
      options.json = true;
    } else if ((!strcmp(argv[i], "--follow") || !strcmp(argv[i], "-follow")) &&
               i + 1 < argc) {
      options.follow_seconds = atof(argv[++i]);
    } else if ((!strcmp(argv[i], "--window") || !strcmp(argv[i], "-window")) &&
               i + 1 < argc) {
      options.window_seconds = atof(argv[++i]);
    } else if (!strcmp(argv[i], "--merge") || !strcmp(argv[i], "-merge")) {
      options.merge = true;
    } else if ((!strcmp(argv[i], "--dump") || !strcmp(argv[i], "-dump")) &&
               i + 1 < argc) {
      dump_path = argv[++i];
    } else if (!strcmp(argv[i], "-demo")) {
      demo = true;
    } else {
      server = argv[i];
    }
  }

  if (dump_path != nullptr) {
    // Post-mortem mode: no server, just the flight-recorder file.
    auto dump = LoadFlightRecorderDump(dump_path);
    AoD(dump.ok(), "atrace: %s\n", dump.status().ToString().c_str());
    if (options.json) {
      std::printf("%s\n", FormatTraceJson(dump.value().trace).c_str());
    } else {
      std::printf("%s", FormatTraceText(dump.value().trace).c_str());
      std::printf("\ncounters at crash:\n%s", dump.value().counters_text.c_str());
    }
    return 0;
  }

  std::unique_ptr<ServerRunner> runner;
  std::unique_ptr<AFAudioConn> conn;
  if (!demo && getenv("AUDIOFILE") != nullptr) {
    auto opened = AFAudioConn::Open(server == nullptr ? "" : server);
    AoD(opened.ok(), "atrace: can't open connection: %s\n",
        opened.status().ToString().c_str());
    conn = opened.take();
  } else {
    ServerRunner::Config config;
    config.with_codec = true;
    runner = ServerRunner::Start(config);
    AoD(runner != nullptr, "atrace: cannot start demo server\n");

    // Fragment reads so fault-applied events show up in the trace.
    auto faults = std::make_shared<FaultSchedule>();
    faults->SetMaxReadChunk(256);
    auto opened = runner->ConnectInProcess(nullptr, faults);
    AoD(opened.ok(), "atrace: %s\n", opened.status().ToString().c_str());
    conn = opened.take();

    // Turn tracing on first so the workload below is captured.
    auto enabled = conn->GetTrace(kTraceFlagEnable);
    AoD(enabled.ok(), "atrace: enable failed: %s\n",
        enabled.status().ToString().c_str());
    options.enable = false;
    options.window_seconds = 0;  // the demo pre-records; drain immediately

    std::vector<uint8_t> tone(2000);
    AFTonePair(350, -13, 440, -13, 8000, 64, tone);
    AplayOptions play;
    play.flush = true;
    auto played = RunAplay(*conn, play, tone);
    AoD(played.ok(), "atrace: demo play failed: %s\n",
        played.status().ToString().c_str());
    ArecordOptions rec;
    rec.length_seconds = 0.1;
    auto recorded = RunArecord(*conn, rec);
    AoD(recorded.ok(), "atrace: demo record failed: %s\n",
        recorded.status().ToString().c_str());
    if (!options.json) {
      std::printf("atrace: demo mode (in-process server)\n");
    }
  }

  auto report = RunAtrace(*conn, options);
  AoD(report.ok(), "atrace: %s\n", report.status().ToString().c_str());
  std::printf("%s\n", report.value().c_str());
  return 0;
}
