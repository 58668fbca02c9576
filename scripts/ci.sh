#!/bin/sh
# CI pipeline: plain build + full suite, then a sanitizer build
# (ASan/UBSan) of the same suite with a deeper soak of the
# torture-labelled hostile-network tests, then the full suite again under
# TSan.
#
#   AF_TORTURE_ROUNDS   random-fault-walk rounds for the soak (default 64
#                       here; the in-tree default is 24 for quick runs)
#   CI_JOBS             parallelism (default: nproc)
set -eu

cd "$(dirname "$0")/.."
JOBS="${CI_JOBS:-$(nproc)}"

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

echo "== full suite (plain) =="
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== real-time stress cases, five times over =="
# stress_test's real-time cases (eight mixing clients, the LineServer over
# real sockets) are the ones most sensitive to how the server and client
# wait; repeated so a rare failure shows up with its output.
ctest --test-dir build -R '^stress_test$' --repeat until-fail:5 --output-on-failure

echo "== observability suite =="
ctest --test-dir build -L metrics --output-on-failure

echo "== event-tracing suite =="
ctest --test-dir build -L trace --output-on-failure

echo "== sharding suite =="
# shard_test (inbox FIFO and no-loss, requests against another shard's
# device, events across shards, shard-thread stop/restart, stats+trace
# aggregation, concurrent fan-in under the device lock) plus the
# hostile-network suites re-run under AF_SHARDS=4, so every fault and fuzz
# walk also crosses shard boundaries.
ctest --test-dir build -L shard --output-on-failure

echo "== conference-bridge suite =="
# bridge_test (fused gain+mix kernels, shared-device fan-in goldens, DTMF
# arbitration, the abridge core end to end, kill-a-party torture) plain,
# then re-run with the parties spread over four shards via the _shard4
# ENVIRONMENT re-run.
ctest --test-dir build -L bridge --output-on-failure

echo "== failover suite =="
# failover_test (op-log wire round trips, backup shadow apply + promotion,
# the reconnect machine killed at every opcode boundary and in every
# machine state, the connect-deadline and astat restart-detection
# regressions) plain, then re-run with four shards - promotion posts must
# cross shard inboxes - via the _shard4 ENVIRONMENT re-run.
ctest --test-dir build -L failover --output-on-failure

echo "== causal-tracing suite =="
# causal_test (correlation IDs across requests against another shard's
# device, truncated requests and reconnect replays; the merged
# client+server timeline with its telescoping latency budget; the
# allocation-free generation-gated ring; the flight-recorder dump format)
# plain, plus the _shard4 ENVIRONMENT re-run.
ctest --test-dir build -L causal --output-on-failure

echo "== allocation-free suite =="
# The steady-state contracts, counted with an operator-new hook: the
# server's play/record golden (ZeroAllocation), a play against another
# shard's device allocating like a local one (ShardAllocTest), the trace
# ring's record path (CausalZeroAllocTest), and the client library's round
# trip - play, GetTime and a chunked record, tracing off and on
# (ClientAllocTest). Each is a filtered re-run of its suite (ctest -L alloc).
ctest --test-dir build -L alloc --output-on-failure

echo "== kill-the-primary smoke: measured gap is nonzero and bounded =="
# The end-to-end walk kills a replicated primary mid-stream and prints the
# audio gap the outage cost as measured by the client's ResyncTime
# re-anchor. A zero gap means the resync never measured anything; a gap at
# or above the bound means promotion lost more audio than the op-log
# watermark permits. Either fails CI here.
FAILOVER_OUT="$(./build/tests/failover_test \
    --gtest_filter='FailoverEndToEndTest.*')"
GAP_LINE="$(printf '%s' "$FAILOVER_OUT" | grep 'resync_gap_samples=')" || {
    echo "failover smoke: no resync_gap_samples line in test output" >&2
    exit 1
}
GAP="${GAP_LINE#*resync_gap_samples=}"; GAP="${GAP%% *}"
BOUND="${GAP_LINE#*bound=}"; BOUND="${BOUND%% *}"
if [ "$GAP" -le 0 ] || [ "$GAP" -gt "$BOUND" ]; then
    echo "failover smoke: gap $GAP outside (0, $BOUND]: $GAP_LINE" >&2
    exit 1
fi
echo "failover smoke OK: $GAP_LINE"

echo "== abridge demo conference completes =="
# Three scripted parties plus an answering-machine over an in-process
# server; a lost block, a wedged floor, or a party failure exits nonzero.
./build/examples/abridge -demo -parties 3 -fleet 1 -blocks 20

echo "== atrace --json produces loadable Chrome trace JSON =="
# atrace -demo enables tracing on an in-process server, drives play/record
# traffic through a fault-injecting transport, and prints the window as
# Chrome trace_event JSON (chrome://tracing / Perfetto). A malformed
# document or a window with no request spans fails CI here.
ATRACE_OUT="$(./build/examples/atrace -demo --json)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$ATRACE_OUT" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no request spans in the demo trace"
assert any(e.get("ph") == "i" for e in events), "no instants in the demo trace"
print(f"atrace JSON OK: {len(events)} events, {len(spans)} spans")
'
else
    printf '%s' "$ATRACE_OUT" | grep -q '"traceEvents"'
    printf '%s' "$ATRACE_OUT" | grep -q '"ph":"X"'
fi

echo "== atrace --merge joins the client and server timelines =="
# --merge turns on client-side tracing too, aligns the two clocks, and
# emits one Perfetto document: flow arrows (s/t/f phases) along each
# correlation ID, and a latency-budget table whose telescoping components
# must sum exactly to the client-observed total for every request.
MERGE_OUT="$(./build/examples/atrace -demo --merge --json)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$MERGE_OUT" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
events = doc["traceEvents"]
flows = [e for e in events if e.get("cat") == "flow"]
assert flows, "merge: no flow events"
phases = {e["ph"] for e in flows}
assert {"s", "f"} <= phases, f"merge: flow phases incomplete: {phases}"
rows = doc["otherData"]["latency_budget_us"]
assert rows, "merge: empty latency budget"
parts = ("client_queue", "wire", "poll_wake", "dispatch", "egress")
for row in rows:
    total = row["total"]
    sub = sum(row[p] for p in parts)
    assert sub == total, f"merge: budget does not telescope: {sub} != {total} ({row})"
print(f"atrace merge OK: {len(events)} events, {len(flows)} flow events, "
      f"{len(rows)} budget rows sum exactly")
'
else
    printf '%s' "$MERGE_OUT" | grep -q '"ph":"s"'
    printf '%s' "$MERGE_OUT" | grep -q '"ph":"f"'
    printf '%s' "$MERGE_OUT" | grep -q 'latency_budget_us'
fi

echo "== flight recorder survives a SIGSEGV and decodes post-mortem =="
# Arm the recorder via the environment on a follow-mode demo server, kill
# it with a real SIGSEGV mid-run, and require (a) a non-empty dump file
# from the async-signal-safe handler and (b) atrace --dump decoding it,
# in both text and JSON forms. The env assignment must ride the simple
# command itself so $! is the atrace process, not a wrapper shell.
FLIGHT_DUMP="build/flight_ci.dump"
rm -f "$FLIGHT_DUMP"
AF_FLIGHT_RECORDER="$FLIGHT_DUMP" ./build/examples/atrace -demo --follow 10 >/dev/null 2>&1 &
FLIGHT_PID=$!
sleep 2
kill -SEGV "$FLIGHT_PID" 2>/dev/null || true
wait "$FLIGHT_PID" 2>/dev/null || true
if [ ! -s "$FLIGHT_DUMP" ]; then
    echo "flight recorder: no dump written after SIGSEGV" >&2
    exit 1
fi
./build/examples/atrace --dump "$FLIGHT_DUMP" | grep -q 'counters at crash:' || {
    echo "flight recorder: text decode lacks the counter block" >&2
    exit 1
}
FLIGHT_JSON="$(./build/examples/atrace --dump "$FLIGHT_DUMP" --json)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$FLIGHT_JSON" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
events = doc["traceEvents"]
assert events, "flight recorder: dump decoded to zero events"
print(f"flight recorder OK: {len(events)} events recovered post-mortem")
'
else
    printf '%s' "$FLIGHT_JSON" | grep -q '"traceEvents"'
fi

echo "== asniff decodes a live aplay session =="
# asniff -demo relays a real aplay/arecord session through the wire
# decoder; a framing failure (saw_error) makes it exit nonzero.
./build/examples/asniff -demo -quiet
# Without -quiet it prints one line per message; the request lines carry
# the fields of the body's wire layout (proto/requests.h), so a live play
# must show its byte count and a live CreateAC its encoding.
ASNIFF_OUT="$(./build/examples/asniff -demo)"
printf '%s\n' "$ASNIFF_OUT" | grep -q 'PlaySamples len=[0-9]* .*nbytes=1000' || {
    echo "asniff: no decoded 'PlaySamples ... nbytes=1000' line" >&2
    exit 1
}
printf '%s\n' "$ASNIFF_OUT" | grep -q 'CreateAC len=[0-9]* .*enc=' || {
    echo "asniff: no decoded 'CreateAC ... enc=' line" >&2
    exit 1
}
# The server direction is framed by its own function (proto/framing.h):
# the setup reply and the replies must decode too, or a broken
# server-to-client framer in the live relay would pass.
printf '%s\n' "$ASNIFF_OUT" | grep -q '^s->c SetupReply ok' || {
    echo "asniff: no decoded 's->c SetupReply ok' line" >&2
    exit 1
}
printf '%s\n' "$ASNIFF_OUT" | grep -q '^s->c Reply seq=' || {
    echo "asniff: no decoded 's->c Reply seq=' line" >&2
    exit 1
}
echo "asniff field decode OK"

echo "== astat --json against a live server =="
# astat -demo starts an in-process server, drives play/record traffic
# through a fault-injecting transport, and prints the stats JSON; a
# malformed document fails CI here.
ASTAT_OUT="$(./build/examples/astat -demo --json)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$ASTAT_OUT" | python3 -m json.tool >/dev/null
else
    # No python: at least require the spine keys in one JSON object.
    printf '%s' "$ASTAT_OUT" | grep -q '"version":1'
    printf '%s' "$ASTAT_OUT" | grep -q '"requests_dispatched":'
    printf '%s' "$ASTAT_OUT" | grep -q '"devices":'
fi
printf '%s' "$ASTAT_OUT" | grep -q '"faults_applied":[1-9]' || {
    echo "astat: expected nonzero faults_applied in demo output" >&2
    exit 1
}
# The restart annotation must be present (and false: the demo server never
# restarts mid-snapshot). The true path - a counter going backwards flips
# the flag and resets the watch baseline instead of printing an all-zero
# saturated diff - is pinned by AstatRestartTest in the failover suite.
printf '%s' "$ASTAT_OUT" | grep -q '"server_restarted":false' || {
    echo "astat: JSON lacks the server_restarted annotation" >&2
    exit 1
}

echo "== astat --shards appends the per-shard breakdown =="
# The default view must stay the aggregate (no top-level shards array),
# and --shards must append one entry per shard of the demo server (2 in
# demo mode). The grep matches the array form specifically: the aggregate
# counter block legitimately contains a counter named "shards".
ASTAT_SHARDS="$(./build/examples/astat -demo --shards --json)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$ASTAT_SHARDS" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
shards = doc["shards"]
assert len(shards) == 2, f"wanted 2 shard entries, got {len(shards)}"
assert all("dispatch" in s and "counters" in s for s in shards)
assert sum(s["counters"]["clients_accepted"] for s in shards) >= 1
print(f"astat --shards OK: {len(shards)} shard entries")
'
    if printf '%s' "$ASTAT_OUT" | grep -q '"shards":\['; then
        echo "astat: aggregate view unexpectedly grew a shards key" >&2
        exit 1
    fi
fi

echo "== astat --watch keeps gauge slots absolute =="
# Watch mode differences counter slots only. A gauge is a sample, so the
# first interval of the 2-shard demo server must show shards 2 in the
# aggregate and in both slices, and poller_backend 1; a diffed gauge
# reads 0 there.
ASTAT_WATCH="$(timeout 10 ./build/examples/astat -demo --shards --json --watch 0.1 | head -n 1)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$ASTAT_WATCH" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
shards = [doc["counters"]["shards"]] + [s["counters"]["shards"] for s in doc["shards"]]
assert shards == [2, 2, 2], f"shards (aggregate, slice 0, slice 1) = {shards}"
backend = doc["counters"]["poller_backend"]
assert backend == 1, f"aggregate poller_backend = {backend}"
print(f"astat --watch OK: shards {shards}, poller_backend {backend}")
'
else
    [ "$(printf '%s' "$ASTAT_WATCH" | grep -o '"shards":2,' | wc -l)" -eq 3 ] &&
        printf '%s' "$ASTAT_WATCH" | grep -q '"poller_backend":1,' || {
        echo "astat --watch: gauge slots were differenced" >&2
        exit 1
    }
fi

echo "== astat --prom renders well-formed Prometheus exposition =="
# Counters end in _total, histograms carry cumulative le buckets that must
# be nondecreasing with the +Inf bucket equal to _count, and every metric
# name gets exactly one # TYPE line. A violation of any of those breaks
# real scrapers, so each fails CI here.
ASTAT_PROM="$(./build/examples/astat -demo --prom)"
if command -v python3 >/dev/null 2>&1; then
    printf '%s' "$ASTAT_PROM" | python3 -c '
import collections, re, sys
lines = sys.stdin.read().splitlines()
types = {}
for ln in lines:
    m = re.match(r"# TYPE (\S+) (\S+)", ln)
    if m:
        assert m.group(1) not in types, f"duplicate TYPE line for {m.group(1)}"
        types[m.group(1)] = m.group(2)
assert types.get("af_requests_dispatched_total") == "counter"
assert any(t == "histogram" for t in types.values()), "no histograms exposed"
buckets = collections.defaultdict(list)  # series key -> cumulative counts
counts = {}
for ln in lines:
    m = re.match(r"(\w+)_bucket\{(.*?)le=\"([^\"]+)\"\} (\d+)", ln)
    if m:
        key = (m.group(1), m.group(2).rstrip(","))
        buckets[key].append((m.group(3), int(m.group(4))))
    m = re.match(r"(\w+)_count(?:\{(.*)\})? (\d+)", ln)
    if m:
        counts[(m.group(1), m.group(2) or "")] = int(m.group(3))
assert buckets, "no histogram buckets exposed"
for key, series in buckets.items():
    values = [v for _, v in series]
    assert values == sorted(values), f"non-monotonic buckets for {key}: {values}"
    assert series[-1][0] == "+Inf", f"{key} does not end at +Inf"
    assert series[-1][1] == counts[key], (
        f"{key}: +Inf bucket {series[-1][1]} != count {counts[key]}")
print(f"astat --prom OK: {len(types)} metrics, "
      f"{len(buckets)} histogram series monotonic through +Inf")
'
else
    printf '%s' "$ASTAT_PROM" | grep -q '^# TYPE af_requests_dispatched_total counter'
    printf '%s' "$ASTAT_PROM" | grep -q 'le="+Inf"'
fi

echo "== bench smoke vs committed trajectory =="
# A quick inproc-only bench_play; the committed BENCH_play.json is the
# reference. The bound is deliberately loose (4x the committed mean at the
# largest mixing request) so only a real regression, not scheduler noise,
# trips it. Requires python3; skipped silently without it.
if command -v python3 >/dev/null 2>&1; then
    ./build/bench/bench_play --json build/bench_smoke.json --transports inproc >/dev/null
    python3 - <<'EOF'
import json, sys
committed = json.load(open("BENCH_play.json"))
fresh = json.load(open("build/bench_smoke.json"))
def mean(rows, case, size):
    return next(r["mean_us"] for r in rows
                if r["config"] == "inproc" and r["case"] == case and r["bytes"] == size)
ref = mean(committed["optimized"], "mix", 16384)
got = mean(fresh["rows"], "mix", 16384)
if got > 4.0 * ref:
    sys.exit(f"bench smoke: mixing 16K play regressed: {got:.1f}us vs committed {ref:.1f}us")
server = fresh.get("server", {}).get("inproc")
if server is None or "play_underruns" not in server or "dispatch_p99_us" not in server:
    sys.exit("bench smoke: server-side stats missing from bench output")
print(f"bench smoke OK: mix 16K {got:.1f}us (committed {ref:.1f}us), "
      f"server dispatched {server['requests_dispatched']} requests, "
      f"{server['play_underruns']} underruns")
EOF
fi

echo "== sampling profiler smoke =="
# scripts/afprof.py runs a short inproc bench_play under the LD_PRELOAD
# sampler (build/bench/libafprof.so) and symbolizes the samples with
# addr2line. A run that writes no samples, or a report without a single
# function row, fails CI here.
if command -v python3 >/dev/null 2>&1 && command -v addr2line >/dev/null 2>&1; then
    PROF_DIR="build/afprof_smoke"
    rm -rf "$PROF_DIR"
    PROF_OUT="$(python3 scripts/afprof.py --out "$PROF_DIR" -- \
        ./build/bench/bench_play --transports inproc --json build/afprof_bench.json)"
    printf '%s\n' "$PROF_OUT" | grep -q '^== .*bench_play (pid [0-9]*): [1-9][0-9]* samples' || {
        echo "afprof: no bench_play profile in the report" >&2
        exit 1
    }
    printf '%s\n' "$PROF_OUT" | grep -Eq '^ *[0-9.]+% +[1-9][0-9]* +(syscall|user) ' || {
        echo "afprof: the report has no function rows" >&2
        exit 1
    }
    echo "afprof smoke OK: $(printf '%s\n' "$PROF_OUT" | grep -m1 '^== .*bench_play')"
fi

echo "== fan-out smoke + committed-ablation acceptance =="
# A quick bench_fanout (N=8, the one server configuration) validates the
# live report shape: latency percentiles populated, and the server block
# carrying the scalability counters/gauges. The ablation *acceptance*
# numbers (epoll + writev + SIMD beat the retired poll + write + scalar
# baseline on p95 and syscalls/request at N=256) are checked against the
# committed BENCH_fanout.json, whose baseline and single-axis rows are the
# record that retired those paths.
if command -v python3 >/dev/null 2>&1; then
    ./build/bench/bench_fanout --quick --json build/fanout_smoke.json >/dev/null
    python3 - <<'EOF'
import json, sys
fresh = json.load(open("build/fanout_smoke.json"))
row = next((r for r in fresh["rows"]
            if r["config"] == "optimized" and r["case"] == "play/N=8"), None)
if row is None or row["p95_us"] <= 0:
    sys.exit("fanout smoke: missing or empty optimized play row")
server = fresh["server"].get("optimized/N=8")
if server is None:
    sys.exit("fanout smoke: missing optimized server block")
for key in ("writev_calls", "writev_iovecs", "poller_backend",
            "watched_fds", "poll_wake_p95_us", "requests_dispatched",
            "spin_waits", "spin_hits"):
    if key not in server:
        sys.exit(f"fanout smoke: server block lacks {key}")
if server["poller_backend"] != 1:
    sys.exit(f"fanout smoke: poller_backend={server['poller_backend']}, wanted 1")
if server["watched_fds"] != 9:  # 8 clients + the wake eventfd
    sys.exit(f"fanout smoke: watched_fds={server['watched_fds']}, wanted 9")

committed = json.load(open("BENCH_fanout.json"))
def p95(config):
    return next(r["p95_us"] for r in committed["rows"]
                if r["config"] == config and r["case"] == "play/N=256")
def sys_per_req(config):
    s = committed["server"][f"{config}/N=256"]
    return s["writev_calls"] / max(s["requests_dispatched"], 1)
base_p95, opt_p95 = p95("baseline"), p95("optimized")
base_spr, opt_spr = sys_per_req("baseline"), sys_per_req("optimized")
if opt_p95 >= base_p95:
    sys.exit(f"committed fanout: optimized p95 {opt_p95} !< baseline {base_p95} at N=256")
if opt_spr >= base_spr:
    sys.exit(f"committed fanout: optimized sys/req {opt_spr:.3f} !< baseline {base_spr:.3f}")
for name in ("epoll-only", "writev-only", "simd-only"):
    if f"{name}/N=256" not in committed["server"]:
        sys.exit(f"committed fanout: missing {name} ablation at N=256")

# 1-shard regression gate: the live quick run (a 1-shard server: the
# default shard count) must stay within a loose bound of the committed
# optimized numbers, so the shard refactor can never quietly tax the
# single-loop path this repo's seed measured. 4x, as for bench smoke:
# only a real regression trips it, not scheduler noise.
live_opt = next(r["p95_us"] for r in fresh["rows"]
                if r["config"] == "optimized" and r["case"] == "play/N=8")
committed_opt = next(r["p95_us"] for r in committed["rows"]
                     if r["config"] == "optimized" and r["case"] == "play/N=8")
if live_opt > 4.0 * committed_opt:
    sys.exit(f"fanout 1-shard gate: live optimized p95 {live_opt}us vs "
             f"committed {committed_opt}us (bound 4x)")

# Committed shard-sweep acceptance: every sweep cell present, and the
# 4-shard server at N=1024 dispatches at the aggregate p95 the 1-shard
# server shows at N=256 - per-shard table size, not total client count,
# governs request service time. (The client-visible round trip is not
# gated: the measuring process itself holds all N connections, and its
# footprint is a harness cost, not a server one.)
def sweep_p95(config, n):
    return committed["server"][f"{config}/N={n}"]["dispatch_p95_us"]
for shards in (1, 2, 4, 8):
    for n in (1, 8, 64, 256, 1024, 4096):
        if f"shards{shards}/N={n}" not in committed["server"]:
            sys.exit(f"committed fanout: missing shards{shards}/N={n}")
if "shards4-xshard/N=256" not in committed["server"]:
    sys.exit("committed fanout: missing shards4-xshard ablation")
s4, s1 = sweep_p95("shards4", 1024), sweep_p95("shards1", 256)
if s4 > s1:
    sys.exit(f"committed fanout: shards4 aggregate dispatch p95@1024 {s4}us "
             f"!<= shards1 p95@256 {s1}us")
print(f"fanout smoke OK; committed N=256: p95 {base_p95}->{opt_p95} us, "
      f"sys/req {base_spr:.3f}->{opt_spr:.3f}; "
      f"1-shard gate {live_opt}us <= 4x{committed_opt}us; "
      f"aggregate dispatch p95 shards4@1024 {s4}us <= shards1@256 {s1}us")
EOF
fi

echo "== 4096-client fanout smoke (4 shards) =="
# The widest fan-out the artifact claims, live: 4096 clients across a
# 4-shard server, play phase only. Validates the deployment shape (even
# accept spread, populated per-shard percentiles), not the latencies - the
# committed artifact above carries those. It does gate memory: each idle
# connection (client and server sides, one AC) may add at most 24 KiB of
# resident memory. Trace rings that tracing has not written cost nothing;
# a ring whose slots are resident from construction alone costs 56 KiB
# per client and fails here.
if command -v python3 >/dev/null 2>&1; then
    ./build/bench/bench_fanout --shards-smoke --json build/fanout_shards_smoke.json >/dev/null 2>&1
    python3 - <<'EOF'
import json, sys
fresh = json.load(open("build/fanout_shards_smoke.json"))
server = fresh["server"].get("shards4/N=4096")
if server is None:
    sys.exit("shards smoke: missing shards4/N=4096 server block")
shards = server.get("shards", [])
if len(shards) != 4:
    sys.exit(f"shards smoke: wanted 4 shard entries, got {len(shards)}")
accepted = [s["clients_accepted"] for s in shards]
if sum(accepted) != 4096 or min(accepted) != 1024:
    sys.exit(f"shards smoke: uneven accept spread {accepted}")
if any(s["requests_dispatched"] == 0 or s["dispatch_p95_us"] <= 0 for s in shards):
    sys.exit("shards smoke: empty per-shard dispatch stats")
row = next((r for r in fresh["rows"]
            if r["config"] == "shards4" and r["case"] == "play/N=4096"), None)
if row is None or row["p95_us"] <= 0:
    sys.exit("shards smoke: missing play row")
kib = server.get("rss_kib_per_client")
if kib is None:
    sys.exit("shards smoke: server block lacks rss_kib_per_client")
if kib > 24:
    sys.exit(f"shards smoke: {kib} KiB resident per client, budget 24 KiB")
print(f"shards smoke OK: 4096 clients spread {accepted}, "
      f"play p95 {row['p95_us']}us, per-shard dispatch p95 "
      f"{[s['dispatch_p95_us'] for s in shards]}us, "
      f"{kib} KiB resident per client (budget 24)")
EOF
fi

echo "== bridge fan-in smoke + committed-sweep acceptance =="
# One live 256-party x 4-shard bench_bridge cell: the binary itself gates
# the counter shape (fan-in high water, plays run against another shard's
# device, zero lost samples, arbitration ran). The full-sweep claims are
# then checked against the committed BENCH_bridge.json - every
# shards{1,2,4} x N{1..1024} cell present with the samples-lost and
# cross-shard columns populated, and losses zero across the whole grid.
if command -v python3 >/dev/null 2>&1; then
    ./build/bench/bench_bridge --smoke --json build/bridge_smoke.json >/dev/null
    python3 - <<'EOF'
import json, sys
committed = json.load(open("BENCH_bridge.json"))
server = committed["server"]
for shards in (1, 2, 4):
    for n in (1, 8, 64, 256, 1024):
        cell = f"shards{shards}/N={n}"
        if cell not in server:
            sys.exit(f"committed bridge: missing {cell}")
        s = server[cell]
        for key in ("mixed_writes", "mix_shared_writes", "mix_fanin_hw",
                    "gain_fused_writes", "play_discarded_frames",
                    "play_underrun_samples", "cross_shard_plays",
                    "cross_shard_posted", "cross_shard_drained",
                    "mailbox_depth_hw"):
            if key not in s:
                sys.exit(f"committed bridge: {cell} lacks {key}")
        if s["play_discarded_frames"] != 0 or s["play_underrun_samples"] != 0:
            sys.exit(f"committed bridge: {cell} lost samples "
                     f"(discarded={s['play_discarded_frames']}, "
                     f"underrun={s['play_underrun_samples']})")
        if shards > 1 and n >= 8 and s["cross_shard_plays"] == 0:
            sys.exit(f"committed bridge: {cell} never crossed a shard")
        if s["mix_fanin_hw"] < min(n, 2):
            sys.exit(f"committed bridge: {cell} fan-in high water "
                     f"{s['mix_fanin_hw']} never saw the parties")
        row = next((r for r in committed["rows"]
                    if r["config"] == f"shards{shards}"
                    and r["case"] == f"mix/N={n}"), None)
        if row is None or row["p95_us"] <= 0:
            sys.exit(f"committed bridge: missing or empty latency row {cell}")
print("committed bridge sweep OK: 15 cells, zero samples lost, "
      "plays crossed shards")
EOF
fi

echo "== sanitizer build (address,undefined) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
      -DAF_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$JOBS"

echo "== full suite (ASan/UBSan) =="
ctest --test-dir build-asan --output-on-failure -j"$JOBS"

echo "== torture soak (ASan/UBSan, deeper) =="
AF_TORTURE_ROUNDS="${AF_TORTURE_ROUNDS:-64}" \
    ctest --test-dir build-asan -L torture --output-on-failure

echo "== sharding suite (ASan/UBSan, 4 shards) =="
ctest --test-dir build-asan -L shard --output-on-failure

echo "== conference-bridge suite (ASan/UBSan, incl. 4 shards) =="
ctest --test-dir build-asan -L bridge --output-on-failure

echo "== failover suite (ASan/UBSan, incl. 4 shards) =="
# The reconnect machine frees and rebuilds the transport under the
# client's feet and the backup's reader thread applies into shared shadow
# maps; ASan/UBSan over the whole battery is what certifies no
# use-after-free across the heal and no UB in the op-log (de)coders.
ctest --test-dir build-asan -L failover --output-on-failure

echo "== causal-tracing suite (ASan/UBSan, incl. 4 shards) =="
# The trace ring is written from shard loops and drained from the gather
# path, the client ring from the application thread, and the flight
# recorder reads raw slots out of a signal handler; ASan/UBSan over the
# battery certifies no out-of-bounds slot reads and no UB in the
# 56-byte wire (de)coders.
ctest --test-dir build-asan -L causal --output-on-failure

echo "== sanitizer build (thread) =="
# TSan is the load-bearing check for the device lock: any shard may call
# any device, so every device call must hold the owner's lock. The whole
# suite runs - shard_test's concurrent fan-in (one client thread per
# shard mixing into one device while its update runs), the 4-shard
# re-runs, the failover battery's backup reader and promotion posts, the
# shared trace generation gate, and the in-process multi-server suites.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
      -DAF_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS"

echo "== full suite (TSan) =="
ctest --test-dir build-tsan --output-on-failure -j"$JOBS"

echo "CI OK"
