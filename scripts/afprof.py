#!/usr/bin/env python3
"""Per-function CPU profile of a command, from the libafprof sampler.

Runs COMMAND with the LD_PRELOAD sampling profiler (bench/sampling_profiler.cc,
built as build/bench/libafprof.so), then symbolizes every process's samples
with addr2line and prints each function's share of that process's samples:

    python3 scripts/afprof.py -- python3 perfbench/run.py \\
        --workload play-small --seed 7 --seconds 30 --trace 0
    python3 scripts/afprof.py -- ./build/bench/bench_play --transports inproc

Every process the command starts loads the sampler (the variable is
inherited), so a wrapper such as perfbench's run.py gets a report of its own;
reports are printed largest first, so wrappers that barely ran sort to the
bottom.

Each function row carries a kind: "syscall" for the libc system-call wrappers
(a sample taken inside the kernel lands on the wrapper's return address, so
kernel time shows up there) and "user" for everything else. The summary line
splits the process's samples between the two.

Limits: the timer expires on the kernel tick, about 100 samples per
CPU-second on a HZ=100 host, so profile runs of 30 s or more; a stripped libc
exposes only exported symbols, so its internal memcpy/memset variants are
charged to the nearest exported name.
"""
import argparse
import collections
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Function rows printed per process.
TOP_FUNCTIONS = 25

# libc entry points that are a thin wrapper around one system call. Names are
# compared after stripping the __libc_/__GI_/__ prefixes libc exports them
# under.
SYSCALL_WRAPPERS = {
    "read", "write", "readv", "writev", "pread64", "pwrite64",
    "send", "sendto", "sendmsg", "recv", "recvfrom", "recvmsg",
    "poll", "ppoll", "select", "pselect", "epoll_wait", "epoll_pwait", "epoll_ctl",
    "accept", "accept4", "connect", "close", "shutdown", "socketpair",
    "nanosleep", "clock_nanosleep", "sched_yield", "syscall", "ioctl", "fcntl",
    "futex", "futex_wait", "futex_abstimed_wait_common",
    "getrusage", "setitimer", "kill", "tgkill",
}


def base_name(function):
    name = function.split("(")[0].split("@")[0]
    changed = True
    while changed:
        changed = False
        for prefix in ("__libc_", "__GI_", "__"):
            if name.startswith(prefix):
                name = name[len(prefix):]
                changed = True
    return name


def is_libc(module):
    return os.path.basename(module).startswith(("libc.so", "libc-", "libpthread"))


def symbolize(module, offsets):
    """Maps each offset to a function name via one addr2line call."""
    if module == "?" or not os.path.exists(module):
        label = "[%s]" % os.path.basename(module) if module != "?" else "[unknown]"
        return {off: label for off in offsets}
    ordered = sorted(offsets)
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-e", module],
        input="\n".join(ordered) + "\n", capture_output=True, text=True, check=False,
    ).stdout.splitlines()
    # Two lines per address: function, then file:line.
    names = {}
    for i, off in enumerate(ordered):
        fn = out[2 * i] if 2 * i < len(out) else "??"
        names[off] = fn if fn != "??" else "?? (%s+%s)" % (os.path.basename(module), off)
    return names


def load(path):
    header = {}
    samples = collections.Counter()
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# afprof"):
                for field in line.split()[2:]:
                    key, _, value = field.partition("=")
                    header[key] = value
                continue
            module, _, offset = line.rpartition(" ")
            if module:
                samples[(module, offset)] += 1
    return header, samples


def report(header, samples):
    total = sum(samples.values())
    by_module = collections.defaultdict(set)
    for module, offset in samples:
        by_module[module].add(offset)
    names = {}
    for module, offsets in by_module.items():
        for offset, fn in symbolize(module, offsets).items():
            names[(module, offset)] = fn
    functions = collections.Counter()
    kinds = {}
    for (module, offset), count in samples.items():
        fn = names[(module, offset)]
        key = (fn, os.path.basename(module))
        functions[key] += count
        kinds[key] = ("syscall" if is_libc(module) and base_name(fn) in SYSCALL_WRAPPERS
                      else "user")
    syscall = sum(c for k, c in functions.items() if kinds[k] == "syscall")
    print("== %s (pid %s): %d samples, syscall wrappers %.1f%%, user %.1f%%"
          % (header.get("exe", "?"), header.get("pid", "?"), total,
             100.0 * syscall / total, 100.0 * (total - syscall) / total))
    print("%7s %7s  %-7s  %-22s %s" % ("share", "samples", "kind", "module", "function"))
    for key, count in functions.most_common(TOP_FUNCTIONS):
        fn, module = key
        print("%6.1f%% %7d  %-7s  %-22s %s"
              % (100.0 * count / total, count, kinds[key], module[:22], fn))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lib", default=str(ROOT / "build" / "bench" / "libafprof.so"),
                        help="the sampler library (default: build/bench/libafprof.so)")
    parser.add_argument("--out", help="directory for the sample files (default: a temp dir)")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given (put it after --)")
    if not os.path.exists(args.lib):
        sys.exit("afprof: %s not built (cmake --build build --target afprof)" % args.lib)
    out_dir = args.out or tempfile.mkdtemp(prefix="afprof.")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["LD_PRELOAD"] = os.path.abspath(args.lib)
    env["AFPROF_DIR"] = os.path.abspath(out_dir)
    rc = subprocess.run(command, env=env, check=False).returncode
    if rc != 0:
        print("afprof: command exited %d" % rc, file=sys.stderr)

    profiles = [load(path) for path in pathlib.Path(out_dir).glob("afprof.*.txt")]
    profiles = [p for p in profiles if sum(p[1].values()) > 0]
    if not profiles:
        sys.exit("afprof: no process took a sample (sample files in %s)" % out_dir)
    profiles.sort(key=lambda p: -sum(p[1].values()))
    for i, (header, samples) in enumerate(profiles):
        if i:
            print()
        report(header, samples)


if __name__ == "__main__":
    main()
