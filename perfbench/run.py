#!/usr/bin/env python3
"""Builds the AudioFile benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload play-small --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build, both
relative to the current directory. The first run configures and compiles
the libraries under src/ together with the load generator; later runs only
check that the build is current. Lines naming the source and the host come
first; the last line of stdout is the load generator's JSON result.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("play-small", "bridge-xshard", "record-bulk")
# A run measures --seconds plus a few seconds of set-up, tracing and floor
# microbenches; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the load generator; returns its path."""
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def source_fingerprint():
    """The commit when run from a git checkout, and a digest of the sources
    the benchmark compiles, so every result names the code it measured."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    return commit, digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    commit, sources = source_fingerprint()
    print(f"source {{\"commit\": \"{commit}\", \"sources_sha256\": \"{sources}\"}}", flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
