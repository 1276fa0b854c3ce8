#!/usr/bin/env python3
"""End-to-end benchmark of ddoscope: replay and daemon ingest.

    python3 perfbench/run.py --workload csv_replay --seed 1 --seconds 10 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
repository's src/ next to it) into .bench_build/, stages the seed's input
once (botsim trace replayed into CSV, DDBINREC and DDGEOMDB files plus the
single-thread reference digests), then measures one workload. The last line
of stdout is the result JSON; build and staging logs go to stderr. Exits
non-zero when the build fails, the sources are missing, or an output check
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("csv_replay", "bin_geo_replay", "daemon_feed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD_DIR, "ddbench")
STAGES_KEPT = 3          # staged inputs are ~250 MB each
RUN_DEADLINE_S = 175     # the whole invocation, build excluded


def log(message):
    print(message, file=sys.stderr, flush=True)


def call(cmd, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(
            cmd, cwd=ROOT, timeout=timeout, check=False,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: timed out after {timeout:.0f} s: {' '.join(cmd)}")
        sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: ddoscope sources (src/) not found next to perfbench/")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if call(["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300).returncode != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", BUILD_DIR, "--target", "ddbench", "-j", jobs],
            840).returncode != 0:
        sys.exit(2)


def stage(seed, seconds, deadline):
    """Returns the staged input directory for (seed, seconds), making it once."""
    os.makedirs(DATA_DIR, exist_ok=True)
    path = os.path.join(DATA_DIR, f"stage-s{seed}-t{seconds}")
    if not os.path.isfile(os.path.join(path, "reference.txt")):
        result = call([BINARY, "stage", "--seed", str(seed), "--seconds",
                       str(seconds), "--dir", path], deadline - time.time())
        if result.returncode != 0:
            sys.exit(2)
    os.utime(path)
    staged = sorted((os.path.join(DATA_DIR, d) for d in os.listdir(DATA_DIR)
                     if d.startswith("stage-")), key=os.path.getmtime)
    for old in staged[:-STAGES_KEPT]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    deadline = time.time() + RUN_DEADLINE_S
    stage_dir = stage(args.seed, args.seconds, deadline)
    result = call([BINARY, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--stage", stage_dir,
                   "--work", os.path.join(DATA_DIR, "work")],
                  deadline - time.time(), capture=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
