#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload plan-spotify --seed 1 --seconds 20 --trace 0

Builds the benchmark program (perfbench/bench.ml) and the `mcss` server
from source into .bench_build, runs the workload, and passes its output
through. The last line of output is the JSON result
{correct, attempted, failed, metrics}. Exits non-zero without a result
when the build fails, the program fails or it overruns its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["plan-spotify", "replay-twitter", "serve-update"]
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--display", "quiet",
        "./perfbench/bench.exe", "./bin/mcss_cli.exe",
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return False
    return True


def run(args):
    default = os.path.join(BUILD_DIR, "default")
    cmd = [
        os.path.join(default, "perfbench", "bench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mcss", os.path.join(default, "bin", "mcss_cli.exe"),
        "--out", OUT_DIR,
    ]
    # One CPU for the benchmark and the server it spawns (children inherit
    # the mask): on a shared host each CPU's speed changes on its own, and
    # the reference kernel that the timings are scaled by must run where
    # the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Its own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark overran its time limit", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(out)
        print(f"run.py: benchmark failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20130109)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
