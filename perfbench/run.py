#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (its own CMake project, which compiles the simulator
libraries from src/) into .bench_build/perfbench, then runs one
workload in one process. --trace 0 measures the end-to-end metrics.
Before that run it starts SETUP_PROCESSES - 1 processes that only set
up, so that setup_s is the median of that many cold set-ups, each
timed from process start. --trace 1 measures the per-layer metrics
and writes the spans to .bench_build/spans/<workload>-seed<N>.trace.json
(Chrome trace-event format). The last line of standard output is the
result object.

Exits non-zero, printing no result, when the simulator sources are
missing, the build fails, or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cluster_chaos", "codesign_sweep", "functional_inference",
             "codec_roundtrip")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 15
SETUP_PROCESSES = 3


def log(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def call(cmd: list[str], timeout: float) -> int:
    """Run @cmd with its output on our stderr; kill it on timeout."""
    with subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr) as p:
        try:
            return p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            log(f"timed out: {' '.join(cmd)}")
            return 1


def build() -> pathlib.Path | None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}")
        return None
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd, BUILD_TIMEOUT_S) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if call(["cmake", "--build", str(BUILD), "-j", jobs],
            BUILD_TIMEOUT_S) != 0:
        return None
    return BUILD / "perfbench"


def run_binary(cmd: list[str], timeout: float,
               echo: bool = False) -> dict | None:
    """Run the benchmark binary; return its result object, or None."""
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return None
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout)
        log(f"benchmark exited with {out.returncode}")
        return None
    for line in lines[:-1]:
        print(line, file=sys.stdout if echo else sys.stderr)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}-seed{args.seed}.trace.json")]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES - 1):
            r = run_binary(cmd + ["--setup-only", "1"], SETUP_TIMEOUT_S)
            if r is None:
                return 1
            setups.append(r)
    result = run_binary(cmd, RUN_TIMEOUT_S, echo=True)
    if result is None:
        return 1
    if setups:
        m = result["metrics"]
        m["setup_s"]["value"] = statistics.median(
            [m["setup_s"]["value"]] +
            [r["metrics"]["setup_s"]["value"] for r in setups])
        # A failed set-up check counts as one failed attempt.
        failed = sum(r["failed"] for r in setups)
        result["attempted"] += failed
        result["failed"] += failed
        result["correct"] = result["failed"] == 0
        m["pass_rate"]["value"] = (
            (result["attempted"] - result["failed"]) / result["attempted"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
