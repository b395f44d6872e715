#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

  python3 perfbench/spread.py WORKLOAD [--seeds 1,2,...] [--seconds S]

Runs perfbench/run.py untraced once per seed and prints, per end-to-end
metric of BENCHMARK.json, the median of the runs and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, against
a third of the metric's bound. Exits 1 when a spread other than
setup_s's exceeds that target.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", seed, "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed op(s)")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        v = values[name]
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        ok = name == "setup_s" or spread <= bound / 3
        steady = steady and ok
        print(f"{name:18s} median {statistics.median(v):12.6g}  "
              f"spread {spread:7.4f}  target {bound / 3:7.4f}  "
              f"{'ok' if ok else 'NOISY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
