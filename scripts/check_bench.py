#!/usr/bin/env python3
"""Golden gate for one bench binary's BENCH_<name>.json report.

Usage:
  check_bench.py <bench-binary> <golden.json>

Runs the bench at MTIA_THREADS=1 and MTIA_THREADS=8, each in a fresh
temporary directory, and fails unless both reports:
  - follow the mtia-bench-report-v2 schema;
  - have every banded metric in band (a null or out-of-band measured
    value fails);
  - equal the golden once the "wall_clock" array -- the one field that
    is host-dependent by nature -- is dropped. Reports are compared in
    canonical form: keys sorted, one field per line.

The lane-1 report, wall_clock included, is left in ./bench-reports/
for archiving. MTIA_REGEN_GOLDEN=1 rewrites the golden from the lane-1
report instead of comparing against it; the band and lane checks
still apply.
"""

import difflib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

SCHEMA = "mtia-bench-report-v2"
LANES = (1, 8)
ARCHIVE_DIR = "bench-reports"
REGEN_HINT = "rerun with MTIA_REGEN_GOLDEN=1 to rewrite the golden"
TOP_LEVEL = {"schema", "bench", "metrics", "wall_clock", "surrogate",
             "telemetry"}
BAND = {"paper_lo", "paper_hi", "within_band"}


def fail(msg):
    raise SystemExit(f"FAIL: {msg}")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_entries(where, entries, banded):
    """Validates a metrics / wall_clock array; returns its problems."""
    problems = []
    if not isinstance(entries, list):
        return [f"{where} is not an array"]
    for e in entries:
        name = e.get("name") if isinstance(e, dict) else None
        if not isinstance(name, str) or not name:
            problems.append(f"{where} entry without a name: {e!r}")
            continue
        allowed = {"name", "measured", "unit"} | (BAND if banded else set())
        if set(e) - allowed or "measured" not in e:
            problems.append(f"{where} entry {name} has fields {sorted(e)}")
            continue
        measured = e["measured"]
        if measured is not None and not is_number(measured):
            problems.append(f"{name}: measured {measured!r} is not a number")
        if not isinstance(e.get("unit", ""), str):
            problems.append(f"{name}: unit is not a string")
        has_band = BAND & set(e)
        if not has_band:
            continue
        if has_band != BAND or not is_number(e["paper_lo"]) or \
                not is_number(e["paper_hi"]):
            problems.append(f"{name}: incomplete band {sorted(has_band)}")
        elif measured is None or not math.isfinite(measured):
            problems.append(f"{name}: banded metric measured {measured}")
        elif not e["within_band"] or \
                not e["paper_lo"] <= measured <= e["paper_hi"]:
            problems.append(
                f"{name}: out of band (measured {measured}, band "
                f"[{e['paper_lo']}, {e['paper_hi']}], within_band "
                f"{json.dumps(e['within_band'])})")
    return problems


def check_report(where, report, name):
    """Schema and band problems of one parsed report."""
    if not isinstance(report, dict):
        return [f"{where} is not a JSON object"]
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, not {SCHEMA}")
    if report.get("bench") != name:
        problems.append(f"bench is {report.get('bench')!r}, not {name!r}")
    if set(report) - TOP_LEVEL:
        problems.append(f"unknown fields {sorted(set(report) - TOP_LEVEL)}")
    problems += check_entries("metrics", report.get("metrics"), True)
    if "wall_clock" in report:
        problems += check_entries("wall_clock", report["wall_clock"], False)
    surrogate = report.get("surrogate", {})
    if not isinstance(surrogate, dict) or \
            not all(is_number(v) for v in surrogate.values()):
        problems.append("surrogate is not an object of numbers")
    if not isinstance(report.get("telemetry", {}), dict):
        problems.append("telemetry is not an object")
    return [f"{where}: {p}" for p in problems]


def canonical(report):
    """The compared form: wall_clock dropped, sorted keys, one per line."""
    simulated = {k: v for k, v in report.items() if k != "wall_clock"}
    return json.dumps(simulated, sort_keys=True, indent=1) + "\n"


def run_bench(binary, name, lanes, workdir):
    env = dict(os.environ, MTIA_THREADS=str(lanes),
               MTIA_BENCH_REPORT_DIR=workdir)
    try:
        proc = subprocess.run([binary], env=env, cwd=workdir,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
    except OSError as e:
        fail(f"cannot run bench binary {binary!r}: {e}; build it first")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail(f"{binary} exited {proc.returncode} at MTIA_THREADS={lanes}")
    path = os.path.join(workdir, f"BENCH_{name}.json")
    try:
        with open(path, encoding="utf-8") as f:
            return path, json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{binary} at MTIA_THREADS={lanes} left no valid {path}: {e}")


def diff(a, b, a_name, b_name, limit=40):
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(),
                                      a_name, b_name, lineterm=""))
    more = len(lines) - limit
    return "\n".join(lines[:limit] +
                     ([f"... {more} more diff lines"] if more > 0 else []))


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    # Absolute: each run's working directory is its own temporary one.
    binary, golden_path = os.path.abspath(sys.argv[1]), sys.argv[2]
    name = os.path.basename(binary)
    regen = os.environ.get("MTIA_REGEN_GOLDEN") == "1"

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for lanes in LANES:
            workdir = os.path.join(tmp, f"lanes{lanes}")
            os.mkdir(workdir)
            path, report = run_bench(binary, name, lanes, workdir)
            runs[lanes] = report
            if lanes == 1:
                os.makedirs(ARCHIVE_DIR, exist_ok=True)
                shutil.copy(path, ARCHIVE_DIR)

    problems = []
    for lanes, report in runs.items():
        problems += check_report(f"MTIA_THREADS={lanes}", report, name)
    if problems:
        fail(f"BENCH_{name}.json:\n  " + "\n  ".join(problems))
    lane1 = canonical(runs[1])
    for lanes, report in runs.items():
        if canonical(report) != lane1:
            fail(f"BENCH_{name}.json differs between MTIA_THREADS=1 and "
                 f"{lanes}:\n" + diff(lane1, canonical(report), "lanes1",
                                      f"lanes{lanes}"))

    if regen:
        with open(golden_path, "w", encoding="utf-8") as f:
            f.write(lane1)
        print(f"OK: wrote {golden_path}")
        return
    if not os.path.exists(golden_path):
        fail(f"golden {golden_path} does not exist; {REGEN_HINT}")
    with open(golden_path, encoding="utf-8") as f:
        try:
            golden = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"golden {golden_path} is not valid JSON ({e})")
    problems = check_report("golden", golden, name)
    if "wall_clock" in golden:
        problems.append("golden: carries a wall_clock field")
    if problems:
        fail(f"{golden_path}:\n  " + "\n  ".join(problems))
    expected = canonical(golden)
    if lane1 != expected:
        fail(f"BENCH_{name}.json differs from {golden_path} (wall_clock "
             f"dropped); if the change is intended, {REGEN_HINT} and "
             f"explain it in CHANGES.md:\n" +
             diff(expected, lane1, "golden", "measured"))
    print(f"OK: BENCH_{name}.json equals {golden_path} at MTIA_THREADS="
          + " and ".join(str(n) for n in LANES))


if __name__ == "__main__":
    main()
