"""Smoke test of the benchmark itself: a tiny run of every workload, traced
and untraced, checking that every metric is emitted and the result schema
holds; then a run without the library, which must fail without a result.

    python3 perfbench/smoke.py        # from the root of a source checkout

Exits 0 when every check passes; takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics a --trace 0 run prints in its table, JSON or not.
TABLE_METRICS = ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "failed_frac", "peak_rss_mb",
                 "closed_ref_gap_max", "ruom_elements_mean", "ruom_delta_met_frac")


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload, trace, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')!r}\n{proc.stderr}")
    for key in ("attempted", "failed"):
        if type(result.get(key)) is not int:
            problems.append(f"{where}: {key} is not a whole number")
    if result.get("attempted", 0) < 1:
        problems.append(f"{where}: nothing attempted")
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in spec]:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} is {got!r}, unit should be {m['unit']}")
        elif type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is 0")
    if not trace:
        table = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
        problems += [f"{where}: table lacks {name}" for name in TABLE_METRICS
                     if name not in table]
    return problems


def check_without_library() -> list:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "curves", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the library: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main():
    problems = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace in (0, 1):
            found = check_result(workload, trace, run(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = check_without_library()
    print(f"without the library: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
