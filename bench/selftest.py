"""Self-test of the benchmark harness; not part of the tier-1 suite.

    python3 bench/selftest.py

Runs every workload at tiny command sizes (``--smoke``), untraced and
traced, and asserts that each run is correct and emits every metric that
``BENCHMARK.json`` names with a finite value.  Then checks that the
harness refuses to run, without printing a result, in a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.  Takes about
two minutes, most of it in the fixed-size additivity grid.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{label}: metric {metric['name']} is {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            print(f"ok {label}: {result['attempted']} ops")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: the harness ran without the package sources")
        else:
            print("ok bare directory: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
