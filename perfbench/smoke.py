"""Smoke test of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (--smoke), untraced
and traced, and fails unless each run passes every output check and emits
exactly the metrics BENCHMARK.json names, with their units.  It also runs
the command in a directory holding only BENCHMARK.json and the benchmark's
own files, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {result.get('failed')} of {result.get('attempted')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted must be a positive integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {expected[name]!r}")
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_result(run(spec, wl["name"], trace, ROOT), expected)
            verdict = "ok" if not problems else "FAIL"
            print(f"{wl['name']:18s} trace {trace}: {verdict}")
            failures += [f"{wl['name']} trace {trace}: {p}" for p in problems]

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec, spec["workloads"][0]["name"], 0, bare)
    shutil.rmtree(bare)
    printed_result = proc.stdout.strip().endswith("}")
    print(f"{'without sources':18s}        : exit {proc.returncode}")
    if proc.returncode == 0 or printed_result:
        failures.append("a checkout without the package sources must fail without a result")

    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
