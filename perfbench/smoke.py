"""Smoke test of the benchmark itself: every workload once in both modes.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is a result with exactly the
keys correct/attempted/failed/metrics, that the output checks passed, and
that every metric BENCHMARK.json names is present with its unit.  It also
runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"output checks failed: {proc.stdout.strip()[:500]}")
    if not result.get("attempted", 0) >= 1:
        errors.append("nothing attempted")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, numbers.Real) \
                or isinstance(value, bool):
            errors.append(f"{m['name']}: {got}")
        elif not trace and value <= 0:
            errors.append(f"{m['name']} is {value}; end-to-end metrics must not be 0")
    return errors


def bare_directory_fails() -> list[str]:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without the source: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            errors = check_result(run(ROOT, workload, trace), trace)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} --trace {trace}")
            for e in errors:
                print(f"     {e}")
    errors = bare_directory_fails()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} without src/ the benchmark refuses to run")
    for e in errors:
        print(f"     {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
