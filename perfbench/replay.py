"""Replay one iteration of a workload in-process through gsvkit.cli.main.

Run in a fresh interpreter by run.py:

    python3 perfbench/replay.py JOB.json RESULT.json

JOB holds the source directory, the work directory, the argv of each CLI
call, whether to trace, and the seed and field order of the Cyclo
micro-loops (untraced replays only).  RESULT gets the import time of
gsvkit.cli, the wall time and exit code of each call, and, when traced, the
spans, leaf aggregates and counters.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

MUL_OPS, INV_OPS, REPEATS = 1000, 100, 5


def _operands(field, rng: random.Random, count: int) -> list:
    out = []
    while len(out) < count:
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                  for _ in range(field.degree)]
        if any(coeffs):
            out.append(field.element(coeffs))
    return out


def cyclo_micro(zeta_order: int, seed: int) -> dict:
    """Median ns per Cyclo multiply and inverse on seeded operands in Q(zeta_k)."""
    from gsvkit.cyclo import CyclotomicField

    rng = random.Random(f"cyclo:{zeta_order}:{seed}")
    ops = _operands(CyclotomicField(zeta_order), rng, 64)
    pairs = [(ops[i % 64], ops[(7 * i + 3) % 64]) for i in range(MUL_OPS)]
    inverses = [ops[i % 64] for i in range(INV_OPS)]

    def per_op(fn, n):
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            fn()
            times.append((perf_counter() - start) / n * 1e9)
        return statistics.median(times)

    return {"mul_ns": per_op(lambda: [a * b for a, b in pairs], MUL_OPS),
            "inv_ns": per_op(lambda: [a.inverse() for a in inverses], INV_OPS)}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    start = perf_counter()
    import gsvkit.cli
    import_s = perf_counter() - start

    rec = None
    if job["trace"]:
        from spans import Recorder, instrument
        rec = Recorder()
        instrument(rec)
    os.chdir(job["workdir"])
    calls = []
    for i, argv in enumerate(job["calls"]):
        start = perf_counter()
        try:
            if rec is None:
                code = gsvkit.cli.main(argv)
            else:
                rec.run_id = f"{job['run_id']}:{i}"
                code = rec.span("cli.main", gsvkit.cli.main, argv)
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code
        calls.append({"argv": argv, "exit": code, "wall_s": perf_counter() - start})

    result = {"import_s": import_s, "calls": calls,
              "wall_s": sum(c["wall_s"] for c in calls)}
    if rec is not None:
        result["trace"] = rec.to_json_dict()
    if job.get("micro_seed") is not None:
        # after the replay, so it warms nothing the replay's wall time sees
        result["micro"] = cyclo_micro(job["zeta_order"], job["micro_seed"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
