"""gsvkit benchmark: end-to-end CLI cost, or per-layer cost from a traced replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the gsvkit source is taken from src/ next to this
directory, and every file the run writes stays under .perfbench/ there.

--trace 0: runs the workload's CLI calls as fresh `python -m gsvkit.cli`
  child processes, one after another (closed loop, one client, no --jobs),
  until S seconds are used, and reports the end-to-end metrics.
--trace 1: alternates an untraced and a traced in-process replay of the same
  calls (replay.py, each in a fresh interpreter) for S seconds and reports
  the per-layer metrics, medians over the replays.

Every call's exit code and output are checked against closed forms
(checks.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with provenance
and every sample, goes to .perfbench/out/.  The metric definitions are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REPLAY = Path(__file__).resolve().parent / "replay.py"
CHECKER = Path(__file__).resolve().parent / "checks.py"
SETUP_REPEATS = 7          # fresh `--help` starts per run; setup_s is their median
TAIL_BEYOND = 10           # samples that must lie above the reported tail
PROBE_REF_S = 0.01         # nominal probe time that defines a calibrated second
PROBE_ROUNDS, PROBE_REPEATS = 50, 5
_PROBE_TERMS = [Fraction(i % 7 - 3, 1 + i % 4) for i in range(8)]
CLI = [sys.executable, "-m", "gsvkit.cli"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_tail_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    "singular.scan_s": "s", "singular.candidates": "count",
    "singular.scan_us_per_candidate": "us",
    "poly.evaluate_calls": "count", "poly.evaluate_s": "s",
    "cyclo.mul_calls": "count", "cyclo.mul_ns": "ns",
    "singular.classify_s": "s", "singular.rays": "count",
    "singular.classify_ms_per_ray": "ms",
    "linalg.rank_calls": "count", "linalg.rank_s": "s",
    "poly.derive_calls": "count", "poly.derive_s": "s",
    "cyclo.inv_calls": "count", "cyclo.inv_ns": "ns",
    "singular.float_s": "s",
    "poly.evaluate_complex_calls": "count", "poly.evaluate_complex_s": "s",
    "resolutions.graph_s": "s", "resolutions.edges": "count",
    "resolutions.graph_us_per_edge": "us", "resolutions.graph_rss_mb": "MB",
    "cli.self_s": "s", "cli.out_bytes": "bytes",
    "strata.build_s": "s", "cohomology.report_s": "s", "poly.parse_s": "s",
    "cli.import_s": "s", "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}


@dataclass
class Sample:
    exit: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def probe_s() -> float:
    """Mean time of a fixed pure-Python loop (Fraction products summed into
    a dict), after one unmeasured pass that warms the caches a child left cold.

    The CPU speed of a shared host can drift by a factor of two over seconds
    to minutes.  End-to-end times are scaled by PROBE_REF_S / probe, with the
    probe run right before and right after each child, which cancels most of
    that drift.  The probe uses no gsvkit code, so a change to gsvkit still
    moves the calibrated times in full.
    """
    times = []
    for _ in range(PROBE_REPEATS + 1):
        start = perf_counter()
        for _ in range(PROBE_ROUNDS):
            acc: dict = {}
            for i, a in enumerate(_PROBE_TERMS):
                for j, b in enumerate(_PROBE_TERMS):
                    acc[(i + j) % 5] = acc.get((i + j) % 5, 0) + a * b
        times.append(perf_counter() - start)
    return statistics.mean(times[1:])


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    # the numeric path's 4x4 least squares must not fan out over BLAS threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> Sample:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def clear_outputs(wl: workloads.Workload, workdir: Path) -> int:
    """Delete the calls' output files; returns the bytes they held."""
    total = 0
    for call in wl.calls:
        for name in call.outputs:
            path = workdir / name
            if path.exists():
                total += path.stat().st_size
                path.unlink()
    return total


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it, and
    that percentile.  Below 2 * TAIL_BEYOND + 1 samples that percentile would
    not lie above the median, so the upper quartile (p75, interpolated) is
    reported; the maximum of so few samples on a shared host is too unsteady
    to gate on."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[-1], 100.0
    if n <= 2 * TAIL_BEYOND:
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    def __init__(self, wl: workloads.Workload, workdir: Path, seconds: float):
        self.wl, self.workdir, self.seconds = wl, workdir, seconds
        self.env = child_env(workdir)
        self.log = workdir / "stderr.log"
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, exits: list) -> None:
        """Check the exit codes and outputs of one iteration's calls."""
        spec = {"zeta_order": self.wl.zeta_order,
                "calls": [{"check": c.check, "params": c.params,
                           "files": [str(self.workdir / o) for o in c.outputs]}
                          for c in self.wl.calls]}
        spec_path, result_path = self.workdir / "check.json", self.workdir / "checked.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        sample = run_child([sys.executable, str(CHECKER), str(spec_path), str(result_path)],
                           self.workdir, self.env, self.log)
        if sample.exit != 0:
            raise RuntimeError(f"output checker exited {sample.exit}: "
                               + self.log.read_text(errors="replace")[-2000:])
        problems = json.loads(result_path.read_text(encoding="utf-8"))
        for call, code, problem in zip(self.wl.calls, exits, problems):
            self.attempted += 1
            if code != call.exit_code:
                problem = f"exit {code}, expected {call.exit_code}"
            if problem:
                self.failed += 1
                self.problems.append(f"{call.argv[0]}: {problem}")

    def loop(self, iteration) -> list:
        """Call `iteration` until the next one would overrun the run time."""
        out = []
        start = perf_counter()
        while True:
            began = perf_counter()
            out.append(iteration())
            now = perf_counter()
            if now - start + (now - began) > self.seconds:
                return out

    def calibrated(self, argvs: list[list[str]]) -> list[tuple[Sample, float]]:
        """Run children one after another with a probe before the first and
        after each; a child's scale is PROBE_REF_S over its two probes' mean."""
        out = []
        before = probe_s()
        for argv in argvs:
            sample = run_child(argv, self.workdir, self.env, self.log)
            after = probe_s()
            out.append((sample, 2 * PROBE_REF_S / (before + after)))
            before = after
        return out

    def setup_s(self) -> tuple[float, list]:
        help_argv = CLI + ["--help"]
        run_child(help_argv, self.workdir, self.env, self.log)   # compiles bytecode once
        runs = self.calibrated([help_argv] * SETUP_REPEATS)
        if any(s.exit != 0 for s, _ in runs):
            raise RuntimeError("gsvkit --help failed")
        return (statistics.median(s.wall_s * k for s, k in runs),
                [{"wall_s": s.wall_s, "scale": k} for s, k in runs])

    def cli_iteration(self) -> dict:
        runs = self.calibrated([CLI + call.argv for call in self.wl.calls])
        self.check([s.exit for s, _ in runs])
        clear_outputs(self.wl, self.workdir)
        return {"wall_s": sum(s.wall_s * k for s, k in runs),
                "cpu_s": sum(s.cpu_s * k for s, k in runs),
                "peak_rss_mb": max(s.maxrss_kb for s, _ in runs) / 1024,
                "raw_wall_s": sum(s.wall_s for s, _ in runs),
                "raw_cpu_s": sum(s.cpu_s for s, _ in runs),
                "scales": [k for _, k in runs]}

    def end_to_end(self) -> tuple[dict, dict]:
        setup, setup_runs = self.setup_s()
        iters = self.loop(self.cli_iteration)
        walls = [it["wall_s"] for it in iters]
        tail_s, tail_pct = tail(walls)
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "wall_tail_s": tail_s,
            "cpu_s": statistics.median(it["cpu_s"] for it in iters),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iters),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }
        detail = {"iterations": iters, "setup_runs": setup_runs,
                  "wall_tail_percentile": tail_pct, "samples": len(iters)}
        return metrics, detail

    def replay(self, trace: bool, run_id: str) -> dict:
        job = {"src": str(SRC), "workdir": str(self.workdir), "trace": trace,
               "calls": [c.argv for c in self.wl.calls], "run_id": run_id,
               "zeta_order": self.wl.zeta_order,
               "micro_seed": None if trace else self.wl.seed}
        job_path, result_path = self.workdir / "job.json", self.workdir / "result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        sample = run_child([sys.executable, str(REPLAY), str(job_path), str(result_path)],
                           self.workdir, self.env, self.log)
        if sample.exit != 0:
            raise RuntimeError(f"replay exited {sample.exit}: "
                               + self.log.read_text(errors="replace")[-2000:])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.check([c["exit"] for c in result["calls"]])
        result["out_bytes"] = clear_outputs(self.wl, self.workdir)
        return result

    def per_layer(self) -> tuple[dict, dict]:
        pairs = []

        def pair():
            run_id = f"{self.wl.name}:{self.wl.seed}:{len(pairs)}"
            plain = self.replay(False, run_id + ":plain")
            traced = self.replay(True, run_id)
            pairs.append((plain, traced))
            return layer_metrics(plain, traced)

        samples = self.loop(pair)
        metrics = {k: statistics.median(s[k] for s in samples) for k in PER_LAYER}
        spans = {"workload": self.wl.name, "seed": self.wl.seed,
                 "replays": [{"run_id": f"{self.wl.name}:{self.wl.seed}:{i}",
                              "self_s": self_times(t["trace"]), **t["trace"]}
                             for i, (_, t) in enumerate(pairs)]}
        return metrics, {"samples": samples, "spans": spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer numbers of one traced replay; ratios with a zero base read 0."""
    trace = traced["trace"]
    spans, counts = trace["spans"], trace["counts"]

    def span_s(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def leaf(name):
        rows = [r for r in trace["leaves"] if r["name"] == name]
        return sum(r["calls"] for r in rows), sum(r["total_s"] for r in rows)

    scan_s, candidates = span_s("singular.scan"), counts.get("singular.candidates", 0)
    classify_s = span_s("singular.classify")
    rays = sum(1 for s in spans if s["name"] == "singular.classify")
    graph_s, edges = span_s("resolutions.graph"), counts.get("resolutions.edges", 0)
    evaluate_calls, evaluate_s = leaf("poly.evaluate")
    rank_calls, rank_s = leaf("linalg.rank")
    derive_calls, derive_s = leaf("poly.derive")
    complex_calls, complex_s = leaf("poly.evaluate_complex")
    return {
        "singular.scan_s": scan_s,
        "singular.candidates": candidates,
        "singular.scan_us_per_candidate": _ratio(scan_s * 1e6, candidates),
        "poly.evaluate_calls": evaluate_calls,
        "poly.evaluate_s": evaluate_s,
        "cyclo.mul_calls": counts.get("cyclo.mul", 0),
        "cyclo.mul_ns": plain["micro"]["mul_ns"],
        "singular.classify_s": classify_s,
        "singular.rays": rays,
        "singular.classify_ms_per_ray": _ratio(classify_s * 1e3, rays),
        "linalg.rank_calls": rank_calls,
        "linalg.rank_s": rank_s,
        "poly.derive_calls": derive_calls,
        "poly.derive_s": derive_s,
        "cyclo.inv_calls": counts.get("cyclo.inv", 0),
        "cyclo.inv_ns": plain["micro"]["inv_ns"],
        "singular.float_s": span_s("singular.float"),
        "poly.evaluate_complex_calls": complex_calls,
        "poly.evaluate_complex_s": complex_s,
        "resolutions.graph_s": graph_s,
        "resolutions.edges": edges,
        "resolutions.graph_us_per_edge": _ratio(graph_s * 1e6, edges),
        "resolutions.graph_rss_mb": sum(s["rss_growth_kb"] for s in spans
                                        if s["name"] == "resolutions.graph") / 1024,
        "cli.self_s": sum(s["self_s"] for s in spans if s["name"] == "cli.main"),
        "cli.out_bytes": plain["out_bytes"],
        "strata.build_s": span_s("strata.build"),
        "cohomology.report_s": span_s("cohomology.report"),
        "poly.parse_s": leaf("poly.parse")[1],
        "cli.import_s": plain["import_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1,
    }


def provenance(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    sys.path.insert(0, str(SRC))
    import gsvkit
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "git_sha": sha, "gsvkit": gsvkit.__version__,
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gsvkit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no gsvkit source at {SRC}\n")
        return 2
    # driver, probe and children share one CPU, so the probe sees the speed
    # the children get; children inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM, unwind like an interrupt: run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = STATE / f"work-{os.getpid()}"
    outdir = STATE / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        run = Run(wl, workdir, args.seconds)
        if args.trace:
            metrics, detail = run.per_layer()
            units = PER_LAYER
            spans = detail.pop("spans")
            (outdir / f"{wl.name}-seed{wl.seed}-spans.json").write_text(
                json.dumps(spans), encoding="utf-8")
        else:
            metrics, detail = run.end_to_end()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed),
              "params": wl.params, "calls": [c.argv for c in wl.calls],
              "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems[:20], "metrics": metrics, **detail}
    (outdir / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for problem in run.problems[:5]:
        print(f"check failed: {problem}")
    if "samples" in detail and not args.trace:
        print(f"{wl.name} seed {wl.seed}: {detail['samples']} iterations, "
              f"wall_tail_s is p{detail['wall_tail_percentile']:.0f}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
