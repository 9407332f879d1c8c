"""Seeded inputs and CLI call lists for the benchmark workloads.

The seed picks psi = zeta_5^c for the Dwork quintic
    sum s_i^5 - 5*psi*s0*s1*s2*s3*s4        (psi^5 = 1)
and the partition of the 125 nodes into 4-cycle classes.  Every variant has
exactly 125 nodes on the root-of-unity grid.  The CLI sees only the files
written here.

psi is drawn from the 4 of 5 values that are a single power-basis monomial
in Q(zeta_k).  The fifth, zeta_k^a with a = 4 (mod 5), reduces to four terms
(at k = 5, zeta^4 = -1 - zeta - zeta^2 - zeta^3), which makes every product
with psi dearer: runs with it took about 20% longer, so a seed that drew it
would read as a regression.  Every seed therefore costs the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DWORK_NODES = 125
PIPELINE_CLASSES = 4
HYPERCUBE_CLASSES = 14
BASE_B2 = 1
BASE_B3 = 204


@dataclass
class Call:
    """One CLI invocation, its expected exit code, and how to check its output."""

    argv: list[str]
    exit_code: int
    check: str                      # name of a function in checks.py
    outputs: list[str]              # files the call writes, main report first
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    zeta_order: int                 # field order the workload runs at
    params: dict
    calls: list[Call]


def _pick_psi(rng: random.Random, zeta_order: int) -> int:
    """c with psi = zeta_5^c = zeta_k^(c*k/5) a single power-basis monomial."""
    return rng.choice([c for c in range(5) if c * (zeta_order // 5) % 5 != 4])


def _dwork_text(c: int, zeta_order: int) -> str:
    """psi = zeta_5^c written with the declared root zeta = zeta_k (5 | k)."""
    a = (c * (zeta_order // 5)) % zeta_order
    psi = "" if a == 0 else ("zeta*" if a == 1 else f"zeta^{a}*")
    return f"s0^5+s1^5+s2^5+s3^5+s4^5-5*{psi}s0*s1*s2*s3*s4\n"


def _conifold(n: int, classes: list[list[int]]) -> dict:
    n_classes = len(classes)
    # dim H^4(base) = dim H^2(base) + N keeps the Kahler balance consistent
    return {"base_dims": [1, 0, BASE_B2, BASE_B3, BASE_B2 + n_classes, 0, 1],
            "n": n, "classes": classes}


def _random_partition(rng: random.Random, n: int, parts: int) -> list[list[int]]:
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    bounds = [0] + cuts + [n]
    return [sorted(nodes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    c = _pick_psi(rng, 10 if name == "scan-k10" else 5)
    if name == "scan-k10":
        k = 10
        poly = _write(workdir, "dwork.poly", _dwork_text(c, k))
        calls = [Call(["analyze", poly, "--zeta-order", str(k), "--format", "json",
                       "--output", "report.json"], 0, "dwork_report", ["report.json"],
                      {"c": c})]
        return Workload(name, seed, k, {"psi_exponent": c}, calls)
    if name == "float-k5":
        poly = _write(workdir, "dwork.poly", _dwork_text(c, 5))
        calls = [Call(["analyze", poly, "--source", "float", "--format", "json",
                       "--output", "report.json"], 2, "float_report", ["report.json"],
                      {"c": c})]
        return Workload(name, seed, 5, {"psi_exponent": c}, calls)
    if name == "pipeline-k5":
        poly = _write(workdir, "dwork.poly", _dwork_text(c, 5))
        classes = _random_partition(rng, DWORK_NODES, PIPELINE_CLASSES)
        data = _write(workdir, "conifold.json",
                      json.dumps(_conifold(DWORK_NODES, classes)) + "\n")
        n, big_n = DWORK_NODES, PIPELINE_CLASSES
        calls = [
            Call(["analyze", poly, "--format", "json", "--output", "report.json"],
                 0, "dwork_report", ["report.json"], {"c": c}),
            Call(["stratify", "report.json", "--sheet", "pos", "--format", "json",
                  "--output", "pos.json"], 0, "strata", ["pos.json"],
                 {"expected": 1 + 2 * n}),
            Call(["stratify", "report.json", "--sheet", "neg", "--format", "json",
                  "--output", "neg.json"], 0, "strata", ["neg.json"],
                 {"expected": 1 + n}),
            Call(["cohomology", data, "--format", "json", "--output", "cohomology.json"],
                 0, "cohomology", ["cohomology.json"],
                 {"raw_h2": BASE_B2 + n, "refined_h2": BASE_B2 + big_n}),
            Call(["resolutions", data, "--format", "json", "--output", "graph.json"],
                 0, "graph", ["graph.json"], {"classes": big_n}),
        ]
        return Workload(name, seed, 5, {"psi_exponent": c, "class_sizes":
                                        [len(m) for m in classes]}, calls)
    if name == "hypercube-n14":
        big_n = HYPERCUBE_CLASSES
        nodes = list(range(1, big_n + 1))
        rng.shuffle(nodes)
        data = _write(workdir, "conifold.json",
                      json.dumps(_conifold(big_n, [[j] for j in nodes])) + "\n")
        calls = [Call(["resolutions", data, "--format", "json", "--output", "graph.json",
                       "--dot", "graph.dot"], 0, "graph", ["graph.json", "graph.dot"],
                      {"classes": big_n})]
        return Workload(name, seed, 5, {"class_order": nodes}, calls)
    raise KeyError(name)


NAMES = ("scan-k10", "pipeline-k5", "hypercube-n14", "float-k5")
