"""Output checks against closed forms; nothing here imports gsvkit.

Dwork nodes: the singular rays of sum s_i^5 - 5*psi*prod s_i with
psi = zeta_5^c are exactly the points with s_0 = 1, s_i^5 = 1 and
prod s_i = psi^-1, i.e. (1, w^a1, .., w^a4) with w = exp(2 pi i / 5) and
a1 + .. + a4 = -c (mod 5): 125 of them.  Ray coordinates are printed as
rational combinations of powers of zeta = exp(2 pi i / k); they are
evaluated numerically and matched to fifth roots of unity.

Each check returns None on success or a one-line reason.  Run as

    python3 perfbench/checks.py SPEC.json RESULT.json

it checks every call listed in SPEC and writes the list of reasons (null for
a pass) to RESULT.  run.py checks in this separate process because a child
inherits its parent's peak RSS in ru_maxrss: parsing a 26 MB graph in the
driver would raise the peak RSS every later CLI call reports.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*|$))?(zeta(?:\^(\d+))?)?$")


def coordinate_value(text: str, zeta_order: int) -> complex:
    """Value of a printed coefficient such as '-1 - zeta - 3/2*zeta^3'."""
    zeta = cmath.exp(2j * math.pi / zeta_order)
    total = 0j
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = -1 if piece.startswith("-") else 1
        body = piece[1:] if sign < 0 else piece
        m = _TERM.match(body)
        if not body or m is None or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"unreadable coefficient {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        power = 0 if m.group(2) is None else int(m.group(3) or 1)
        total += sign * float(coeff) * zeta ** power
    return total


def _fifth_root_exponent(value: complex) -> int | None:
    for a in range(5):
        if abs(value - cmath.exp(2j * math.pi * a / 5)) < 1e-9:
            return a
    return None


def dwork_nodes(c: int) -> set[tuple[int, ...]]:
    """Exponents (a1..a4) of the 125 nodes for psi = zeta_5^c."""
    return {a for a in product(range(5), repeat=4) if (sum(a) + c) % 5 == 0}


def _ray_exponents(ray: dict, zeta_order: int) -> tuple[int, ...] | None:
    exps = [_fifth_root_exponent(coordinate_value(t, zeta_order)) for t in ray["coords"]]
    if len(exps) != 5 or None in exps or exps[0] != 0:
        return None
    return tuple(exps[1:])


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def dwork_report(files: list[Path], params: dict, zeta_order: int) -> str | None:
    report = _load(files[0])
    if report.get("complete") is not True or report.get("isolated") is not True:
        return "Dwork report is not complete and isolated"
    if report.get("transversal") is not False:
        return "Dwork report does not say non-transversal"
    rays = report["rays"]
    if any(r["class"] != "node" for r in rays):
        return "Dwork report has a ray that is not a node"
    found = [_ray_exponents(r, zeta_order) for r in rays]
    expected = dwork_nodes(params["c"])
    if len(found) != len(expected) or set(found) != expected:
        return f"Dwork rays differ from the {len(expected)} closed-form nodes"
    return None


def float_report(files: list[Path], params: dict, zeta_order: int) -> str | None:
    report = _load(files[0])
    if report.get("complete") is not False:
        return "float search claims completeness"
    certified = [r for r in report["rays"] if r["class"] != "unclassified"]
    if not certified:
        return "float search certified no ray"
    expected = dwork_nodes(params["c"])
    for ray in certified:
        if ray["class"] != "node" or _ray_exponents(ray, zeta_order) not in expected:
            return f"certified ray {ray['coords']} is not a closed-form node"
    return None


def strata(files: list[Path], params: dict, zeta_order: int) -> str | None:
    got = len(_load(files[0])["strata"])
    if got != params["expected"]:
        return f"{files[0].name}: {got} strata, expected {params['expected']}"
    return None


def cohomology(files: list[Path], params: dict, zeta_order: int) -> str | None:
    report = _load(files[0])
    raw, refined = report["raw_dims"][2], report["refined_dims"][2]
    if (raw, refined) != (params["raw_h2"], params["refined_h2"]):
        return (f"h2 raw/refined {raw}/{refined}, expected "
                f"{params['raw_h2']}/{params['refined_h2']}")
    return None


def _resolution_index(label: str, n_classes: int) -> int:
    if not label.startswith("M_nat_"):
        raise ValueError(label)
    index = int(label[len("M_nat_"):]) - 1
    if not 0 <= index < 2 ** n_classes:
        raise ValueError(label)
    return index


def graph(files: list[Path], params: dict, zeta_order: int) -> str | None:
    """2 + 2^N vertices; 1 defo, 2^N exoflop and N*2^(N-1) flop edges;
    flops join resolutions at Hamming distance 1; DOT has the same edges."""
    big_n = params["classes"]
    g = _load(files[0])
    if len(g["vertices"]) != 2 + 2 ** big_n:
        return f"{len(g['vertices'])} vertices, expected {2 + 2 ** big_n}"
    labels = {"defo": [], "exoflop": [], "flop": []}
    for e in g["edges"]:
        labels[e["label"]].append(e)
    want = {"defo": 1, "exoflop": 2 ** big_n, "flop": big_n * 2 ** (big_n - 1)}
    for kind, count in want.items():
        if len(labels[kind]) != count:
            return f"{len(labels[kind])} {kind} edges, expected {count}"
    exo_targets = {_resolution_index(e["target"], big_n) for e in labels["exoflop"]}
    if len(exo_targets) != 2 ** big_n:
        return "exoflop edges do not reach every resolution once"
    flops = set()
    for e in labels["flop"]:
        diff = _resolution_index(e["source"], big_n) ^ _resolution_index(e["target"], big_n)
        if diff == 0 or diff & (diff - 1):
            return f"flop {e['source']} -- {e['target']} is not at Hamming distance 1"
        flops.add(frozenset((e["source"], e["target"])))
    if len(flops) != want["flop"]:
        return "repeated flop edges"
    if len(files) > 1:
        with open(files[1], encoding="utf-8") as fh:
            dot_edges = sum(1 for line in fh if " -- " in line)
        if dot_edges != len(g["edges"]):
            return f"DOT has {dot_edges} edges, JSON has {len(g['edges'])}"
    return None


CHECKS = {f.__name__: f for f in (dwork_report, float_report, strata, cohomology, graph)}


def check_all(spec: dict) -> list[str | None]:
    out = []
    for call in spec["calls"]:
        try:
            out.append(CHECKS[call["check"]]([Path(f) for f in call["files"]],
                                             call["params"], spec["zeta_order"]))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            out.append(f"unreadable output: {exc!r}")
    return out


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:]
    problems = check_all(json.loads(Path(spec_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(problems), encoding="utf-8")
