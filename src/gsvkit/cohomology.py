"""Mayer-Vietoris bookkeeping for the compactified stratified variety.

The engine works with dimensions of graded vector spaces over a field of
characteristic zero (degrees 0..6, optionally Hodge-bigraded).  Its scope
is the configuration at hand: a base piece glued to a disjoint union of
2-spheres along finitely many points, one per sphere.  Two counting modes
are kept side by side:

  raw      - the literal long-exact-sequence count; the n sphere classes
             all land in degree 2.
  refined  - sphere classes are identified whenever their nodes lie on the
             same 4-cycle class, so degree 2 gains only N = #classes, all
             of Hodge type (1,1).  This is the compactified union's count.

The refined identification is taken as an axiom of the engine; the raw
count stays available so the discrepancy n - N is always visible.
`cohomology_report` states both counts and checks the Kahler package on
the even degrees of the one its mode selects.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Dict, Mapping, Optional, Tuple

from .errors import ExactnessError, GsvInputError, MalformedIncidenceError

DEGREES = range(7)


def _require_int(value, name: str) -> int:
    """`value` itself when it is an int; bools and floats such as 2.5 or 2.0
    are rejected rather than truncated."""
    if type(value) is not int:
        raise GsvInputError(f"{name} must be an integer, got {value!r}")
    return value


class GradedSpace(namedtuple("GradedSpace", "dims hodge")):
    """Dimensions of H^0..H^6, with an optional (p,q) refinement."""

    __slots__ = ()

    def __new__(cls, dims: Tuple[int, ...],
                hodge: Optional[Mapping[Tuple[int, int], int]] = None):
        dims = tuple(dims)
        for q, d in enumerate(dims):
            _require_int(d, f"graded dimension in degree {q}")
        if len(dims) != 7:
            raise GsvInputError("expected exactly 7 graded dimensions (degrees 0..6)")
        if any(d < 0 for d in dims):
            raise GsvInputError("graded dimensions must be non-negative")
        if hodge is not None:
            hodge = {(int(p), int(q)): _require_int(v, f"Hodge number ({p},{q})")
                     for (p, q), v in dict(hodge).items()}
            if any(v < 0 for v in hodge.values()):
                raise GsvInputError("Hodge numbers must be non-negative")
            for p, q in hodge:
                if p < 0 or q < 0 or p + q > 6:
                    raise GsvInputError(f"Hodge index ({p},{q}) outside degrees 0..6")
            for k in DEGREES:
                total = sum(v for (p, q), v in hodge.items() if p + q == k)
                if total != dims[k]:
                    raise GsvInputError(
                        f"Hodge numbers in total degree {k} sum to {total}, expected {dims[k]}")
        return super().__new__(cls, dims, hodge)

    def euler(self) -> int:
        return sum((-1) ** q * d for q, d in enumerate(self.dims))

    def to_json_dict(self):
        out: Dict[str, object] = {"dims": list(self.dims)}
        if self.hodge is not None:
            out["hodge"] = {f"{p},{q}": v for (p, q), v in sorted(self.hodge.items())}
        return out


class ConifoldData(namedtuple("ConifoldData", "base n classes")):
    """Base cohomology plus the partition of the nodes 1..n into 4-cycle classes.

    `classes` may list members in any order; they are stored ascending, with
    the classes kept in their given order.  Every node lies in exactly one
    class and no class is empty; construction rejects anything else, so every
    instance holds a valid partition.
    """

    __slots__ = ()

    def __new__(cls, base: GradedSpace, n: int, classes: Tuple[Tuple[int, ...], ...]):
        _require_int(n, "node count n")
        if n < 0:
            raise MalformedIncidenceError("negative node count")
        try:
            classes = tuple(tuple(sorted(members)) for members in classes)
        except TypeError:
            classes = None
        if classes is None or any(type(j) is not int for c in classes for j in c):
            raise MalformedIncidenceError("classes must be lists of integer node indices")
        owner: Dict[int, int] = {}
        for k, members in enumerate(classes, start=1):
            if not members:
                raise MalformedIncidenceError(f"4-cycle class {k} has no nodes")
            for j in members:
                if not 1 <= j <= n:
                    raise MalformedIncidenceError(f"node index {j} outside 1..{n}")
                if j in owner:
                    where = (f"twice in 4-cycle class {k}" if owner[j] == k
                             else f"in 4-cycle classes {owner[j]} and {k}")
                    raise MalformedIncidenceError(
                        f"node {j} listed {where}, expected exactly one class")
                owner[j] = k
        if len(owner) != n:
            missing = next(j for j in range(1, n + 1) if j not in owner)
            raise MalformedIncidenceError(f"node {missing} lies on no 4-cycle class")
        return super().__new__(cls, base, n, classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @classmethod
    def from_json_dict(cls, obj) -> "ConifoldData":
        if not isinstance(obj, dict):
            raise GsvInputError(
                f"ConifoldData must be a JSON object, got {type(obj).__name__}")
        allowed = ("base_dims", "n", "classes", "base_hodge")
        for key in obj:
            if key not in allowed:
                raise GsvInputError(f"ConifoldData has unknown field {key!r}; "
                                    f"allowed fields are {', '.join(allowed)}")
        if "n" not in obj:
            raise GsvInputError("ConifoldData has no field 'n'")
        hodge = obj.get("base_hodge")
        if hodge is not None:
            if not isinstance(hodge, dict):
                raise GsvInputError("base_hodge must be an object keyed by 'p,q'")
            keys = {}
            for key in hodge:
                if not re.fullmatch(r"\s*-?\d+\s*,\s*-?\d+\s*", key):
                    raise GsvInputError(f"base_hodge key {key!r} is not of the form 'p,q'")
                p, q = map(int, key.split(","))
                if keys.setdefault((p, q), key) != key:
                    raise GsvInputError(f"base_hodge keys {keys[p, q]!r} and {key!r} both "
                                        f"name the Hodge number ({p},{q})")
            hodge = {pq: hodge[key] for pq, key in keys.items()}
        if not isinstance(obj.get("base_dims"), list):
            raise GsvInputError("base_dims must be a list of 7 integers")
        dims = tuple(_require_int(d, f"base_dims[{q}]")
                     for q, d in enumerate(obj["base_dims"]))
        return cls(GradedSpace(dims, hodge), obj["n"], obj.get("classes", []))


def mayer_vietoris(data: ConifoldData, mode: str = "raw") -> GradedSpace:
    """Glue the base to n disjoint 2-spheres along n points, one per sphere.

    With the intersection concentrated in degree 0, the long exact sequence
    splits: degrees 2..6 add up directly, and surjectivity of the degree-0
    comparison map leaves H^0 and H^1 of the base.  Degree 2 gains the n
    sphere classes in raw mode and one class per 4-cycle class in refined
    mode; with base Hodge numbers, those N classes are of type (1,1).
    """
    if data.base.dims[0] < 1:
        raise ExactnessError("degree-0 exactness fails: union would be empty")
    if mode not in ("raw", "refined"):
        raise GsvInputError(f"unknown mode {mode!r}")
    dims = list(data.base.dims)
    dims[2] += data.n if mode == "raw" else data.n_classes
    hodge = data.base.hodge
    if mode == "raw" or hodge is None:
        return GradedSpace(tuple(dims))
    return GradedSpace(tuple(dims), {**hodge, (1, 1): hodge.get((1, 1), 0) + data.n_classes})


def cohomology_report(data: ConifoldData, mode: str = "refined") -> dict:
    """Both counts, their discrepancy, and the Kahler check of the `mode` count.

    The check reads even degrees only; H^3 is deliberately never consulted.
    Item (iii), a nondegenerate pairing of H^2 with H^4, splits into the
    block pairing the N class-collapsed sphere classes with their dual
    4-cycle classes, which is the N x N identity, and the complement, which
    is nondegenerate exactly when it is square: (iii) is h^2 = h^4 >= N.
    The bound always holds, as h^2 is b_2 + n raw and b_2 + N refined, with
    b_2 >= 0 and N <= n (classes are non-empty and disjoint), so (iii) = (ii).
    """
    chosen = mayer_vietoris(data, mode)
    raw, refined = mayer_vietoris(data), mayer_vietoris(data, "refined")
    base, h = data.base.dims, chosen.dims
    i1, i2 = h[0] == h[6], h[2] == h[4]
    warnings = [] if base[4] == base[2] + data.n_classes else [
        f"base data violates dim H^4(base) = dim H^2(base) + N "
        f"({base[4]} != {base[2]} + {data.n_classes})"]
    return {
        "mode": mode,
        "n": data.n,
        "classes": data.n_classes,
        "raw_dims": list(raw.dims),
        "refined_dims": list(refined.dims),
        "result": chosen.to_json_dict(),
        "euler_raw": raw.euler(),
        "euler_refined": refined.euler(),
        "euler_base": data.base.euler(),
        "discrepancy": data.n - data.n_classes,
        "kahler": {"h0_equals_h6": i1, "h2_equals_h4": i2, "pairing_nondegenerate": i2,
                   "passed": i1 and i2, "warnings": warnings},
    }


def cohomology_report_text(report: dict) -> str:
    width = max(5, max(len(str(d)) for d in report["raw_dims"]))
    lines = [
        "q       " + " ".join(f"{'H^' + str(q):>{width}}" for q in DEGREES),
        "raw     " + " ".join(f"{d:>{width}}" for d in report["raw_dims"]),
        "refined " + " ".join(f"{d:>{width}}" for d in report["refined_dims"]),
        f"euler: base {report['euler_base']}, raw {report['euler_raw']}, "
        f"refined {report['euler_refined']}",
    ]
    if report["discrepancy"]:
        lines.append(
            f"raw/refined discrepancy in degree 2: n - N = {report['discrepancy']}")
    lines.append("Kahler package on even degrees (mode %s):" % report["mode"])
    mark = lambda ok: "pass" if ok else "FAIL"
    k = report["kahler"]
    lines.append(f"  (i)   dim H^0 = dim H^6 : {mark(k['h0_equals_h6'])}")
    lines.append(f"  (ii)  dim H^2 = dim H^4 : {mark(k['h2_equals_h4'])}")
    lines.append(f"  (iii) even pairing nondegenerate : {mark(k['pairing_nondegenerate'])}")
    for w in k["warnings"]:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)
