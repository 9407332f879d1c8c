"""Assemble the ground-state variety, sheet by sheet, from a transversality report.

Each sheet (positive or negative moment level) is an independent stratified
space.  Only the sign of the level matters; radial sizes are recorded as
symbolic formulas on the strata, never as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from .errors import GsvInputError, IncompleteResultError, NonIsolatedError, QuantumRegionError
from .singular import Kind, TransversalityReport

LG_ORBIFOLD_ORDER = 5  # the stabilizer of the fuzzy point and of the r<0 exocurves


class StratumKind(str, Enum):
    MAIN_CONIFOLD = "MainConifold"
    SMOOTH_CY = "SmoothCY"
    EXOCURVE = "Exocurve"
    NODE_POINT = "NodePoint"
    FUZZY_POINT = "FuzzyPoint"


_DIMENSIONS = {
    StratumKind.MAIN_CONIFOLD: 3,
    StratumKind.SMOOTH_CY: 3,
    StratumKind.EXOCURVE: 1,
    StratumKind.NODE_POINT: 0,
    StratumKind.FUZZY_POINT: 0,
}


@dataclass(frozen=True)
class Stratum:
    kind: StratumKind
    complex_dimension: int
    compact: bool
    index: int | None = None
    orbifold_group: int = 1
    radius: str | None = None

    def __post_init__(self):
        if self.complex_dimension != _DIMENSIONS[self.kind]:
            raise GsvInputError(
                f"{self.kind.value} must have complex dimension {_DIMENSIONS[self.kind]}")

    def label(self) -> str:
        if self.index is None:
            return self.kind.value
        return f"{self.kind.value}#{self.index}"

    def to_json_dict(self):
        return {
            "kind": self.kind.value,
            "index": self.index,
            "dim": self.complex_dimension,
            "compact": self.compact,
            "orbifold_group": self.orbifold_group,
            "radius": self.radius,
        }


@dataclass(frozen=True)
class StratifiedVariety:
    sheet: int  # +1 or -1
    strata: Tuple[Stratum, ...]
    attachments: Tuple[Tuple[int, int, str], ...]  # (stratum index, stratum index, label)
    connected_components: int

    def to_json_dict(self):
        return {
            "sheet": "positive" if self.sheet > 0 else "negative",
            "strata": [s.to_json_dict() for s in self.strata],
            "attachments": [list(a) for a in self.attachments],
            "connected_components": self.connected_components,
        }


def normalize_sheet(sheet) -> int:
    """Accept +-1, 'pos'/'positive', 'neg'/'negative'; reject the r=0 wall."""
    if isinstance(sheet, str):
        s = sheet.lower()
        if s in ("pos", "positive", "+"):
            return 1
        if s in ("neg", "negative", "-"):
            return -1
        raise GsvInputError(f"unknown sheet {sheet!r}")
    value = int(sheet)
    if value > 0:
        return 1
    if value < 0:
        return -1
    raise QuantumRegionError(
        "r = 0 is not covered: the construction is only valid away from the wall")


def build_ground_state_variety(report: TransversalityReport, sheet) -> StratifiedVariety:
    sheet = normalize_sheet(sheet)
    if not report.complete or report.transversal is None:
        raise IncompleteResultError(
            "transversality search was inconclusive; cannot stratify")
    bad = [r for r in report.rays if r.classification.kind is not Kind.NODE]
    if bad:
        raise NonIsolatedError(
            f"{len(bad)} singular rays are not certified isolated nodes")

    if report.transversal:
        if sheet > 0:
            stratum = Stratum(StratumKind.SMOOTH_CY, 3, compact=True,
                              radius="|s|^2 = r")
        else:
            stratum = Stratum(StratumKind.FUZZY_POINT, 0, compact=True,
                              orbifold_group=LG_ORBIFOLD_ORDER,
                              radius="5*|p|^2 = |r|")
        return StratifiedVariety(sheet, (stratum,), (), 1)

    n = len(report.rays)
    if sheet > 0:
        strata = [Stratum(StratumKind.MAIN_CONIFOLD, 3, compact=False,
                          radius="|s|^2 = r")]
        strata += [Stratum(StratumKind.EXOCURVE, 1, compact=False, index=j,
                           radius="r_plus = 5*|p|^2 + |r|")
                   for j in range(1, n + 1)]
        strata += [Stratum(StratumKind.NODE_POINT, 0, compact=True, index=j)
                   for j in range(1, n + 1)]
        attachments = []
        for j in range(1, n + 1):
            node = n + j      # index into strata: main, exocurves, node points
            exo = j
            attachments.append((0, node, f"x{j}"))
            attachments.append((node, exo, f"x{j}"))
        return StratifiedVariety(sheet, tuple(strata), tuple(attachments), 1)

    # negative sheet: the exocurves form a plum product joined at the fuzzy point
    strata = [Stratum(StratumKind.FUZZY_POINT, 0, compact=True,
                      orbifold_group=LG_ORBIFOLD_ORDER, radius="5*|p|^2 = |r|")]
    strata += [Stratum(StratumKind.EXOCURVE, 1, compact=False, index=j,
                       orbifold_group=LG_ORBIFOLD_ORDER,
                       radius="r_minus = |s_ray|^2 + |r|")
               for j in range(1, n + 1)]
    attachments = tuple((0, j, "fuzzy") for j in range(1, n + 1))
    return StratifiedVariety(sheet, tuple(strata), attachments, 1)


def strata_report(variety: StratifiedVariety) -> str:
    dims = "{" + ",".join(str(s.complex_dimension) for s in variety.strata) + "}"
    lines = [
        f"sheet: r {'>' if variety.sheet > 0 else '<'} 0",
        f"strata: {len(variety.strata)}",
        f"dim sequence {dims}",
    ]
    kinds = [s.kind for s in variety.strata]
    if kinds == [StratumKind.SMOOTH_CY]:
        lines.append("1 stratum, dim 3, smooth")
    if kinds == [StratumKind.FUZZY_POINT]:
        lines.append("Landau-Ginzburg point with Z_5 orbifold tag")
    exocurves = sum(1 for k in kinds if k is StratumKind.EXOCURVE)
    if exocurves and variety.sheet < 0:
        lines.append(f"{exocurves} exocurves meeting at fuzzy point")
    if exocurves and variety.sheet > 0:
        lines.append(f"{exocurves} exocurves attached to the main conifold at node points")
    for s in variety.strata:
        extra = f", Z_{s.orbifold_group}" if s.orbifold_group > 1 else ""
        extra += f", {s.radius}" if s.radius else ""
        lines.append(f"  {s.label()}: dim {s.complex_dimension}"
                     f", {'compact' if s.compact else 'non-compact'}{extra}")
    for i, j, label in variety.attachments:
        lines.append(f"  {variety.strata[i].label()} -({label})- {variety.strata[j].label()}")
    lines.append(f"connected components: {variety.connected_components}")
    return "\n".join(lines)
