"""Assemble the ground-state variety, sheet by sheet, from a transversality report.

Each sheet (positive or negative moment level) is an independent stratified
space.  Only the sign of the level matters; radial sizes are recorded as
symbolic formulas on the strata, never as numbers.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Tuple

from .errors import IncompleteResultError, NonIsolatedError
from .exocurves import build_exocurve, normalize_sheet
from .singular import Kind, TransversalityReport


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


class Stratum(NamedTuple):
    kind: StratumKind
    compact: bool
    index: int | None = None
    orbifold_group: int = 1
    radius: str | None = None

    @property
    def complex_dimension(self) -> int:
        return _DIMENSIONS[self.kind]

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


class StratifiedVariety(NamedTuple):
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


def build_ground_state_variety(report: TransversalityReport, sheet) -> StratifiedVariety:
    """One sheet of the ground-state variety.  Orbifold groups and exocurve
    compactness are read from the sheet's exocurve atlas."""
    sheet = normalize_sheet(sheet)
    if not report.complete:
        raise IncompleteResultError(
            "transversality search was inconclusive; cannot stratify")
    bad = [r for r in report.rays if r.classification.kind is not Kind.NODE]
    if bad:
        raise NonIsolatedError(
            f"{len(bad)} singular rays are not certified isolated nodes")

    atlas = build_exocurve(sheet)
    if sheet > 0:
        if report.transversal:
            smooth = Stratum(StratumKind.SMOOTH_CY, compact=True, radius="|s|^2 = r")
            return StratifiedVariety(sheet, (smooth,), (), 1)
        head = [Stratum(StratumKind.MAIN_CONIFOLD, compact=False, radius="|s|^2 = r")]
        radius = "r_plus = 5*|p|^2 + |r|"
    else:
        head = [Stratum(StratumKind.FUZZY_POINT, compact=True,
                        orbifold_group=atlas.chart("U_p").orbifold_group_order,
                        radius="5*|p|^2 = |r|")]
        if report.transversal:
            return StratifiedVariety(sheet, tuple(head), (), 1)
        radius = "r_minus = |s_ray|^2 + |r|"

    n = len(report.rays)
    group = max(c.orbifold_group_order for c in atlas.charts)
    strata = head + [Stratum(StratumKind.EXOCURVE, atlas.compact, index=j,
                             orbifold_group=group, radius=radius)
                     for j in range(1, n + 1)]
    if sheet < 0:
        # the exocurves form a plum product joined at the fuzzy point
        attachments = [(0, j, "fuzzy") for j in range(1, n + 1)]
    else:
        # main conifold -x_j- node point j -x_j- exocurve j; node points follow
        # the exocurves, so node point j is stratum n + j
        strata += [Stratum(StratumKind.NODE_POINT, compact=True, index=j)
                   for j in range(1, n + 1)]
        attachments = [a for j in range(1, n + 1)
                       for a in ((0, n + j, f"x{j}"), (n + j, j, f"x{j}"))]
    return StratifiedVariety(sheet, tuple(strata), tuple(attachments), 1)


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
        lines.append(f"Landau-Ginzburg point with Z_{variety.strata[0].orbifold_group}"
                     " orbifold tag")
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
