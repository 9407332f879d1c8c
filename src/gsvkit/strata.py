"""Assemble the ground-state variety, sheet by sheet, from a transversality report.

Each sheet (positive or negative moment level) is an independent stratified
space.  Only the sign of the level matters; radial sizes are recorded as
symbolic formulas on the strata, never as numbers.

The exocurve over a singular ray is the weight (-5, 1) projectivization of
the (p, ray) plane.  Of its two charts U_s and U_p, the sheet decides which
is proper (contains its limit point): U_s for r > 0, where the exocurve is
C^1, and U_p with a Z_5 orbifold point for r < 0, where it is C^1/Z_5.

A sheet is built only when every ray of the report is a node and the ray
count is proven: `TransversalityReport.require_nodal`, the verdict that
`analyze` exits on, is asked first, so `stratify` exits as `analyze` did.
"""

from __future__ import annotations

from enum import Enum
from numbers import Real
from typing import NamedTuple, Tuple

from .errors import GsvInputError, QuantumRegionError
from .singular import TransversalityReport


class Chart(NamedTuple):
    name: str
    proper: bool               # contains its limit point
    orbifold_group_order: int = 1


def normalize_sheet(sheet) -> int:
    """The sign of a real moment level, or of 'pos'/'positive',
    'neg'/'negative'; reject the r=0 wall."""
    if isinstance(sheet, str):
        s = sheet.lower()
        if s in ("pos", "positive", "+"):
            return 1
        if s in ("neg", "negative", "-"):
            return -1
        raise GsvInputError(f"unknown sheet {sheet!r}")
    # a bool is no moment level; NaN has no sign
    if isinstance(sheet, bool) or not isinstance(sheet, Real) or sheet != sheet:
        raise GsvInputError(f"sheet must be a real moment level, got {sheet!r}")
    if sheet > 0:
        return 1
    if sheet < 0:
        return -1
    raise QuantumRegionError(
        "r = 0 is not covered: the construction is only valid away from the wall")


def build_exocurve(sheet) -> Tuple[Chart, Chart]:
    """The exocurve's two charts on one sheet, the proper one first."""
    if normalize_sheet(sheet) > 0:
        return Chart("U_s", proper=True), Chart("U_p", proper=False)
    return Chart("U_p", proper=True, orbifold_group_order=5), Chart("U_s", proper=False)


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

    @property
    def connected_components(self) -> int:
        """1: every stratum is attached to the sheet's first stratum."""
        return 1

    def to_json_dict(self):
        return {
            "sheet": "positive" if self.sheet > 0 else "negative",
            "strata": [s.to_json_dict() for s in self.strata],
            "attachments": [list(a) for a in self.attachments],
            "connected_components": self.connected_components,
        }


def build_ground_state_variety(report: TransversalityReport, sheet) -> StratifiedVariety:
    """One sheet of the ground-state variety.  Orbifold groups and exocurve
    compactness are read from the sheet's exocurve charts."""
    report.require_nodal()
    sheet = normalize_sheet(sheet)

    charts = build_exocurve(sheet)
    if sheet > 0:
        if report.transversal:
            smooth = Stratum(StratumKind.SMOOTH_CY, compact=True, radius="|s|^2 = r")
            return StratifiedVariety(sheet, (smooth,), ())
        head = [Stratum(StratumKind.MAIN_CONIFOLD, compact=False, radius="|s|^2 = r")]
        radius = "r_plus = 5*|p|^2 + |r|"
    else:
        head = [Stratum(StratumKind.FUZZY_POINT, compact=True,
                        orbifold_group=charts[0].orbifold_group_order,  # proper U_p
                        radius="5*|p|^2 = |r|")]
        if report.transversal:
            return StratifiedVariety(sheet, tuple(head), ())
        radius = "r_minus = |s_ray|^2 + |r|"

    n = len(report.rays)
    group = max(c.orbifold_group_order for c in charts)
    compact = all(c.proper for c in charts)
    strata = head + [Stratum(StratumKind.EXOCURVE, compact, index=j,
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
    return StratifiedVariety(sheet, tuple(strata), tuple(attachments))


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
