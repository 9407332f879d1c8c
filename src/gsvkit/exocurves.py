"""Chart atlases for the exocurves and their compactifications.

The exocurve over a singular ray is the weight (-5, 1) projectivization of
the (p, ray) plane.  Everything the atlases record is combinatorial: which
of the two candidate charts is proper in each sheet, the monomial gluing
map of exponent +-5, and the order of the orbifold group carried by a
chart.  The fractional power behind the p-chart coordinate is never
evaluated; only its fifth power enters any computation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Tuple

from .cyclo import Cyclo
from .errors import BranchPointError, GsvInputError, QuantumRegionError, WrongModelError


class Model(str, Enum):
    A_PLUS = "A_plus"
    A_MINUS = "A_minus"
    P151 = "P151"
    COMPACTIFIED_A_PLUS = "CompactifiedA_plus"


class Chart(NamedTuple):
    name: str
    coordinate: str
    proper: bool               # contains its limit point
    orbifold_group_order: int = 1


class Transition(NamedTuple):
    source: str
    target: str
    exponent: int  # target coordinate = (source coordinate) ** exponent


class Atlas(NamedTuple):
    model: Model
    charts: Tuple[Chart, ...]
    transitions: Tuple[Transition, ...]
    global_type: str

    def chart(self, name: str) -> Chart:
        for c in self.charts:
            if c.name == name:
                return c
        raise GsvInputError(f"atlas {self.model.value} has no chart {name!r}")

    @property
    def compact(self) -> bool:
        return all(c.proper for c in self.charts)

    def euler_characteristic(self) -> int:
        # chart decomposition: proper charts are cones over a point (chi 1),
        # punctured charts and all overlaps are C*-like (chi 0)
        return sum(1 for c in self.charts if c.proper)


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
    if not isinstance(sheet, Real) or sheet != sheet:  # NaN has no sign
        raise GsvInputError(f"sheet must be a real moment level, got {sheet!r}")
    if sheet > 0:
        return 1
    if sheet < 0:
        return -1
    raise QuantumRegionError(
        "r = 0 is not covered: the construction is only valid away from the wall")


def build_exocurve(sheet) -> Atlas:
    """The exocurve atlas for one sheet: C^1 for r>0, C^1/Z_5 for r<0."""
    sheet = normalize_sheet(sheet)
    u_p = "U_p"
    u_s = "U_s"
    glue = (Transition(u_p, u_s, 5),)
    if sheet > 0:
        charts = (Chart(u_s, "u_s", proper=True),
                  Chart(u_p, "u_p", proper=False))
        return Atlas(Model.A_PLUS, charts, glue, "C^1")
    charts = (Chart(u_p, "u_p", proper=True, orbifold_group_order=5),
              Chart(u_s, "u_s", proper=False))
    return Atlas(Model.A_MINUS, charts, glue, "C^1/Z_5")


def build_comparison_p151() -> Atlas:
    """The compact weighted line with weights (5, 1), for comparison."""
    charts = (Chart("U_s", "u_s", proper=True),
              Chart("U_q", "u_q", proper=True, orbifold_group_order=5))
    return Atlas(Model.P151, charts, (Transition("U_q", "U_s", -5),), "P^1")


def compactify(atlas: Atlas) -> Atlas:
    """One-point compactification of the r>0 exocurve: adjoin the inverted
    p-chart modulo Z_5, producing a compact atlas of global type P^1."""
    if atlas.model is not Model.A_PLUS:
        raise WrongModelError(
            f"compactify expects the noncompact r>0 exocurve, got {atlas.model.value}")
    charts = (Chart("U_s", "u_s", proper=True),
              Chart("U_p_tilde", "w_p", proper=True, orbifold_group_order=5))
    return Atlas(Model.COMPACTIFIED_A_PLUS, charts,
                 (Transition("U_p_tilde", "U_s", -5),), "P^1")


def transition(atlas: Atlas, source: str, value: Cyclo) -> Cyclo:
    """Apply the stored monomial gluing map to a chart coordinate value.

    The map is 1-to-5 away from the branch point; a whole orbit of
    root-of-unity multiples collapses to one image.
    """
    atlas.chart(source)
    for t in atlas.transitions:
        if t.source == source:
            if value.is_zero() and (t.exponent < 0 or not atlas.chart(t.target).proper):
                # negative exponent: pole at 0; punctured target: the image
                # of the branch point is the excluded limit point
                raise BranchPointError(
                    f"{t.source} -> {t.target} is undefined at the branch point 0")
            return value ** t.exponent
    raise GsvInputError(
        f"atlas {atlas.model.value} stores no transition out of {source!r}")


def deficit_angle(chart: Chart) -> Fraction:
    """Cone angle deficit at the chart's orbifold point, in units of pi.

    An order-m quotient point has deficit (1 - 1/m) * 2 pi; m = 1 gives a
    smooth point with deficit 0.
    """
    m = chart.orbifold_group_order
    if m < 1:
        raise GsvInputError("orbifold group order must be >= 1")
    return Fraction(2 * (m - 1), m)
