"""Sheet-by-sheet stratification of the ground state variety."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsvkit.cyclo import CyclotomicField
from gsvkit.errors import (GsvInputError, IncompleteResultError, NonIsolatedError,
                           QuantumRegionError)
from gsvkit.singular import SingularRay, TransversalityReport
from gsvkit.strata import (Chart, StratumKind, build_exocurve, build_ground_state_variety,
                           normalize_sheet, strata_report)

K5 = CyclotomicField(5)

TRANSVERSAL = TransversalityReport((), "ansatz", True)


def nodal_report(n, corank=0):
    rays = tuple(SingularRay((K5.one,) * 5, corank) for _ in range(n))
    return TransversalityReport(rays, "test", True)


def test_transversal_positive_sheet_is_smooth_cy():
    v = build_ground_state_variety(TRANSVERSAL, "pos")
    assert [s.kind for s in v.strata] == [StratumKind.SMOOTH_CY]
    assert v.strata[0].complex_dimension == 3
    assert v.connected_components == 1
    assert v.attachments == ()
    assert "1 stratum, dim 3, smooth" in strata_report(v)


def test_transversal_negative_sheet_is_fuzzy_point():
    v = build_ground_state_variety(TRANSVERSAL, "neg")
    assert [s.kind for s in v.strata] == [StratumKind.FUZZY_POINT]
    assert v.strata[0].orbifold_group == 5
    assert v.connected_components == 1


def test_zero_sheet_rejected():
    with pytest.raises(QuantumRegionError):
        build_ground_state_variety(TRANSVERSAL, 0)
    with pytest.raises(QuantumRegionError):
        normalize_sheet(0)


def test_zero_sheet_exocurve_rejected():
    with pytest.raises(QuantumRegionError):
        build_exocurve(0)


def test_positive_sheet_charts():
    # C^1: U_s is proper, U_p is punctured at its limit point
    assert build_exocurve("positive") == (Chart("U_s", True), Chart("U_p", False))


def test_negative_sheet_charts():
    # C^1/Z_5: U_p is proper, its orbifold group matches the fuzzy point's
    charts = build_exocurve("negative")
    assert charts == (Chart("U_p", True, 5), Chart("U_s", False))
    fuzzy = build_ground_state_variety(TRANSVERSAL, "neg").strata[0]
    assert fuzzy.orbifold_group == charts[0].orbifold_group_order


def test_incomplete_report_rejected():
    inconclusive = TransversalityReport((), "ansatz", False)
    with pytest.raises(IncompleteResultError):
        build_ground_state_variety(inconclusive, "pos")


def test_non_isolated_report_rejected():
    report = nodal_report(1, corank=4)
    assert not report.isolated
    for sheet in ("pos", "neg"):
        with pytest.raises(NonIsolatedError):
            build_ground_state_variety(report, sheet)


def test_nodal_positive_sheet_n2():
    v = build_ground_state_variety(nodal_report(2), 1)
    dims = [s.complex_dimension for s in v.strata]
    assert dims == [3, 1, 1, 0, 0]
    assert "dim sequence {3,1,1,0,0}" in strata_report(v)
    # attachment forest: Main - NodePoint_j - Exocurve_j for each j
    labels = {(v.strata[i].label(), v.strata[j].label(), lab)
              for i, j, lab in v.attachments}
    assert labels == {
        ("MainConifold", "NodePoint#1", "x1"),
        ("NodePoint#1", "Exocurve#1", "x1"),
        ("MainConifold", "NodePoint#2", "x2"),
        ("NodePoint#2", "Exocurve#2", "x2"),
    }


def test_nodal_negative_sheet_n2_star():
    v = build_ground_state_variety(nodal_report(2), -1)
    kinds = [s.kind for s in v.strata]
    assert kinds[0] is StratumKind.FUZZY_POINT
    assert kinds[1:] == [StratumKind.EXOCURVE] * 2
    assert all(s.orbifold_group == 5 for s in v.strata)
    assert set(v.attachments) == {(0, 1, "fuzzy"), (0, 2, "fuzzy")}
    assert "2 exocurves meeting at fuzzy point" in strata_report(v)


@pytest.mark.parametrize("n", [1, 2, 5, 125])
def test_positive_sheet_structure(n):
    v = build_ground_state_variety(nodal_report(n), "pos")
    assert len(v.strata) == 1 + 2 * n
    assert v.connected_components == 1
    kinds = [s.kind for s in v.strata]
    assert kinds.count(StratumKind.EXOCURVE) == n
    assert kinds.count(StratumKind.NODE_POINT) == n
    # the attachment graph is a connected tree on 1+2n vertices
    assert len(v.attachments) == 2 * n
    adjacency = {i: set() for i in range(len(v.strata))}
    for i, j, _ in v.attachments:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    assert seen == set(range(len(v.strata)))
    # the r > 0 exocurve is C^1, so not compact
    assert all(not s.compact for s in v.strata if s.kind is StratumKind.EXOCURVE)


@pytest.mark.parametrize("n", [1, 2, 5, 125])
def test_negative_sheet_star(n):
    v = build_ground_state_variety(nodal_report(n), "neg")
    assert len(v.strata) == 1 + n
    assert len(v.attachments) == n
    assert all(a[0] == 0 for a in v.attachments)
    assert {a[1] for a in v.attachments} == set(range(1, n + 1))


@given(st.integers(1, 30))
def test_json_dump_shape(n):
    v = build_ground_state_variety(nodal_report(n), "pos")
    obj = v.to_json_dict()
    assert obj["sheet"] == "positive"
    assert len(obj["strata"]) == 1 + 2 * n
    assert all(len(a) == 3 for a in obj["attachments"])


def test_sheet_parsing():
    assert normalize_sheet("positive") == 1
    assert normalize_sheet("neg") == -1
    assert normalize_sheet(-3) == -1
    # only the sign of a real level matters, however small
    assert [normalize_sheet(r) for r in (0.5, -0.5, Fraction(1, 3), Fraction(-1, 3))] == [
        1, -1, 1, -1]
    for wall in (0, 0.0, Fraction(0)):
        with pytest.raises(QuantumRegionError):
            normalize_sheet(wall)
    with pytest.raises(GsvInputError, match="^unknown sheet 'up'$"):
        normalize_sheet("up")
    for bad in (float("nan"), None, [1], 1j, True, False):
        with pytest.raises(GsvInputError, match="sheet must be a real moment level"):
            normalize_sheet(bad)
