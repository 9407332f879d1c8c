"""Exocurve atlases, gluing maps, compactification, deficit angles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsvkit.cyclo import CyclotomicField
from gsvkit.errors import BranchPointError, GsvInputError, QuantumRegionError, WrongModelError
from gsvkit.exocurves import (Chart, Model, build_comparison_p151, build_exocurve,
                              compactify, deficit_angle, transition)

K5 = CyclotomicField(5)


def test_positive_sheet_atlas():
    atlas = build_exocurve("positive")
    assert atlas.model is Model.A_PLUS
    assert atlas.global_type == "C^1"
    proper = [c for c in atlas.charts if c.proper]
    assert [c.name for c in proper] == ["U_s"]
    assert not atlas.chart("U_p").proper
    assert not atlas.compact
    assert atlas.euler_characteristic() == 1


def test_negative_sheet_atlas():
    atlas = build_exocurve("negative")
    assert atlas.model is Model.A_MINUS
    assert atlas.global_type == "C^1/Z_5"
    proper = [c for c in atlas.charts if c.proper]
    assert [c.name for c in proper] == ["U_p"]
    assert proper[0].orbifold_group_order == 5  # matches the LG orbifold group
    assert not atlas.chart("U_s").proper


def test_zero_sheet_rejected():
    with pytest.raises(QuantumRegionError):
        build_exocurve(0)


def test_transition_examples():
    a_plus = build_exocurve(1)
    assert transition(a_plus, "U_p", K5.element(2)) == K5.element(32)
    z = K5.zeta()
    assert transition(a_plus, "U_p", K5.element(2) * z) == K5.element(32)
    p151 = build_comparison_p151()
    assert transition(p151, "U_q", K5.one) == K5.one


def test_transition_unknown_direction():
    a_plus = build_exocurve(1)
    with pytest.raises(GsvInputError):
        transition(a_plus, "U_s", K5.one)
    with pytest.raises(GsvInputError):
        transition(a_plus, "U_q", K5.one)


def test_transition_branch_point():
    p151 = build_comparison_p151()
    with pytest.raises(BranchPointError):
        transition(p151, "U_q", K5.zero)
    # in the r>0 sheet the image chart is proper, so 0 maps to 0
    a_plus = build_exocurve(1)
    assert transition(a_plus, "U_p", K5.zero).is_zero()
    # in the r<0 sheet the image chart is punctured at the would-be image
    with pytest.raises(BranchPointError):
        transition(build_exocurve(-1), "U_p", K5.zero)


def test_five_to_one_orbit_collapse():
    atlas = build_exocurve(1)
    value = K5.element([Fraction(1, 2), 3, 0, -1])
    images = {transition(atlas, "U_p", value * K5.zeta_power(a)).coeffs
              for a in range(5)}
    assert len(images) == 1


def test_compactify():
    compact = compactify(build_exocurve(1))
    assert compact.model is Model.COMPACTIFIED_A_PLUS
    assert compact.global_type == "P^1"
    assert compact.compact
    assert len(compact.charts) == 2 and all(c.proper for c in compact.charts)
    assert compact.euler_characteristic() == 2
    assert [c.name for c in compact.charts
            if c.proper and c.orbifold_group_order > 1] == ["U_p_tilde"]
    assert transition(compact, "U_p_tilde", K5.element(2)) == K5.element(Fraction(1, 32))


def test_compactify_wrong_model():
    with pytest.raises(WrongModelError):
        compactify(build_exocurve(-1))
    with pytest.raises(WrongModelError):
        compactify(compactify(build_exocurve(1)))
    with pytest.raises(WrongModelError):
        compactify(build_comparison_p151())


def test_p151_atlas():
    atlas = build_comparison_p151()
    assert atlas.compact
    assert len([c for c in atlas.charts if c.proper]) == 2
    assert atlas.euler_characteristic() == 2
    assert atlas.global_type == "P^1"
    (t,) = atlas.transitions
    assert t.exponent == -5


def test_deficit_angles():
    compact = compactify(build_exocurve(1))
    assert deficit_angle(compact.chart("U_p_tilde")) == Fraction(8, 5)
    assert deficit_angle(Chart("x", "x", True, 1)) == 0
    assert deficit_angle(Chart("x", "x", True, 2)) == 1


@given(st.integers(1, 40))
def test_deficit_angle_formula(m):
    # (1 - 1/m) * 2 pi, expressed in units of pi
    assert deficit_angle(Chart("x", "x", True, m)) == 2 - Fraction(2, m)


def test_transition_exponents_are_pm5():
    for atlas in (build_exocurve(1), build_exocurve(-1),
                  build_comparison_p151(), compactify(build_exocurve(1))):
        assert all(abs(t.exponent) == 5 for t in atlas.transitions)

