"""Polynomial core: parsing, grading, calculus, exact evaluation."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gsvkit.cyclo import CyclotomicField
from gsvkit.errors import GsvInputError, PolynomialParseError
from gsvkit.poly import DEFAULT_VARIABLES, Polynomial, parse_polynomial, parse_scalar
from gsvkit.singular import verify_transversal

from oracle_quintics import ROWS

K5 = CyclotomicField(5)

FERMAT = "s0^5+s1^5+s2^5+s3^5+s4^5"
DWORK = "s0^5+s1^5+s2^5+s3^5+s4^5-5*s0*s1*s2*s3*s4"


def test_parse_fermat_five_terms():
    g = parse_polynomial(FERMAT, K5)
    assert len(g.terms) == 5
    assert all(c == K5.one for c in g.terms.values())


def test_parse_dwork_six_terms():
    g = parse_polynomial(DWORK, K5)
    assert len(g.terms) == 6
    assert g.terms[(1, 1, 1, 1, 1)] == K5.element(-5)


def test_parse_unknown_variable():
    with pytest.raises(PolynomialParseError, match="unknown variable q"):
        parse_polynomial("s0^5 + q", K5)


def test_parse_zeta_requires_extension():
    with pytest.raises(PolynomialParseError, match="root-of-unity"):
        parse_polynomial("zeta*s0^5", CyclotomicField(1))
    g = parse_polynomial("zeta^3*s0^5", K5)
    assert g.terms[(5, 0, 0, 0, 0)] == K5.zeta_power(3)


def test_parse_rational_coefficients_and_whitespace():
    g = parse_polynomial("  2/5 * s0^2 * s1^3  -  s2 ^ 5 ", K5)
    assert g.terms[(2, 3, 0, 0, 0)] == K5.element(Fraction(2, 5))
    assert g.terms[(0, 0, 5, 0, 0)] == K5.element(-1)


def test_parse_syntax_error_positions():
    with pytest.raises(PolynomialParseError, match="position"):
        parse_polynomial("s0^5 + * s1", K5)
    # every parse error names a position; the end of the input is len(text)
    for text, message in [("", "empty polynomial"), ("   ", "empty polynomial"),
                          ("s0^", "expected a non-negative integer exponent"),
                          ("s0^5+", "expected a coefficient or a variable"),
                          ("s0^5 - ", "expected a coefficient or a variable"),
                          ("2/", "expected an integer denominator")]:
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial(text, K5)
        assert str(info.value) == f"{message} (at position {len(text)})"
        assert info.value.position == len(text)


def test_is_homogeneous():
    fermat = parse_polynomial(FERMAT, K5)
    assert fermat.is_homogeneous(5)
    assert not fermat.is_homogeneous(4)
    assert not parse_polynomial("s0^5 + s1^4", K5).is_homogeneous(5)
    # 0 is homogeneous of every degree; the search rejects it by its own check
    zero = Polynomial(K5, DEFAULT_VARIABLES, {})
    assert zero.is_homogeneous(5) and zero.is_homogeneous(4)
    for g in (zero, parse_polynomial("s0^5 - s0^5", K5)):
        with pytest.raises(GsvInputError) as info:
            verify_transversal(g)
        assert str(info.value) == "expected a nonzero homogeneous polynomial of degree 5"


def test_gradient_fermat():
    g = parse_polynomial(FERMAT, K5)
    grads = g.gradient()
    for i, comp in enumerate(grads):
        exp = [0] * 5
        exp[i] = 4
        assert comp.terms == {tuple(exp): K5.element(5)}


def test_gradient_of_constant_is_zero():
    one = parse_polynomial("1", K5)
    assert all(comp.is_zero() for comp in one.gradient())


def test_gradient_dwork_component():
    g = parse_polynomial(DWORK, K5)
    expected = parse_polynomial("5*s0^4 - 5*s1*s2*s3*s4", K5)
    assert g.partial(0) == expected


def test_evaluate_examples():
    fermat = parse_polynomial(FERMAT, K5)
    assert fermat.evaluate([1, 0, 0, 0, 0]) == K5.one
    dwork = parse_polynomial(DWORK, K5)
    assert dwork.evaluate([1, 1, 1, 1, 1]).is_zero()


def test_evaluate_at_cyclotomic_point():
    # oracle: expand by hand and reduce mod Phi_5.
    # powers: 1 + zeta^5 + zeta^20 + zeta^10 + zeta^15 = 5;
    # product term: 5 * zeta^(1+4+2+3) = 5 * zeta^10 = 5; difference 0.
    dwork = parse_polynomial(DWORK, K5)
    z = K5.zeta()
    assert dwork.evaluate([K5.one, z, z ** 4, z ** 2, z ** 3]).is_zero()


def term_by_term(g, point):
    """The reference value: each term's coefficient times its coordinates,
    one multiplication per unit of exponent, summed."""
    total = g.field.zero
    for exp, coeff in g.terms.items():
        for x, e in zip(point, exp):
            for _ in range(e):
                coeff = coeff * x
        total = total + coeff
    return total


EVALUATION_POINTS = [
    ("0", "1", "zeta", "1/2", "1+zeta"),
    ("zeta^2", "0", "0", "-1", "zeta^3"),
    ("1", "zeta", "zeta^2", "zeta^3", "zeta^4"),
    ("1/2", "1+zeta", "-2/3", "3", "zeta^4-1/5"),
    ("0", "0", "0", "0", "0"),
]
DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.mark.parametrize("k", (5, 10))
@pytest.mark.parametrize("text", [pytest.param(row.text, id=row.name) for row in ROWS] + [
    pytest.param(path.read_text(), id=path.name) for path in sorted(DATA.glob("*.poly"))])
def test_evaluate_matches_the_term_by_term_product(text, k):
    field = CyclotomicField(k)
    g = parse_polynomial(text.strip(), field)
    for point in EVALUATION_POINTS:
        point = [parse_scalar(c, field) for c in point]
        for p in (g, *g.gradient()):
            assert p.evaluate(point) == term_by_term(p, point)


def test_hessian_examples():
    h = parse_polynomial("s0^2", K5).hessian()
    for i in range(5):
        for j in range(5):
            expected = K5.element(2) if i == j == 0 else K5.zero
            assert h[i][j].evaluate([0, 0, 0, 0, 0]) == expected
    h = parse_polynomial("s0*s1", K5).hessian()
    at = [0, 0, 0, 0, 0]
    assert h[0][1].evaluate(at) == K5.one and h[1][0].evaluate(at) == K5.one
    assert h[0][0].evaluate(at).is_zero()
    fermat = parse_polynomial(FERMAT, K5)
    hf = fermat.hessian()
    pt = [1, 0, 0, 0, 0]
    assert hf[0][0].evaluate(pt) == K5.element(20)
    assert all(hf[i][j].evaluate(pt).is_zero()
               for i in range(5) for j in range(5) if (i, j) != (0, 0))


# -- randomized properties ------------------------------------------------------

exponents = st.tuples(*[st.integers(0, 4) for _ in range(5)])
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=8)
coeff_vecs = st.lists(coefficients, min_size=4, max_size=4)


def elements(field):
    return st.lists(coefficients, min_size=field.degree, max_size=field.degree).map(field.element)


@st.composite
def polynomials(draw, min_terms=1, max_terms=6, field=K5):
    n = draw(st.integers(min_terms, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(elements(field))
    return Polynomial(field, DEFAULT_VARIABLES, terms)


@st.composite
def homogeneous_polynomials(draw, degree=5):
    n = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=4, max_size=4)))
        exp = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1],
               cuts[3] - cuts[2], degree - cuts[3])
        terms[exp] = K5.element(draw(coeff_vecs))
    poly = Polynomial(K5, DEFAULT_VARIABLES, terms)
    return poly


points_strategy = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                           min_size=5, max_size=5)


@given(homogeneous_polynomials(), points_strategy)
def test_euler_identity(g, point):
    # sum_i x_i dg/ds_i (x) = 5 g(x), exactly, for homogeneous degree-5 g
    if g.is_zero():
        return
    vals = [K5.element(x) for x in point]
    lhs = K5.zero
    for xi, comp in zip(vals, g.gradient()):
        lhs = lhs + xi * comp.evaluate(vals)
    assert lhs == g.evaluate(vals) * 5


fields = st.sampled_from((1, 2, 5, 10)).map(CyclotomicField)  # degree 1 at k = 1, 2


@given(fields.flatmap(lambda field: polynomials(field=field)))
def test_parse_print_roundtrip(g):
    assert parse_polynomial(g.to_text(), g.field) == g


@given(fields.flatmap(elements))
def test_scalar_text_is_constant_polynomial_text(c):
    # Cyclo.__str__ and Polynomial.to_text render terms with one generator
    assert str(c) == Polynomial(c.field, (), {(): c}).to_text()


@given(polynomials(max_terms=4))
def test_hessian_is_symmetric(g):
    h = g.hessian()
    for i in range(5):
        for j in range(i + 1, 5):
            assert h[i][j] == h[j][i]


@settings(max_examples=25)
@given(homogeneous_polynomials(), points_strategy,
       st.fractions(min_value=-2, max_value=2, max_denominator=5).filter(bool))
def test_gradient_matches_finite_differences(g, point, h):
    # exact: a polynomial's difference quotient (g(x + h e_i) - g(x)) / h is
    # its Taylor sum dg/ds_i + h/2 d^2g/ds_i^2 + ..., which ends at degree 5
    if g.is_zero():
        return
    for i in range(5):
        bumped = list(point)
        bumped[i] += h
        quotient = (g.evaluate(bumped) - g.evaluate(point)) * (1 / h)
        taylor, d, scale = K5.zero, g, Fraction(1)
        for k in range(1, 6):
            d = d.partial(i)
            scale /= k
            taylor = taylor + d.evaluate(point) * (scale * h ** (k - 1))
        assert quotient == taylor


def test_parse_scalar():
    v = parse_scalar("1 - 2*zeta^3", K5)
    assert v == K5.one - K5.element(2) * K5.zeta_power(3)
    assert parse_scalar("-3/4", K5) == K5.element(Fraction(-3, 4))


def test_polynomial_is_immutable():
    g = parse_polynomial(DWORK, K5)
    for change in (lambda: setattr(g, "terms", {}), lambda: setattr(g, "extra", 1),
                   lambda: delattr(g, "variables")):
        with pytest.raises(AttributeError):
            change()
    # the slots hold the value alone: nothing derived from it is kept on it
    assert Polynomial.__slots__ == ("field", "variables", "terms")
