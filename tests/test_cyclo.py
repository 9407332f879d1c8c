"""Cyclotomic coefficient arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gsvkit.cyclo import (Cyclo, CyclotomicField, _poly_divmod, cyclotomic_polynomial,
                          residue_prime)
from gsvkit.errors import GsvInputError


def frac(num, den=1):
    return Fraction(num, den)


# known cyclotomic polynomials, low degree first
KNOWN = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
}


@pytest.mark.parametrize("k,coeffs", sorted(KNOWN.items()))
def test_cyclotomic_polynomial_table(k, coeffs):
    assert list(cyclotomic_polynomial(k)) == [Fraction(c) for c in coeffs]


def test_product_over_divisors_recovers_x_k_minus_1():
    # independent identity: prod_{d | k} Phi_d = x^k - 1
    for k in (5, 6, 12):
        prod = [Fraction(1)]
        for d in range(1, k + 1):
            if k % d:
                continue
            phi = cyclotomic_polynomial(d)
            out = [Fraction(0)] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expected = [Fraction(0)] * (k + 1)
        expected[0], expected[k] = Fraction(-1), Fraction(1)
        assert prod == expected


def test_zeta_is_a_primitive_root():
    K = CyclotomicField(5)
    z = K.zeta()
    assert (z ** 5) == K.one
    for a in range(1, 5):
        assert not (z ** a == K.one)
    assert (K.one + z + z ** 2 + z ** 3 + z ** 4).is_zero()


def test_zeta_power_table_matches_powering():
    for k in range(1, 31):
        K = CyclotomicField(k)
        for a in range(-2 * k, 2 * k + 1):
            assert K.zeta_power(a).coeffs == (K.zeta() ** a).coeffs


def mod_phi(poly, k):
    """The coordinates in Q(zeta_k) of a Q[x] polynomial: its remainder by
    Phi_k, padded to phi(k)."""
    phi = cyclotomic_polynomial(k)
    _, rem = _poly_divmod(poly, phi)
    return tuple(rem) + (Fraction(0),) * (len(phi) - 1 - len(rem))


@pytest.mark.parametrize("k", range(1, 31))
def test_grid_and_products_match_division_by_phi(k):
    # a reference that does not go through the grid: zeta^a is the remainder
    # of x^a by Phi_k, and a product that of the schoolbook product
    K = CyclotomicField(k)
    for a in range(k):
        assert K.grid[1 + a].coeffs == mod_phi([Fraction(0)] * a + [Fraction(1)], k)
    rng = random.Random(k)
    for _ in range(8):
        x, y = ([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(K.degree)]
                for _ in range(2))
        schoolbook = [Fraction(0)] * (2 * K.degree - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                schoolbook[i + j] += xi * yj
        assert (K.element(x) * K.element(y)).coeffs == mod_phi(schoolbook, k)


@pytest.mark.parametrize("k", (1, 2, 5, 10))
def test_grid_is_zero_then_the_zeta_power_objects(k):
    K = CyclotomicField(k)
    assert K.grid is K.grid and len(K.grid) == k + 1
    assert K.grid[0] is K.zero and K.grid[1] is K.one
    assert all(K.grid[1 + a] is K.zeta_power(a) for a in range(k))


@pytest.mark.parametrize("order", (5.0, True, "5", None))
def test_field_order_must_be_an_int(order):
    with pytest.raises(GsvInputError, match=f"order must be an integer, got {order!r}"):
        CyclotomicField(order)


def test_misused_api_raises_value_error():
    k5, k10 = CyclotomicField(5), CyclotomicField(10)
    for call, message in [
            (lambda: cyclotomic_polynomial(0), "order must be a positive integer"),
            (lambda: k5.element(k10.one), "element belongs to a different cyclotomic field"),
            (lambda: k5.element([1, 0, 0, 0, 1]), r"coordinate vector longer than phi\(5\) = 4"),
            (lambda: k5.one + k10.zeta(), "mixed cyclotomic fields")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_small_orders_degenerate_to_rationals():
    assert CyclotomicField(1).zeta() == CyclotomicField(1).element(1)
    assert CyclotomicField(2).zeta() == CyclotomicField(2).element(-1)
    # degree 1: the general multiply and inverse are Fraction arithmetic on
    # coordinate 0
    values = [frac(0), frac(1), frac(-3, 2), frac(5, 7), frac(-11), frac(1, 13)]
    for k in (1, 2):
        K = CyclotomicField(k)
        for x in values:
            if x:
                assert K.element(x).inverse().coeffs == (1 / x,)
            for y in values:
                assert (K.element(x) * K.element(y)).coeffs == (x * y,)
            for e in range(6):
                assert (K.element(x) ** e).coeffs == (x ** e,)


def test_inverse_and_division():
    # inverse is the one division
    K = CyclotomicField(5)
    a = K.element([1, 2, 0, -3])
    assert a * a.inverse() == K.one
    assert a.inverse() * a == K.one and a.inverse().inverse() == a
    assert (K.element(6) * K.element(3).inverse()) == K.element(2)
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()


def test_power_negative_exponent():
    K = CyclotomicField(5)
    z = K.zeta()
    assert z ** -1 == z ** 4
    assert (K.element(2) * z) ** 5 == K.element(32)


def test_equality_coerces_rationals():
    K = CyclotomicField(5)
    assert K.element(2) == 2
    assert K.element(frac(1, 2)) == frac(1, 2)
    assert not (K.zeta() == 1)
    assert (K.zeta() ** 5) == 1
    assert hash(K.element(3)) == hash(CyclotomicField(5).element(3))


def test_rational_elements_hash_like_the_rationals_they_equal():
    K = CyclotomicField(5)
    assert len({K.element(2), 2}) == 1
    assert {frac(1, 2): "half"}.get(K.element(frac(1, 2))) == "half"
    assert {K.element(frac(1, 2)): "half"}.get(frac(1, 2)) == "half"
    assert hash(K.zero) == hash(0)
    assert len({K.zeta(), K.element(1)}) == 2


def test_cyclo_is_immutable():
    z = CyclotomicField(5).zeta()
    for change in (lambda: setattr(z, "coeffs", ()), lambda: setattr(z, "extra", 1),
                   lambda: delattr(z, "field")):
        with pytest.raises(AttributeError):
            change()
    assert hash(z) == hash((5, z.coeffs))


def test_str_is_stable():
    K = CyclotomicField(5)
    v = K.element([frac(-1, 2), 0, frac(3, 4)])
    assert str(v) == "-1/2 + 3/4*zeta^2"
    assert str(K.zero) == "0"
    assert str(-K.zeta()) == "-zeta"


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def elements(order=5):
    K = CyclotomicField(order)
    return st.lists(rationals, min_size=K.degree, max_size=K.degree).map(K.element)


@given(elements(), elements(), elements())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == a.field.zero


@given(elements(), st.integers(0, 9))
def test_power_is_repeated_multiplication(a, e):
    product = a.field.one
    for _ in range(e):
        product = product * a
    assert a ** e == product


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6, 8, 10, 12))
@given(data=st.data())
def test_inverse_roundtrip(k, data):
    # a + b*zeta: the first Bezout quotient has the full degree phi(k) - 1
    K = CyclotomicField(k)
    linear = st.tuples(rationals, rationals).map(lambda ab: ab[0] + ab[1] * K.zeta())
    a = data.draw(st.one_of(elements(k), linear))
    if not a.is_zero():
        assert a * a.inverse() == K.one


def integral_elements(order=5):
    K = CyclotomicField(order)
    return st.lists(st.integers(-10, 10), min_size=K.degree, max_size=K.degree).map(K.element)


@pytest.mark.parametrize("k", range(1, 31))
def test_residue_prime(k):
    p, omega = residue_prime(k)
    assert p > 2 ** 24 and (p - 1) % k == 0
    assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7, 11))  # Fermat test
    powers = [pow(omega, j, p) for j in range(1, k + 1)]
    assert powers[-1] == 1 and 1 not in powers[:-1]  # omega has order exactly k


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6, 8, 10, 12))
@given(data=st.data())
def test_residue_is_a_ring_map(k, data):
    a = data.draw(elements(k))
    b = data.draw(st.one_of(elements(k), integral_elements(k)))
    p, omega = residue_prime(k)
    ra, rb = a.residue(p, omega), b.residue(p, omega)
    assert (a * b).residue(p, omega) == ra * rb % p
    assert (a + b).residue(p, omega) == (ra + rb) % p
    assert a.field.zeta().residue(p, omega) == omega % p
    assert CyclotomicField(k).element(frac(1, p)).residue(p, omega) is None
