"""Exact arithmetic over Q extended by a primitive root of unity.

An element of Q(zeta_k) is stored by its coordinates in the power basis
1, zeta, ..., zeta^(phi(k)-1), i.e. as a polynomial in zeta reduced modulo
the k-th cyclotomic polynomial.  k=1 reduces to plain rational arithmetic.
`_poly_divmod` is the one division in Q[x]: it builds the cyclotomic
polynomials and the remainders of `inverse`, whose Bezout factors are field
elements.  The field's `grid`, 0 then zeta^0 .. zeta^(k-1), is the one table
of zeta powers: each power is the last one shifted, its top coefficient
folded back through Phi_k.  It serves `zeta`, `zeta_power` and the
reduction of products, where zeta^i is `grid[1 + i % k]`.
`power_basis_terms` renders the terms of a coordinate vector, for
`str()` and `Polynomial.to_text` alike.
Everything is exact: the complex embedding of the numeric search lives in
`homotopy`, outside the exact core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import GsvInputError

Scalar = Union[int, Fraction, "Cyclo"]

# The largest root-of-unity order a field is built for.  On 2 vCPU with
# Python 3.11, building Q(zeta_k) took about 1 s at k = 1000, and a Dwork
# `analyze` 2 to 3.5 s at k = 200.
MAX_ORDER = 200


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[Fraction, ...]:
    """Coefficients of the k-th cyclotomic polynomial, low degree first."""
    if k < 1:
        raise ValueError("order must be a positive integer")
    poly: list[Fraction] = [Fraction(0)] * (k + 1)
    poly[0], poly[k] = Fraction(-1), Fraction(1)
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("polynomial division left a remainder")
    return tuple(poly)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


@lru_cache(maxsize=None)
def residue_prime(k: int) -> tuple[int, int]:
    """A prime p = 1 (mod k) above 2^24 and an element omega of order k in F_p.

    omega is a root of the k-th cyclotomic polynomial mod p, so zeta -> omega
    is a ring map from the elements of Q(zeta_k) whose denominators are prime
    to p onto F_p.  A larger p would make accidental zeros mod p rarer, but
    every use falls back to exact arithmetic on them, and trial division
    stays cheap at this size.
    """
    p = (2 ** 24 // k + 1) * k + 1
    while not _is_prime(p):
        p += k
    prime_factors = [q for q in range(2, k + 1) if k % q == 0 and _is_prime(q)]
    for g in range(2, p):
        omega = pow(g, (p - 1) // k, p)
        if all(pow(omega, k // q, p) != 1 for q in prime_factors):
            return p, omega
    raise ArithmeticError(f"no element of order {k} mod {p}")


class CyclotomicField:
    """Q(zeta_k), with elements reduced to coordinate vectors of length phi(k)."""

    def __init__(self, order: int = 5):
        if type(order) is not int:  # bools included
            raise GsvInputError(f"root-of-unity order must be an integer, got {order!r}")
        if not 1 <= order <= MAX_ORDER:
            raise GsvInputError(f"root-of-unity order must be from 1 to {MAX_ORDER}, "
                                f"got {order}")
        self.order = order
        minpoly = cyclotomic_polynomial(order)
        self.degree = len(minpoly) - 1
        self.minpoly = minpoly
        # zeta^a from zeta^(a-1): shift up one place, then fold the top
        # coefficient back through zeta^degree = -(minpoly without its top).
        # Phi_k is monic with integer coefficients, so every power is integral
        head = tuple(-c for c in minpoly[:-1])
        cur = (Fraction(1),) + (Fraction(0),) * (self.degree - 1)
        powers = []
        for _ in range(order):
            powers.append(Cyclo(self, cur))
            top, shifted = cur[-1], (Fraction(0), *cur[:-1])
            cur = tuple(s + top * h for s, h in zip(shifted, head)) if top else shifted
        # the root-of-unity grid, 0 then zeta^a at index 1 + a: the objects
        # every grid point is built from, so a phase can be found by identity
        self.grid = (Cyclo(self, (Fraction(0),) * self.degree), *powers)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    def __repr__(self):
        return f"CyclotomicField(order={self.order})"

    @property
    def zero(self) -> "Cyclo":
        return self.grid[0]

    @property
    def one(self) -> "Cyclo":
        return self.grid[1]

    def zeta(self) -> "Cyclo":
        """A fixed primitive k-th root of unity."""
        return self.zeta_power(1)

    def zeta_power(self, a: int) -> "Cyclo":
        return self.grid[1 + a % self.order]

    def element(self, value) -> "Cyclo":
        """Coerce an int, Fraction, or coordinate sequence into the field."""
        if isinstance(value, Cyclo):
            if value.field != self:
                raise ValueError("element belongs to a different cyclotomic field")
            return value
        if isinstance(value, (int, Fraction)):
            vec = [Fraction(0)] * self.degree
            vec[0] = Fraction(value)
            return Cyclo(self, tuple(vec))
        vec = [Fraction(c) for c in value]
        if len(vec) > self.degree:
            raise ValueError(f"coordinate vector longer than phi({self.order}) = {self.degree}")
        vec += [Fraction(0)] * (self.degree - len(vec))
        return Cyclo(self, tuple(vec))


def signed_sum(pieces: Iterable[tuple[str, str]]) -> str:
    """(sign, body) pairs written as `a - b + c`, or "0" when there are none."""
    text = "".join(f" {sign} {body}" for sign, body in pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def power_basis_terms(coeffs: Iterable[Fraction], factors: Sequence[str] = ()):
    """The (sign, body) pairs of the terms c_i*zeta^i of a coordinate vector,
    each body followed by `factors`; |c_i| is left out when it is 1 and a
    factor follows.  `signed_sum` joins them."""
    for i, c in enumerate(coeffs):
        if c:
            parts = ["zeta" if i == 1 else f"zeta^{i}"] if i else []
            parts += factors
            if abs(c) != 1 or not parts:
                parts.insert(0, str(abs(c)))
            yield "-" if c < 0 else "+", "*".join(parts)


def _poly_trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for j in range(len(b)):
            a[d + j] -= c * b[j]
        _poly_trim(a)
    return q, a


class Cyclo:
    """One element of a CyclotomicField; immutable and hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Cyclo is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _coerce(self, other) -> "Cyclo":
        if isinstance(other, Cyclo):
            if other.field != self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a rational element equals its int or Fraction, so it hashes as one
        c = self.coeffs
        return hash((self.field.order, c)) if any(c[1:]) else hash(c[0])

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclo(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclo(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Cyclo(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        d, k, grid = field.degree, field.order, field.grid
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:d]
        for i in range(d, 2 * d - 1):
            c = prod[i]
            if c:
                row = grid[1 + i % k].coeffs  # zeta^i
                for j in range(d):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclo(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse by the extended Euclidean algorithm, the one
        division: the remainders are Q[x] lists, the Bezout factors field
        elements (every quotient has degree below phi(k))."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        field = self.field
        # invariants: r0 = s0*self and r1 = s1*self in the field
        r0, r1 = list(field.minpoly), _poly_trim(list(self.coeffs))
        s0, s1 = field.zero, field.one
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - field.element(q) * s1
        if not r1:
            raise ArithmeticError("element shares a factor with the minimal polynomial")
        return s1 * (1 / r1[0])

    def __pow__(self, exponent: int) -> "Cyclo":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self if exponent else self.field.one
        for bit in bin(exponent)[3:]:  # square and multiply, below the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def residue(self, p: int, omega: int) -> int | None:
        """Image in F_p under zeta -> omega (see `residue_prime`); None when
        a coordinate's denominator is divisible by p."""
        total = 0
        for c in reversed(self.coeffs):
            den = c.denominator
            if den % p == 0:
                return None
            term = c.numerator if den == 1 else c.numerator * pow(den, -1, p)
            total = (total * omega + term) % p
        return total

    def __str__(self) -> str:
        return signed_sum(power_basis_terms(self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclo({self.field!r}, {self})"
