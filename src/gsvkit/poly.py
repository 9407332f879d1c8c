"""Sparse multivariate polynomials with exact cyclotomic coefficients.

A polynomial is a map from exponent vectors to nonzero Cyclo coefficients
over a fixed ordered variable tuple.  The pipeline parses, differentiates
and evaluates polynomials exactly and needs nothing more; values are
immutable after construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .cyclo import Cyclo, CyclotomicField, Scalar, power_basis_terms, signed_sum
from .errors import GsvInputError, PolynomialParseError

DEFAULT_VARIABLES: Tuple[str, ...] = ("s0", "s1", "s2", "s3", "s4")

Exponent = Tuple[int, ...]


def _graded_lex_key(exp: Exponent):
    return (sum(exp), exp)


class Polynomial:
    __slots__ = ("field", "variables", "terms")

    def __init__(self, field: CyclotomicField, variables: Tuple[str, ...],
                 terms: Mapping[Exponent, Scalar] | None = None):
        clean: Dict[Exponent, Cyclo] = {}
        nvars = len(variables)
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars:
                raise GsvInputError(
                    f"exponent vector {exp} does not match {nvars} variables")
            if any(e < 0 for e in exp):
                raise GsvInputError(f"negative exponent in {exp}")
            coeff = field.element(coeff)
            if not coeff.is_zero():
                clean[exp] = coeff
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Polynomial is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    # -- queries ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.variables == other.variables
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, d: int) -> bool:
        """True iff every term has total degree d; the zero polynomial is
        homogeneous of every degree."""
        return all(sum(e) == d for e in self.terms)

    # -- calculus ------------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """d/dx_index; distinct exponents stay distinct, so each term is
        written once."""
        return Polynomial(self.field, self.variables, {
            (*exp[:index], exp[index] - 1, *exp[index + 1:]): coeff * exp[index]
            for exp, coeff in self.terms.items() if exp[index]})

    def gradient(self) -> Tuple["Polynomial", ...]:
        """First partials."""
        return tuple(self.partial(i) for i in range(len(self.variables)))

    def hessian(self) -> Tuple[Tuple["Polynomial", ...], ...]:
        """Second partials."""
        return tuple(tuple(g.partial(j) for j in range(len(self.variables)))
                     for g in self.gradient())

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Cyclo:
        """Exact value at a point with coordinates in the coefficient domain."""
        if len(point) != len(self.variables):
            raise GsvInputError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}")
        vals = [self.field.element(x) for x in point]
        total = self.field.zero
        for exp, coeff in self.terms.items():
            if any(e and v.is_zero() for v, e in zip(vals, exp)):
                continue
            for v, e in zip(vals, exp):
                if e:
                    coeff = coeff * v ** e
            total = total + coeff
        return total

    # -- printing ---------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: graded-lex term order, zeta powers split out."""
        pieces = []
        for exp in sorted(self.terms, key=_graded_lex_key, reverse=True):
            powers = [name if e == 1 else f"{name}^{e}"
                      for name, e in zip(self.variables, exp) if e]
            pieces += power_basis_terms(self.terms[exp].coeffs, powers)
        return signed_sum(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^*/+-])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            try:
                tokens.append(("num", int(m.group()), pos))
            except ValueError:  # beyond the interpreter's int string conversion limit
                raise PolynomialParseError(
                    f"integer literal of {len(m.group())} digits is too long", pos) from None
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        else:
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, field: CyclotomicField, variables: Tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.end = len(text)  # the position of the end of the input
        self.i = 0
        self.field = field
        self.variables = variables

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.tokens:
            raise PolynomialParseError("empty polynomial", self.end)
        terms: Dict[Exponent, Cyclo] = {}
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        while True:
            exp, coeff = self.parse_term()
            if sign < 0:
                coeff = -coeff
            prev = terms.get(exp)
            terms[exp] = coeff if prev is None else prev + coeff
            kind, value, pos = self.peek()
            if kind is None:
                break
            if kind == "op" and value in "+-":
                self.next()
                sign = -1 if value == "-" else 1
                continue
            raise PolynomialParseError(f"expected '+' or '-', found {value!r}", pos)
        return Polynomial(self.field, self.variables, terms)

    def parse_term(self):
        exp = [0] * len(self.variables)
        coeff = self.field.one
        while True:
            coeff = self.parse_factor(exp, coeff)
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                continue
            return tuple(exp), coeff

    def parse_factor(self, exp, coeff):
        kind, value, pos = self.next()
        if kind == "num":
            rational = Fraction(value)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, p3 = self.next()
                if k3 != "num":
                    raise PolynomialParseError("expected an integer denominator", p3)
                if v3 == 0:
                    raise PolynomialParseError("zero denominator", p3)
                rational /= v3
            return coeff * rational
        if kind == "name":
            if value == "zeta":
                if self.field.order == 1:
                    raise PolynomialParseError(
                        "zeta used without a declared root-of-unity extension", pos)
                return coeff * self.field.zeta_power(self.parse_exponent())
            if value not in self.variables:
                raise PolynomialParseError(f"unknown variable {value}", pos)
            exp[self.variables.index(value)] += self.parse_exponent()
            return coeff
        raise PolynomialParseError("expected a coefficient or a variable", pos)

    def parse_exponent(self) -> int:
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            k2, v2, p2 = self.next()
            if k2 != "num":
                raise PolynomialParseError("expected a non-negative integer exponent", p2)
            return v2
        return 1


def parse_polynomial(text: str, field: CyclotomicField | None = None,
                     variables: Sequence[str] = DEFAULT_VARIABLES) -> Polynomial:
    """Parse the artifact grammar: rational coefficients, '*'-joined powers,
    'zeta' for the declared root of unity, terms joined by '+'/'-'."""
    field = field or CyclotomicField(5)
    return _Parser(text, field, tuple(variables)).parse()


def parse_scalar(text: str, field: CyclotomicField | None = None, where: str = "") -> Cyclo:
    """Parse a bare coefficient-domain value such as '1/2', '-zeta^3', '1 + zeta'.
    A parse error's message starts with `where`, the place the text came from."""
    try:
        poly = parse_polynomial(text, field, variables=())
    except PolynomialParseError as exc:
        exc.args = (f"{where}: {exc}",) if where else exc.args
        raise
    return poly.terms.get((), (field or CyclotomicField(5)).zero)
