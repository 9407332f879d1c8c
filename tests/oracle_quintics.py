"""Quintics in s0..s4 with known singular loci, built from integer parameters.

Each row gives G as text over Q(zeta_5), its known singular points (each a
tuple of coordinate texts) with their Tjurina numbers tau, whether those
points are the whole singular locus, and whether, besides, they all lie on
the root-of-unity grid of order 5.  `dim16` is dim_p (S/J)_16 and `defect`
the defect delta = n - dim (S/J^sat)_5, both read from a truncated Groebner
basis of the Jacobian ideal J mod p (see ROADMAP.md); None where no value
was measured or the defect is not defined, as at a non-node.  A smooth row's
defect is 0: its J saturates to the whole ring.

The rows:
  - Dwork, sum s_i^5 - 5 psi prod s_i: at psi = zeta^c, c = 0..4, its 125
    nodes are (1, zeta^a1, .., zeta^a4) with a1 + .. + a4 = -c mod 5
    (s_i^5 = psi prod s_j for every i).  s0 -> zeta^-c s0 maps row c to
    row 0, where dim16 and defect were measured.  psi = 0 (Fermat) and
    psi = 1/2 are smooth;
  - plane pencils s0*A(s2, s4) - s1*B(s3, s4) + s0^5 + s1^5, A = prod
    (s2 - a_i s4) and B = prod (s3 - b_j s4) with distinct a_i and distinct
    b_j: 16 nodes at (0:0:a_i:b_j:1).  Off s0 = s1 = 0 a singular point needs
    B(y)^5 = -A(x)^5 at critical points x of A(., 1) and y of B(., 1); the
    critical values below (9/16, -1, -1 for A; 9/16, -1, -1 and 4, -9/4, -9/4
    for B) never meet that, so the 16 nodes are all.  `offgrid16` is
    data/offgrid16.poly;
  - A_k germs, k = 1..4, at (0:0:0:0:1) on a Fermat-like quintic, their
    other points unknown (for A2, dim16 = 14 bounds their total tau by 12);
  - the cone over the Fermat quartic surface, one point with tau = 4^4;
  - a quintic whose singular locus is positive-dimensional (`isolated` is
    False; dim16 = 340), its points not listed;
  - a dense quintic: the 121 monomials of s4-degree at most 3, so the apex
    is singular, with a nondegenerate quadratic part there (tau = 1), its
    other points unknown;
  - a smooth quintic whose gradient is not pure-power;
  - two smooth quintics whose gradient is not pure-power but whose every
    nonempty zero pattern keeps a single monomial in some component: the
    Berglund-Huebsch chain s0^4*s1 + s1^5 + s2^4*s3 + s3^5 + s4^5, and
    Fermat with s4^5 traded for s0*s4^4.  A smooth quintic's Jacobian ring
    has Hilbert series ((1 - t^4)/(1 - t))^5, so dim16 = 0 and defect = 0.
"""

from collections import Counter
from itertools import combinations_with_replacement, product
from typing import NamedTuple


class Row(NamedTuple):
    name: str
    text: str
    points: dict  # coordinate texts -> tau
    complete: bool  # the points are the whole singular locus
    grid: bool  # complete, and every point lies on the order-5 grid
    dim16: int | None
    defect: int | None
    isolated: bool = True  # False: the singular locus is positive-dimensional


FERMAT = "s0^5+s1^5+s2^5+s3^5+s4^5"
APEX = ("0", "0", "0", "0", "1")


def _zeta(a: int) -> str:
    return "1" if a % 5 == 0 else f"zeta^{a % 5}"


def _dwork(c: int) -> Row:
    psi = "" if c == 0 else f"{_zeta(c)}*"
    points = {("1", *map(_zeta, a)): 1 for a in product(range(5), repeat=4)
              if (sum(a) + c) % 5 == 0}
    return Row(f"dwork_zeta{c}", f"{FERMAT}-5*{psi}s0*s1*s2*s3*s4", points, True, True, 125, 24)


def _pencil(name: str, a, b, dim16=None, defect=None) -> Row:
    terms = []
    for sign, lead, x, roots in ((1, "s0", "s2", a), (-1, "s1", "s3", b)):
        coeffs = [1]  # of x^4, x^3 s4, .., s4^4 in prod (x - r s4)
        for r in roots:
            coeffs = [c - r * d for c, d in zip(coeffs + [0], [0] + coeffs)]
        for j, c in enumerate(coeffs):
            if c:
                powers = [f"{v}^{e}" if e > 1 else v for v, e in ((x, 4 - j), ("s4", j)) if e]
                terms.append(f"{sign * c:+}*{'*'.join([lead, *powers])}")
    points = {("0", "0", str(i), str(j), "1"): 1 for i in a for j in b}
    return Row(name, "s0^5+s1^5" + "".join(terms), points, True, False, dim16, defect)


def _germ(name: str, extra: str, tau: int, dim16=None) -> Row:
    """An A_k germ at the apex: in the chart s4 = 1, s0^2 + s1^2 + s2^2 plus
    the lowest power of s3, which `extra` sets (s3^(k+1), or s3^5 alone)."""
    text = "s0^5+s1^5+s2^5+s3^5+s4^3*s0^2+s4^3*s1^2+s4^3*s2^2" + extra
    return Row(name, text, {APEX: tau}, False, False, dim16, None)


def _dense() -> Row:
    """The quintic monomials of s4-degree at most 3, the idx-th of all 126 in
    `combinations_with_replacement` order with coefficient (37 idx) mod 11 - 5,
    or 1 where that is 0."""
    terms = []
    for idx, factors in enumerate(combinations_with_replacement(range(5), 5)):
        if factors.count(4) <= 3:
            coeff = (37 * idx) % 11 - 5 or 1
            powers = [f"s{v}^{e}" if e > 1 else f"s{v}"
                      for v, e in sorted(Counter(factors).items())]
            terms.append(f"{coeff:+}*{'*'.join(powers)}")
    return Row("dense", "".join(terms), {APEX: 1}, False, False, None, None)


ROWS = (
    *map(_dwork, range(5)),
    Row("fermat", FERMAT, {}, True, True, 0, 0),
    Row("dwork_half", "2*s0^5+2*s1^5+2*s2^5+2*s3^5+2*s4^5-5*s0*s1*s2*s3*s4", {}, True, True,
        0, 0),
    _pencil("offgrid16", (1, 2, 3, 4), (1, 2, 3, 4), 16, 1),
    _pencil("pencil_0123_0134", (0, 1, 2, 3), (0, 1, 3, 4)),
    _germ("a1", "+s4^3*s3^2", 1),
    _germ("a2", "+s4^2*s3^3", 2, 14),
    _germ("a3", "+s4*s3^4", 3),
    _germ("a4", "", 4),
    Row("cone", "s0^5+s1^5+s2^5+s3^5", {APEX: 256}, True, True, 256, None),
    Row("non_isolated", "s0*s2^4+s1*s3^4+s0^2*s4^3+s1^2*s2^3", {}, False, False, 340, None,
        False),
    _dense(),
    Row("smooth_non_pure", f"{FERMAT}+2*s0^3*s1*s2-7*s1^2*s3^2*s4", {}, True, True, 0, 0),
    Row("chain", "s0^4*s1+s1^5+s2^4*s3+s3^5+s4^5", {}, True, True, 0, 0),
    Row("fermat_s0_s4", "s0^5+s1^5+s2^5+s3^5+s0*s4^4", {}, True, True, 0, 0),
)
