"""Locate the non-transversal rays of a homogeneous quintic and classify them.

A singular ray is a projective direction where the full gradient vanishes.
Candidates come from a named source; every reported ray is verified by
exact arithmetic, and rays are normalized (first nonzero coordinate = 1) so
the scaling action and root-of-unity multiples are quotiented out.

Node test: in the affine chart that fixes the ray's unit coordinate to 1,
the second partials of the dehomogenized polynomial form a 4x4 matrix; the
point is a node exactly when that matrix has full rank.  A ray records its
corank, 0 for a node, and the report writes its class from it.  A full-rank
quadratic cone is an isolated singular direction, so "every ray is a node"
doubles as the isolation certificate.  `TransversalityReport.require_nodal`,
which `analyze` and `stratify` share, raises unless every ray is a node and
the ray count is proven.

Both stages avoid Cyclo arithmetic where it is not needed.  Every exact
dG = 0 verdict comes from one test in one scan, built once per search.  On
the root-of-unity grid a monomial c*x^m equals c*zeta^(sum a_i m_i), so a
gradient component is zero iff its integer coefficients, binned by that
exponent mod k, vanish against a fixed integer table of zeta^t.  The scan
tables its open zero patterns (which coordinates are nonzero): those where
no component keeps a single monomial c*x^m, which is nonzero on the whole
pattern.  With none open, dG = 0 only at the origin: the transversality
certificate of every source.  The ansatz source does not visit the grid
point by point: it solves one open pattern at a time, where a component's
verdict depends only on its monomials' phase differences, so it is a
memoized k^2-bit mask over the last two free phases, ANDed over the
components for each phase prefix of the other free coordinates.  The same
table, in one line of `verify_transversal`, tests every external candidate
but the excised origin: a user's points and the snapped hits of the numeric
search in `homotopy`, the only floating-point module.  A ray it proves is
classified without a second test.  G = 0 needs no test of its own: G is
homogeneous of degree 5, so Euler's identity 5G = sum s_i dG/ds_i gives
G = 0 wherever dG = 0.  A chart Hessian with a nonzero determinant over F_p
(p = 1 mod k, zeta -> an element of order k) certifies a node.  The scan
reads its entries off the one image of G mod p, and their values from power
tables of the coordinates' residues.  A zero determinant mod p, or a
coefficient of G whose denominator is divisible by p, falls back to the
exact rank.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import groupby, product
from math import lcm, prod
from operator import attrgetter, getitem, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence, Tuple

from .cyclo import MAX_ORDER, Cyclo, CyclotomicField, residue_prime
from .errors import GsvInputError, IncompleteResultError, NonIsolatedError
from .poly import Polynomial, parse_scalar


class SingularRay(NamedTuple):
    """A normalized singular direction and the corank of its chart Hessian,
    0 for a node."""

    representative: Tuple[Cyclo, ...]
    corank: int


class TransversalityReport(NamedTuple):
    """Outcome of a transversality search.

    `rays` holds certified singular rays only.  `complete` records whether
    the verdict is certified, and `unresolved` counts the numeric hits that
    could not be.  `field_order` is the k of the field Q(zeta_k) of the
    rays.  The verdict `transversal` and the isolation certificate
    `isolated` are derived from these, never stored.
    """

    rays: Tuple[SingularRay, ...]
    source: str
    complete: bool
    unresolved: int = 0
    field_order: int = 5

    @property
    def transversal(self) -> bool | None:
        """False with a certified ray, True if complete without one, else None."""
        return False if self.rays else True if self.complete else None

    @property
    def non_nodes(self) -> int:
        """The number of rays that are not nodes."""
        return sum(1 for r in self.rays if r.corank)

    @property
    def isolated(self) -> bool:
        """Every ray is a node and no hit is unresolved."""
        return not self.unresolved and not self.non_nodes

    def require_nodal(self) -> None:
        """Raise NonIsolatedError if some ray is a certified non-node, else
        IncompleteResultError if the ray count is not proven."""
        if self.non_nodes:
            raise NonIsolatedError(
                f"{self.non_nodes} of {len(self.rays)} singular rays are not nodes")
        if not self.complete:
            what = ("transversality is inconclusive" if self.transversal is None
                    else f"the count of {len(self.rays)} singular rays is not proven")
            raise IncompleteResultError(f"incomplete search: {what}")

    def _coords_texts(self) -> list:
        """Each ray's coordinates as text, formatting each coordinate object
        once; grid rays share the field's 0 and zeta^a objects."""
        coords = {id(c): c for ray in self.rays for c in ray.representative}
        text = {i: str(c) for i, c in coords.items()}
        return [[text[id(c)] for c in ray.representative] for ray in self.rays]

    def to_json_dict(self):
        return {
            "transversal": self.transversal,
            "rays": [{"coords": coords, "class": "non_node" if ray.corank else "node",
                      "corank": ray.corank or None}
                     for ray, coords in zip(self.rays, self._coords_texts())],
            "isolated": self.isolated,
            "source": self.source,
            "complete": self.complete,
            "unresolved": self.unresolved,
            "field_order": self.field_order,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "TransversalityReport":
        """The report `to_json_dict` writes, read back over the field of its
        `field_order` (5 when absent); a field of the wrong type or range, a
        ray no search writes (the origin, not normalized or repeated), flags
        that disagree with the derived ones, or rays called complete by a
        user or float search raise GsvInputError.  A report that names no
        source reads, and is written back, as source "file"."""
        _require_fields(obj, ("transversal", "isolated", "complete"), "report")
        for name in ("transversal", "isolated", "complete"):
            value = obj[name]
            if not (isinstance(value, bool) or (value is None and name == "transversal")):
                allowed = "true, false or null" if name == "transversal" else "true or false"
                raise GsvInputError(f"report flag {name} must be {allowed}, "
                                    f"got {json.dumps(value)}")
        source = obj.get("source", "file")  # "file": a report that names no search
        if source not in (*SOURCES, "file"):
            raise GsvInputError(f"report field 'source' must be one of {', '.join(SOURCES)}, "
                                f"got {json.dumps(source)}")
        order = obj.get("field_order", 5)
        if not (type(order) is int and 1 <= order <= MAX_ORDER):
            raise GsvInputError(f"report field_order must be an integer from 1 to "
                                f"{MAX_ORDER}, got {json.dumps(order)}")
        field = CyclotomicField(order)
        unresolved = obj.get("unresolved", 0)
        if not (type(unresolved) is int and unresolved >= 0):
            raise GsvInputError(f"report field 'unresolved' must be a non-negative "
                                f"integer, got {json.dumps(unresolved)}")
        entries = obj.get("rays", [])
        if not isinstance(entries, list):
            raise GsvInputError(f"report field 'rays' must be a list, got {json.dumps(entries)}")
        scalars = {}  # a report repeats few distinct strings (5 of 625 for Dwork)
        rays, seen = [], {}
        for i, entry in enumerate(entries):
            _require_fields(entry, ("coords", "class"), f"report ray {i}")
            ray = read_point(entry["coords"], field, f"report ray {i}", scalars)
            if entry["class"] not in ("node", "non_node"):
                raise GsvInputError(f"report ray {i} field 'class' must be one of "
                                    f"node, non_node, got {json.dumps(entry['class'])}")
            corank, non_node = entry.get("corank"), entry["class"] == "non_node"
            if not (type(corank) is int and 1 <= corank <= 4 if non_node else corank is None):
                allowed = "an integer from 1 to 4" if non_node else "null"
                raise GsvInputError(f"report ray {i} field 'corank' must be {allowed} for "
                                    f"class {entry['class']}, got {json.dumps(corank)}")
            lead = next(filter(None, ray), None)  # the first nonzero coordinate
            if lead != field.one:
                what = "the origin" if lead is None else f"not normalized: it starts with {lead}"
                raise GsvInputError(f"report ray {i} is {what}")
            if seen.setdefault(ray, i) != i:  # Cyclo compares by its coefficients
                raise GsvInputError(f"report ray {i} repeats report ray {seen[ray]}")
            rays.append(SingularRay(ray, corank or 0))
        complete = obj["complete"]
        if complete and unresolved:
            raise GsvInputError(f"report flag complete: true disagrees with its "
                                f"{unresolved} unresolved hits")
        if complete and rays and source in _UNCOUNTED:
            raise GsvInputError(f"report flag complete: true disagrees with its {source} "
                                f"rays: only the ansatz search proves a ray count")
        report = cls(tuple(rays), source, complete, unresolved, order)
        if obj["transversal"] is not report.transversal:
            raise GsvInputError(
                f"report flag transversal: {json.dumps(obj['transversal'])} disagrees with "
                f"its {len(rays)} singular rays and complete: {json.dumps(complete)}")
        if obj["isolated"] is not report.isolated:
            raise GsvInputError(
                f"report flag isolated: {json.dumps(obj['isolated'])} disagrees with its rays "
                f"({report.non_nodes} of {len(rays)} are not nodes, {unresolved} hits "
                "unresolved)")
        return report

    def summary_text(self) -> str:
        if self.transversal is True:
            head = "transversal: G = dG = 0 only at the origin"
        elif self.transversal is False:
            head = (f"non-transversal: {len(self.rays)} singular rays "
                    f"({len(self.rays) - self.non_nodes} nodes)")
        else:
            head = "inconclusive: no rays found and no transversality certificate"
        lines = [head, f"source: {self.source}", f"complete: {self.complete}",
                 f"isolated: {self.isolated}"]
        if self.unresolved:
            lines.append(f"unresolved numeric hits: {self.unresolved}")
        for ray, coords in zip(self.rays, self._coords_texts()):
            tag = f"non_node (corank {ray.corank})" if ray.corank else "node"
            lines.append("  (" + ", ".join(coords) + f")  {tag}")
        return "\n".join(lines)


def read_point(coords, field: CyclotomicField, where: str, scalars: dict) -> Tuple[Cyclo, ...]:
    """The point of a JSON list of 5 coordinate strings, parsed in `field`.
    `scalars` caches the parsed strings, one cache per file.  A malformed
    list raises GsvInputError and a malformed string PolynomialParseError,
    each naming `where` (`--candidates row i`, `report ray i`)."""
    if not isinstance(coords, list):
        raise GsvInputError(f"{where} coordinates must be a list of strings, "
                            f"got {json.dumps(coords)}")
    if len(coords) != 5:
        raise GsvInputError(f"{where} has {len(coords)} coordinates, expected 5")
    for j, c in enumerate(coords):
        if not isinstance(c, str):
            raise GsvInputError(f"{where} coordinate {j} is {json.dumps(c)}, not a string")
        if c not in scalars:
            scalars[c] = parse_scalar(c, field, f"{where} coordinate {j}")
    return tuple(map(scalars.__getitem__, coords))


def _require_fields(obj, names, where: str) -> None:
    if not isinstance(obj, dict):
        raise GsvInputError(f"{where} must be a JSON object, got {type(obj).__name__}")
    for name in names:
        if name not in obj:
            raise GsvInputError(f"{where} has no field {name!r}")


# -- candidate sources ----------------------------------------------------------

# The candidate sources by name: the ansatz grid, a list of points, the numeric search
SOURCES = ("ansatz", "user", "float")
# The sources whose rays prove no count: only the ansatz search proves one
_UNCOUNTED = ("user", "float")


def normalize_ray(point: Sequence[Cyclo]) -> Tuple[Cyclo, ...]:
    """Scale so the first nonzero coordinate is exactly 1."""
    lead = next((c for c in point if not c.is_zero()), None)
    if lead is None:
        raise GsvInputError("the origin does not define a ray")
    if lead.coeffs == lead.field.one.coeffs:
        return tuple(point)  # already normalized, as every ansatz candidate is
    inv = lead.inverse()
    return tuple(c * inv for c in point)


def _by_coords(points: Iterable[Sequence[Cyclo]]) -> list:
    """(key, point) pairs in the order of the points' coefficient tuples.  A
    key holds each coordinate's rank among the distinct values, so equal
    points get equal keys, and only the distinct coordinate objects (k + 1
    on the grid) are sorted by their Fractions."""
    points = list(points)
    coeffs = attrgetter("coeffs")
    coords = sorted({id(c): c for p in points for c in p}.values(), key=coeffs)
    rank = {id(c): r for r, (_, same) in enumerate(groupby(coords, coeffs)) for c in same}
    return sorted(((tuple(rank[id(c)] for c in p), p) for p in points), key=itemgetter(0))


_ZERO, _OFF_GRID = -1, -2


class _GridScan:
    """The exact tests of one search: that the gradient of `g` vanishes at
    candidate points, in integers on the grid, and that a ray is a node.

    At a point whose coordinates are 0 or zeta^a, a monomial c*x^m that
    avoids the zero coordinates equals c*zeta^(sum a_i m_i).  Each gradient
    component, with denominators cleared, thus becomes an integer vector of
    length k binned by exponent mod k; it vanishes iff the vector's image in
    the power basis, through the integer table of zeta^t, is zero.  Any
    other point is evaluated exactly with Cyclo arithmetic.  The exact
    Hessian and the node test's tables mod p are built on first use.
    """

    def __init__(self, g: Polynomial):
        field = g.field
        self.g = g
        self.polys = g.gradient()
        self.n = len(g.variables)
        self.k = field.order
        # the field's grid: 0, then zeta^a at index 1 + a.  Phi_k is monic
        # with integer coefficients, so zeta^t is integral
        self._grid = grid = field.grid
        self._columns = [[int(u.coeffs[j]) for u in grid[1:]] for j in range(field.degree)]
        components = []
        for comp in self.polys:
            scale = lcm(*(c.denominator for coeff in comp.terms.values()
                          for c in coeff.coeffs))
            components.append(
                [(exp, tuple((j, int(c * scale)) for j, c in enumerate(coeff.coeffs) if c))
                 for exp, coeff in comp.terms.items()])
        # each nonempty pattern where no component keeps a single monomial
        # -> per component, its survivors' exponents and coefficients
        self.open_patterns = {}
        for nonzero in product((False, True), repeat=self.n):
            live = [tuple(zip(*kept)) for kept in (
                [t for t in terms if all(nz or not e for nz, e in zip(nonzero, t[0]))]
                for terms in components) if kept]
            if any(nonzero) and all(len(exps) > 1 for exps, _ in live):
                self.open_patterns[nonzero] = live
        # phase of the grid's own objects, by id; the field keeps those ids
        # unique.  Other objects are looked up by value and not kept, so the
        # memo stays bounded however long the scan lives.
        self._memo = {id(c): a for a, c in zip((_ZERO, *range(self.k)), self._grid)}
        self._phase_of = {c.coeffs: self._memo[id(c)] for c in self._grid}

    @cached_property
    def hessian(self):
        """The exact Hessian of g, read only by the exact-rank fallback."""
        return self.g.hessian()

    @cached_property
    def mod_p(self):
        """p, omega (see `residue_prime`), the powers x^0..x^top mod p of a
        residue x (None if it has none), those of each grid phase (0 at -1,
        omega^a at a), and the Hessian's upper triangle by (i, j), each entry
        a map from exponents to residues, or None if a denominator of G is
        divisible by p.  The triangle is read off G's image mod p: a term
        r*x^m gives r*m_i*(m_j - [i = j]) at x^(m - e_i - e_j)."""
        p, omega = residue_prime(self.k)
        top = max(map(max, self.g.terms))

        def powers(x):
            return None if x is None else tuple(pow(x, e, p) for e in range(top + 1))

        tables = {a: powers(0 if a == _ZERO else pow(omega, a, p)) for a in range(_ZERO, self.k)}
        image = [(m, c.residue(p, omega)) for m, c in self.g.terms.items()]
        if any(r is None for _, r in image):
            return p, omega, powers, tables, None
        upper = {(i, j): {} for i in range(self.n) for j in range(i, self.n)}
        for m, r in image:
            for i, j in upper:
                factor = m[i] * (m[j] - (i == j))
                if factor:
                    e = tuple(a - (v == i) - (v == j) for v, a in enumerate(m))
                    upper[i, j][e] = r * factor % p
        return p, omega, powers, tables, upper

    def _phases(self, point: Sequence[Cyclo]) -> list:
        phases = list(map(self._memo.get, map(id, point)))
        if None in phases:
            phases = [self._phase_of.get(c.coeffs, _OFF_GRID) if a is None else a
                      for c, a in zip(point, phases)]
        return phases

    def _is_zero(self, coeffs, exps) -> bool:
        """Whether sum_t coeffs[t] * zeta^exps[t] is 0: the integers binned by
        exponent mod k, times the table of zeta^t."""
        k = self.k
        bins = [0] * k
        for e, cs in zip(exps, coeffs):
            for j, c in cs:
                bins[(e + j) % k] += c
        return not any(sum(map(mul, bins, col)) for col in self._columns)

    def vanishes(self, point: Sequence[Cyclo]) -> bool:
        """Whether dG = 0 at `point`, never the origin, whose pattern is not open."""
        phases = self._phases(point)
        if _OFF_GRID in phases or len(phases) != self.n:
            # evaluate also rejects a wrong length
            return all(d.evaluate(point).is_zero() for d in self.polys)
        live = self.open_patterns.get(tuple(map(_ZERO.__ne__, phases)))
        # zero coordinates carry phase -1 but exponent 0 in every survivor
        return live is not None and all(
            self._is_zero(coeffs, [sum(map(mul, phases, e)) for e in exps])
            for exps, coeffs in live)

    def grid_zeros(self) -> list[Tuple[Cyclo, ...]]:
        """The normalized ansatz grid points where every polynomial vanishes,
        ordered by the position of the leading 1, then by the grid indices of
        the later coordinates, and solved one open zero pattern at a time.

        On an open pattern a polynomial's verdict depends only on the
        phase differences L_t - L_1 mod k of its monomials, which are
        base + y*ystep + x*xstep in the last two free phases: per base, a
        k^2-bit mask (bit y*k + x) whose row y is the memoized k-bit mask of
        base + y*ystep.  Masks are ANDed over the polynomials for each phase
        prefix of the other free coordinates, a row built only while the AND
        keeps it alive and a mask memoized only when whole.
        """
        k, n = self.k, self.n
        hits = []
        for nonzero, live in self.open_patterns.items():
            lead = nonzero.index(True)
            free = [i for i in range(lead + 1, n) if nonzero[i]]
            # a missing y or x is the lead, whose phase is 0
            ycoord, xcoord = ([lead, lead] + free)[-2:]
            rows, span = k if len(free) > 1 else 1, k if free else 1
            del free[-2:]
            row_bits = (1 << span) - 1
            full = sum(row_bits << y * k for y in range(rows))
            comps = [(coeffs, [[e[i] - exps[0][i] for i in free] for e in exps],
                      [e[ycoord] - exps[0][ycoord] for e in exps],
                      [e[xcoord] - exps[0][xcoord] for e in exps], {}, {})
                     for exps, coeffs in live]
            for prefix in product(range(k), repeat=len(free)):
                mask = full
                for coeffs, diffs, ysteps, xsteps, masks, row_masks in comps:
                    base = tuple(sum(map(mul, prefix, d)) % k for d in diffs)
                    got = masks.get(base)
                    if got is None:
                        alive = [y for y in range(rows) if mask >> y * k & row_bits]
                        got = 0
                        for y in alive:
                            row = tuple((b + y * s) % k for b, s in zip(base, ysteps))
                            bits = row_masks.get(row)
                            if bits is None:
                                bits = row_masks[row] = sum(
                                    1 << x for x in range(span) if self._is_zero(
                                        coeffs, [b + x * s for b, s in zip(row, xsteps)]))
                            got |= bits << y * k
                        if len(alive) == rows:
                            masks[base] = got
                    mask &= got
                    if not mask:
                        break
                while mask:
                    bit = mask & -mask
                    mask ^= bit
                    y, x = divmod(bit.bit_length() - 1, k)
                    idx = [0] * n  # index into self._grid: 0, then 1 + phase
                    idx[lead] = 1
                    for i, a in zip(free, prefix):
                        idx[i] = a + 1
                    idx[ycoord], idx[xcoord] = y + 1, x + 1
                    hits.append((lead, tuple(idx)))
        hits.sort()
        return [tuple(map(self._grid.__getitem__, idx)) for _, idx in hits]


def _require_quintic(g: Polynomial):
    if len(g.variables) != 5:
        raise GsvInputError("expected a polynomial in the five variables s0..s4")
    if g.is_zero() or not g.is_homogeneous(5):
        raise GsvInputError("expected a nonzero homogeneous polynomial of degree 5")


def _det4(m) -> int:
    """Determinant of a 4x4 matrix by Laplace expansion along its top two rows."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def _rank(rows: Sequence[Sequence]) -> int:
    """Exact rank by elimination without division: each row below the pivot
    row t becomes t[c]*row - row[c]*t, so entries need only *, - and a
    nonzero test."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is not None:
            t = rows[i]
            rows[i] = rows[rank]
            rows[rank + 1:] = [[t[c] * x - r[c] * y for x, y in zip(r, t)] if r[c] else r
                               for r in rows[rank + 1:]]
            rank += 1
    return rank


def _classify(scan: _GridScan, pt: Tuple[Cyclo, ...]) -> int:
    """The corank of the chart Hessian at the normalized singular ray `pt`:
    0, a node, iff it has rank 4.

    The symmetric chart Hessian's 10 entries are read mod p from power
    tables of the coordinates (see `_GridScan.mod_p`).  A nonzero determinant
    mod p certifies rank 4, as reduction mod p cannot raise a rank; a zero
    one, or a residue that does not exist, leaves it to the exact rank.
    """
    chart = next(i for i, c in enumerate(pt) if not c.is_zero())
    others = [i for i in range(5) if i != chart]
    p, omega, powers, tables, upper = scan.mod_p
    tabs = [tables.get(a) or powers(c.residue(p, omega)) for c, a in zip(pt, scan._phases(pt))]
    if upper is not None and None not in tabs:
        entries = [upper[i, j].items() for n, i in enumerate(others) for j in others[n:]]
        u = [sum(r * prod(map(getitem, tabs, e)) for e, r in terms) % p for terms in entries]
        if _det4([u[0:4], [u[1], *u[4:7]], [u[2], u[5], *u[7:9]], [u[3], u[6], u[8], u[9]]]) % p:
            return 0
    hess = scan.hessian
    return 4 - _rank([[hess[i][j].evaluate(pt) for j in others] for i in others])


def _finish_rays(scan: _GridScan, points: Iterable[Sequence[Cyclo]]) -> Tuple[SingularRay, ...]:
    """Normalize, sort, dedupe and classify points the scan proved singular."""
    return tuple(SingularRay(ray, _classify(scan, ray))
                 for ray in dict(_by_coords(map(normalize_ray, points))).values())


def verify_transversal(g: Polynomial, source: str = "ansatz",
                       points: Iterable[Sequence] = ()) -> TransversalityReport:
    """Search the candidates of the named source for singular rays and
    certify transversality when possible.

    "ansatz" solves the whole root-of-unity grid, "user" tests the nonzero
    `points` (rows of five field elements), and "float" tests the grid
    points that `homotopy.float_candidates` snaps its hits to; a hit that
    does not certify counts as `unresolved`; the origin is excised first, so
    the scan is asked only about nonzero points.  Exit states: certified rays
    found (non-transversal), no rays plus a certificate, the scan's lack of an
    open zero pattern (transversal), or no certified ray and no certificate
    (inconclusive; never silently reported as transversal, nor as
    non-transversal on uncertified numeric hits alone).
    """
    if source not in SOURCES:
        raise GsvInputError(f"unknown candidate source {source!r}")
    points = list(points)
    if points and source != "user":
        raise GsvInputError(f"candidate points apply only to source 'user', not {source!r}")
    _require_quintic(g)
    scan = _GridScan(g)
    if source == "ansatz":
        found, unresolved = scan.grid_zeros(), 0
    else:
        if source == "user":
            pts, hits = (tuple(map(g.field.element, p)) for p in points), None
        else:
            from .homotopy import float_candidates
            pts, hits = float_candidates(g)
        found = [p for p in pts if any(p) and scan.vanishes(p)]  # the origin is excised
        unresolved = 0 if hits is None else hits - len(found)
    rays = _finish_rays(scan, found)
    # the ansatz grid counts as searched whole
    complete = source not in _UNCOUNTED if rays else not scan.open_patterns
    return TransversalityReport(rays, source, complete, 0 if complete else unresolved,
                                g.field.order)

