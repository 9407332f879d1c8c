"""Locate the non-transversal rays of a homogeneous quintic and classify them.

A singular ray is a projective direction where the full gradient vanishes.
Candidates come from a pluggable source; every reported ray is verified by
exact arithmetic, and rays are normalized (first nonzero coordinate = 1) so
the scaling action and root-of-unity multiples are quotiented out.

Node test: in the affine chart that fixes the ray's unit coordinate to 1,
the second partials of the dehomogenized polynomial form a 4x4 matrix; the
point is a node exactly when that matrix has full rank.  A full-rank
quadratic cone is an isolated singular direction, so "every ray is a node"
doubles as the isolation certificate.

Both stages avoid Cyclo arithmetic where it is not needed.  Every exact
dG = 0 verdict goes through one scan, built once per polynomial.  On the
root-of-unity grid a monomial c*x^m equals c*zeta^(sum a_i m_i), so the scan
bins each gradient component's integer coefficients by that exponent mod k
and tests the binned vector against a fixed integer table of zeta^t; the
same scan over G alone checks G = 0 on every reported ray.  A chart Hessian
of rank 4 over F_p (p = 1 mod k, zeta -> an element of order k) certifies a
node; a lower rank mod p, or a denominator divisible by p, falls back to the
exact rank.

The numeric source is the only floating-point path.  It compiles the
gradient and Hessian once into complex exponent and coefficient arrays and
runs Gauss-Newton on all starts of a chart as one batch; its hits are
certified by the same scan as any other candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Tuple

from .cyclo import Cyclo, CyclotomicField, residue_prime
from .errors import GsvError, GsvInputError
from .linalg import matrix_rank, rank_mod_p
from .poly import Polynomial


class Kind(str, Enum):
    NODE = "node"
    NON_NODE = "non_node"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class SingularityClass:
    kind: Kind
    corank: int | None = None

    def to_json_dict(self):
        return {"class": self.kind.value, "corank": self.corank}


NODE = SingularityClass(Kind.NODE)
UNCLASSIFIED = SingularityClass(Kind.UNCLASSIFIED)


@dataclass(frozen=True)
class SingularRay:
    """A normalized singular direction with its local classification."""

    representative: Tuple[Cyclo, ...]
    classification: SingularityClass

    def coords_text(self) -> Tuple[str, ...]:
        return tuple(str(c) for c in self.representative)

    def to_json_dict(self):
        out = {"coords": list(self.coords_text())}
        out.update(self.classification.to_json_dict())
        return out


@dataclass(frozen=True)
class TransversalityReport:
    """Outcome of a transversality search.

    `transversal` is None when the search ended without either a ray or a
    certificate; `complete` records whether the verdict is certified.
    `isolated` is the node-based isolation certificate over all found rays.
    """

    transversal: bool | None
    rays: Tuple[SingularRay, ...]
    isolated: bool
    source: str
    complete: bool

    @property
    def node_count(self) -> int:
        return len(self.rays)

    def to_json_dict(self):
        return {
            "transversal": self.transversal,
            "rays": [r.to_json_dict() for r in self.rays],
            "isolated": self.isolated,
            "source": self.source,
            "complete": self.complete,
        }

    def summary_text(self) -> str:
        if self.transversal is True:
            head = "transversal: G = dG = 0 only at the origin"
        elif self.transversal is False:
            kinds = [r.classification.kind for r in self.rays]
            nodes = sum(1 for k in kinds if k is Kind.NODE)
            head = f"non-transversal: {len(self.rays)} singular rays ({nodes} nodes)"
        else:
            head = "inconclusive: no rays found and no transversality certificate"
        lines = [head, f"source: {self.source}", f"complete: {self.complete}",
                 f"isolated: {self.isolated}"]
        for ray in self.rays:
            cls = ray.classification
            tag = cls.kind.value if cls.corank is None else f"{cls.kind.value} (corank {cls.corank})"
            lines.append("  (" + ", ".join(ray.coords_text()) + f")  {tag}")
        return "\n".join(lines)


# -- candidate sources ----------------------------------------------------------


@dataclass(frozen=True)
class AnsatzRoots:
    """All projective points with coordinates in {0} u {zeta^a}."""

    name: str = "ansatz"


@dataclass(frozen=True)
class UserList:
    """Explicit candidate rays; set `exhaustive` to certify a negative search."""

    points: Tuple[Tuple[Cyclo, ...], ...]
    exhaustive: bool = False
    name: str = "user"


@dataclass(frozen=True)
class FloatHomotopy:
    """Numeric fallback: Gauss-Newton on the gradient system, chart by chart.

    `starts // 5` complex starts per affine chart are drawn from
    `default_rng(seed)` (real then imaginary parts, start by start, chart by
    chart) and iterated together as one batch.  Solutions are snapped to the
    root-of-unity grid and certified by the exact grid scan when possible;
    anything else stays Unclassified and the report is never complete.
    """

    starts: int = 400
    seed: int = 20260809
    tolerance: float = 1e-10
    name: str = "float"


CandidateSource = AnsatzRoots | UserList | FloatHomotopy


def normalize_ray(point: Sequence[Cyclo]) -> Tuple[Cyclo, ...]:
    """Scale so the first nonzero coordinate is exactly 1."""
    lead = next((c for c in point if not c.is_zero()), None)
    if lead is None:
        raise GsvInputError("the origin does not define a ray")
    if lead.coeffs == lead.field.one.coeffs:
        return tuple(point)  # already normalized, as every ansatz candidate is
    inv = lead.inverse()
    return tuple(c * inv for c in point)


def _ray_sort_key(point: Sequence[Cyclo]):
    return tuple(c.coeffs for c in point)


def ansatz_candidates(field: CyclotomicField) -> Iterable[Tuple[Cyclo, ...]]:
    """Normalized representatives of the root-of-unity ansatz grid."""
    zero = field.zero
    units = [field.zeta_power(a) for a in range(field.order)]
    choices = [zero] + units
    for lead in range(5):
        head = (zero,) * lead + (field.one,)
        for tail in product(choices, repeat=4 - lead):
            yield head + tail


_ZERO, _OFF_GRID = -1, -2


class _GridScan:
    """Exact test that polynomials in the variables of `g` all vanish at
    candidate points, in integers on the grid; by default the polynomials
    are the gradient of `g`, so the test is dG = 0.

    At a point whose coordinates are 0 or zeta^a, a monomial c*x^m that
    avoids the zero coordinates equals c*zeta^(sum a_i m_i).  Each
    polynomial, with denominators cleared, thus becomes an integer vector of
    length k binned by exponent mod k; it vanishes iff the vector's image in
    the power basis, through the integer table of zeta^t, is zero.  Any
    other point is evaluated exactly with Cyclo arithmetic.
    """

    def __init__(self, g: Polynomial, polys: Sequence[Polynomial] | None = None):
        field = g.field
        self.polys = g.gradient() if polys is None else tuple(polys)
        self.n = len(g.variables)
        self.k = field.order
        units = [field.zeta_power(a) for a in range(self.k)]
        self._phase_of = {u.coeffs: a for a, u in enumerate(units)}
        # Phi_k is monic with integer coefficients, so zeta^t is integral
        self._columns = [[int(u.coeffs[j]) for u in units] for j in range(field.degree)]
        self._components = []
        for comp in self.polys:
            scale = lcm(*(c.denominator for coeff in comp.terms.values()
                          for c in coeff.coeffs))
            self._components.append(
                [(exp, tuple((j, int(c * scale)) for j, c in enumerate(coeff.coeffs) if c))
                 for exp, coeff in comp.terms.items()])
        self._patterns: dict = {}
        # phase of the field's own 0 and zeta^a objects, by id; `_grid` keeps
        # those ids unique.  Other objects are looked up by value and not kept,
        # so the memo stays bounded however long the scan lives.
        self._grid = (field.zero, *units)
        self._memo = {id(c): a for a, c in zip((_ZERO, *range(self.k)), self._grid)}

    def _phase(self, c: Cyclo) -> int:
        return _ZERO if c.is_zero() else self._phase_of.get(c.coeffs, _OFF_GRID)

    def _pattern(self, nonzero: Tuple[bool, ...]):
        """Per polynomial, the monomials that survive on this zero pattern;
        polynomials with none vanish identically and are dropped."""
        live = []
        for terms in self._components:
            kept = [t for t in terms if all(nz or not e for nz, e in zip(nonzero, t[0]))]
            if kept:
                live.append(kept)
        self._patterns[nonzero] = live
        return live

    def vanishes(self, point: Sequence[Cyclo]) -> bool:
        phases = list(map(self._memo.get, map(id, point)))
        if None in phases:
            phases = [self._phase(c) if a is None else a for c, a in zip(point, phases)]
        if _OFF_GRID in phases or len(phases) != self.n:
            # evaluate also rejects a wrong length
            return all(d.evaluate(point).is_zero() for d in self.polys)
        nonzero = tuple(map(_ZERO.__ne__, phases))
        pattern = self._patterns.get(nonzero)
        if pattern is None:
            pattern = self._pattern(nonzero)
        k, columns = self.k, self._columns
        for terms in pattern:
            bins = [0] * k
            for exp, coeffs in terms:
                # zero coordinates carry phase -1 but exponent 0 here
                e = sum(map(mul, phases, exp))
                for j, c in coeffs:
                    bins[(e + j) % k] += c
            for col in columns:
                if sum(map(mul, bins, col)):
                    return False
        return True


def _scan(g: Polynomial) -> _GridScan:
    """The grid scan of dG, built once per polynomial like its gradient."""
    return g._cached("scan", lambda: _GridScan(g))


def _value_scan(g: Polynomial) -> _GridScan:
    """The grid scan of G itself, built once per polynomial."""
    return g._cached("value_scan", lambda: _GridScan(g, (g,)))


def _require_quintic(g: Polynomial):
    if len(g.variables) != 5:
        raise GsvInputError("expected a polynomial in the five variables s0..s4")
    if g.is_zero() or not g.is_homogeneous(5):
        raise GsvInputError("expected a nonzero homogeneous polynomial of degree 5")


def classify_singularity(g: Polynomial, point: Sequence[Cyclo]) -> SingularityClass:
    """Node iff the chart Hessian has rank 4; otherwise NonNode with corank.

    Rank 4 over F_p certifies rank 4 over Q(zeta), because reduction mod p
    cannot raise a rank; otherwise the exact rank decides.
    """
    pt = list(normalize_ray([g.field.element(c) for c in point]))
    if not _scan(g).vanishes(pt):
        raise GsvInputError("point is not a singular ray (gradient does not vanish)")
    chart = next(i for i, c in enumerate(pt) if not c.is_zero())
    others = [i for i in range(5) if i != chart]
    hess = g.hessian()
    p, omega = residue_prime(g.field.order)
    xs = [c.residue(p, omega) for c in pt]
    if None not in xs:
        rows = [[hess[i][j].evaluate_residue(xs, p, omega) for j in others] for i in others]
        if all(None not in r for r in rows) and rank_mod_p(rows, p) == 4:
            return NODE
    rank = matrix_rank([[hess[i][j].evaluate(pt) for j in others] for i in others])
    if rank == 4:
        return NODE
    return SingularityClass(Kind.NON_NODE, corank=4 - rank)


def _exact_search(g: Polynomial,
                  candidates: Iterable[Tuple[Cyclo, ...]]) -> list[Tuple[Cyclo, ...]]:
    """The candidates where dG vanishes exactly."""
    return list(filter(_scan(g).vanishes, candidates))


def _finish_rays(g: Polynomial, points: Iterable[Sequence[Cyclo]]) -> Tuple[SingularRay, ...]:
    """Normalize, dedupe, classify, sanity-check, and sort."""
    seen = {}
    for pt in points:
        ray = normalize_ray(pt)
        seen[tuple(c.coeffs for c in ray)] = ray
    rays = []
    for ray in seen.values():
        if not _value_scan(g).vanishes(ray):
            # homogeneity forces G = 0 wherever dG = 0; failure means a bug
            raise GsvError("internal error: G does not vanish on a singular ray")
        rays.append(SingularRay(ray, classify_singularity(g, ray)))
    rays.sort(key=lambda r: _ray_sort_key(r.representative))
    return tuple(rays)


def find_singular_rays(g: Polynomial, source: CandidateSource) -> Tuple[SingularRay, ...]:
    """All exactly-verified singular rays reachable from the candidate source,
    deduplicated up to scaling, in a deterministic order."""
    _require_quintic(g)
    if isinstance(source, AnsatzRoots):
        return _finish_rays(g, _exact_search(g, ansatz_candidates(g.field)))
    if isinstance(source, UserList):
        pts = [tuple(g.field.element(c) for c in p) for p in source.points]
        pts = [p for p in pts if any(not c.is_zero() for c in p)]  # origin is excised
        return _finish_rays(g, _exact_search(g, pts))
    if isinstance(source, FloatHomotopy):
        certified, unresolved = _float_search(g, source)
        rays = list(_finish_rays(g, certified))
        rays.extend(SingularRay(pt, UNCLASSIFIED) for pt in unresolved)
        return tuple(rays)
    raise GsvInputError(f"unknown candidate source {source!r}")


def _pure_power_gradient(g: Polynomial) -> bool:
    """Certificate: if every dG/ds_i is c * s_i^e, joint vanishing forces s = 0."""
    for i, comp in enumerate(g.gradient()):
        if len(comp.terms) != 1:
            return False
        (exp,) = comp.terms
        if any(e and j != i for j, e in enumerate(exp)):
            return False
        if exp[i] == 0:
            return False
    return True


def verify_transversal(g: Polynomial, source: CandidateSource) -> TransversalityReport:
    """Search for singular rays and certify transversality when possible.

    Exit states: rays found (non-transversal, certified), no rays plus a
    certificate (transversal), or no rays and no certificate (inconclusive;
    never silently reported as transversal).
    """
    rays = find_singular_rays(g, source)
    isolated = all(r.classification.kind is Kind.NODE for r in rays)
    name = source.name
    if rays:
        complete = not isinstance(source, FloatHomotopy) and all(
            r.classification.kind is not Kind.UNCLASSIFIED for r in rays)
        return TransversalityReport(False, rays, isolated, name, complete)
    if _pure_power_gradient(g) or (isinstance(source, UserList) and source.exhaustive):
        return TransversalityReport(True, (), True, name, True)
    return TransversalityReport(None, (), True, name, False)


# -- numeric fallback -------------------------------------------------------------


def _complex_evaluator(polys: Sequence[Polynomial]):
    """Compile polynomials into one batched complex evaluator.

    The returned function maps an (S, n) complex array of points to the
    (S, len(polys)) array of values: the monomials over the union of all
    exponents, times a complex coefficient matrix built with one `to_complex`
    per coefficient.
    """
    import numpy as np

    exps = sorted({e for p in polys for e in p.terms})
    index = {e: i for i, e in enumerate(exps)}
    exponents = np.array(exps)
    coeffs = np.zeros((len(exps), len(polys)), dtype=complex)
    for col, p in enumerate(polys):
        for e, c in p.terms.items():
            coeffs[index[e], col] = c.to_complex()

    def evaluate(points):
        return np.prod(points[:, None, :] ** exponents, axis=2) @ coeffs

    return evaluate


def _newton_batch(x, chart: int, gradient, hessian, tol: float):
    """Gauss-Newton on dG = 0 in the chart s_chart = 1, from every row of the
    (S, 4) start array `x` at once.

    Each start leaves the batch on the first of: max|dG| < tol, a non-finite
    value, Jacobian or step, or max|step| < 1e-14; at most 60 steps.  The
    step is the minimum-norm least-squares solution, with the SVD cutoff of
    `lstsq(rcond=None)`.  Returns the (S, 5) end points and the mask of
    those that are finite with max|dG| < tol.
    """
    import numpy as np

    others = [j for j in range(5) if j != chart]
    cutoff = np.finfo(float).eps * 5
    x = x.copy()
    active = np.arange(len(x))
    for _ in range(60):
        if not len(active):
            break
        pts = np.insert(x[active], chart, 1.0, axis=1)
        f = gradient(pts)
        jac = hessian(pts).reshape(-1, 5, 5)[:, :, others]
        finite = (np.isfinite(f).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
                  & ~(np.abs(f).max(axis=1) < tol))
        active, f, jac = active[finite], f[finite], jac[finite]
        step = (np.linalg.pinv(jac, rcond=cutoff) @ -f[:, :, None])[:, :, 0]
        finite = np.isfinite(step).all(axis=1)
        active, step = active[finite], step[finite]
        x[active] += step
        active = active[~(np.abs(step).max(axis=1) < 1e-14)]
    pts = np.insert(x, chart, 1.0, axis=1)
    ok = np.isfinite(pts).all(axis=1) & (np.abs(gradient(pts)).max(axis=1) < tol)
    return pts, ok


def _float_search(g: Polynomial, search: FloatHomotopy):
    import numpy as np

    gradient = _complex_evaluator(g.gradient())
    hessian = _complex_evaluator([h for row in g.hessian() for h in row])
    field = g.field
    per_chart = max(search.starts // 5, 1)
    rng = np.random.default_rng(search.seed)
    raw: dict[tuple, np.ndarray] = {}
    for chart in range(5):
        # the same stream as drawing re(4) then im(4) start after start
        z = rng.standard_normal((per_chart, 2, 4))
        pts, ok = _newton_batch(z[:, 0] + 1j * z[:, 1], chart, gradient, hessian,
                                search.tolerance)
        for pt in pts[ok]:
            lead = next(i for i in range(5) if abs(pt[i]) > 1e-8)
            pt = pt / pt[lead]
            key = tuple(np.round(pt, 6))
            raw.setdefault(key, pt)

    grid = [field.zero] + [field.zeta_power(a) for a in range(field.order)]
    grid_values = [z.to_complex() for z in grid]

    vanishes = _scan(g).vanishes
    certified: list[Tuple[Cyclo, ...]] = []
    unresolved: list[Tuple[Cyclo, ...]] = []
    for pt in raw.values():
        snapped = []
        for v in pt:
            dists = [abs(v - w) for w in grid_values]
            best = min(range(len(grid)), key=dists.__getitem__)
            snapped.append(grid[best] if dists[best] < 1e-6 else None)
        if all(s is not None for s in snapped) and vanishes(tuple(snapped)):
            certified.append(tuple(snapped))
        else:
            unresolved.append(_rationalize_point(field, pt))
    unresolved.sort(key=_ray_sort_key)
    return certified, unresolved


def _rationalize_point(field: CyclotomicField, pt) -> Tuple[Cyclo, ...]:
    """Nearest small-height coefficient-domain point to a complex vector.

    Used only to give Unclassified numeric hits an exact-typed representative;
    it carries no exactness claim.
    """
    import numpy as np

    d = field.degree
    basis = [field.zeta_power(a).to_complex() for a in range(d)]
    mat = np.array([[b.real for b in basis], [b.imag for b in basis]])
    sol, *_ = np.linalg.lstsq(mat, np.array([pt.real, pt.imag]), rcond=None)
    return tuple(field.element([Fraction(float(c)).limit_denominator(10 ** 6) for c in col])
                 for col in sol.T)
