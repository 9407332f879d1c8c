"""The numeric candidate source of `--source float`, and gsvkit's only
floating-point code.

Imported only under that source, like numpy itself.  `float_candidates`
compiles the gradient and Hessian once into complex exponent and coefficient
arrays and runs Gauss-Newton on the starts of all five charts as one batch.
A hit that snaps to the root-of-unity grid becomes a normalized grid point,
which `singular.verify_transversal` certifies by the same exact scan as a
user point; every other hit is only counted, as `unresolved`, so a report
lists certified rays alone.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from .cyclo import Cyclo
from .errors import GsvError, GsvInputError
from .poly import Polynomial

# The start count, the seed of its table `float_starts.npy` and the convergence
# tolerance of the search (see `float_candidates`)
FLOAT_STARTS, FLOAT_SEED, FLOAT_TOLERANCE = 400, 20260809, 1e-10


def _to_complex(c: Cyclo) -> complex:
    """The image of c under zeta -> exp(2 pi i / k)."""
    z = cmath.exp(2j * math.pi / c.field.order)
    total = 0j
    power = 1 + 0j
    for a in c.coeffs:
        if a:
            total += float(a) * power
        power *= z
    return total


def complex_evaluator(polys: Sequence[Polynomial]):
    """Compile polynomials into one batched complex evaluator.

    The returned function maps an (S, n) complex array of points to the
    (S, len(polys)) array of values: the monomials over the union of all
    exponents, times a complex coefficient matrix built with one `_to_complex`
    per coefficient.  Each coordinate's powers 0..max exponent come from
    repeated multiplication, and a monomial is the product of its gathered
    powers, one variable at a time.
    """
    exps = sorted({e for p in polys for e in p.terms})
    index = {e: i for i, e in enumerate(exps)}
    exponents = np.array(exps).T
    top = int(exponents.max(initial=0))
    coeffs = np.zeros((len(exps), len(polys)), dtype=complex)
    for col, p in enumerate(polys):
        for e, c in p.terms.items():
            coeffs[index[e], col] = _to_complex(c)

    def evaluate(points):
        coords = points.T
        powers = np.ones((top + 1, *coords.shape), dtype=complex)
        for k in range(1, top + 1):
            powers[k] = powers[k - 1] * coords
        monomials = powers[exponents[0], 0]
        for j in range(1, len(exponents)):
            monomials = monomials * powers[exponents[j], j]
        return monomials.T @ coeffs

    return evaluate


# det(G)/tr(G)^n above this sends a row to its normal equations
GRAM_BOUND = 1e-8
# the relative SVD cutoff of `lstsq(rcond=None)`, for the other rows
_CUTOFF = np.finfo(float).eps * 5


def gauss_newton_step(jac, f):
    """Least-squares steps x minimizing |J x + f|, one per row of the (S, m, n)
    Jacobians `jac` and (S, m) values `f`, and the mask of rows solved from
    their normal equations.

    Each row's Gram system G x = -J^H f, G = J^H J, is solved by Gaussian
    elimination without pivoting, all rows at once in array arithmetic.  A
    row keeps that solution when its pivots are all positive with det(G),
    their product, above `GRAM_BOUND` * tr(G)^n.  The ratio
    det(G)/tr(G)^n is at most lambda_min/lambda_max of G, so a row that
    passes has cond(J) < 1e4 and a step within about cond(J)^2 eps of the
    SVD one; for n = 4 every row with cond(J) <= 20 passes.  Every other row,
    including one whose G is not finite, takes the SVD minimum-norm step
    `pinv(J, rcond=5 eps) @ -f`, and pinv runs only when such a row exists.
    Nothing couples the rows: alone or in any batch, a row takes the same
    path and the same step, up to rounding in the last bits.
    """
    n = jac.shape[2]
    # rows last, so that each array operation runs on contiguous rows
    jt = np.ascontiguousarray(jac.transpose(1, 2, 0))
    gram = np.zeros((n, n, len(f)), dtype=complex)
    x = np.zeros((n, len(f)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for row, value in zip(jt, f.T):
            conj = row.conj()
            gram += conj[:, None] * row[None, :]
            x -= conj * value
        trace = gram[range(n), range(n)].real.sum(axis=0)
        # Gaussian elimination on [G | -J^H f] without pivoting; for a
        # Hermitian G the pivots are those of L D L^H, so det(G) is their product
        for k in range(n - 1):
            lower = gram[k + 1:, k] / gram[k, k]
            gram[k + 1:, k + 1:] -= lower[:, None] * gram[None, k, k + 1:]
            x[k + 1:] -= lower * x[k]
        pivots = gram[range(n), range(n)].real
        solved = (pivots > 0).all(axis=0) & (pivots.prod(axis=0) > GRAM_BOUND * trace ** n)
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - (gram[k, k + 1:] * x[k + 1:]).sum(axis=0)) / pivots[k]
    step = x.T
    if not solved.all():
        ill = ~solved
        step[ill] = (np.linalg.pinv(jac[ill], rcond=_CUTOFF) @ -f[ill, :, None])[:, :, 0]
    return step, solved


def newton_batch(x, chart, gradient, hessian, tol: float):
    """Gauss-Newton on dG = 0 from every row of the (S, 4) start array `x` at
    once, row i in the affine chart s_chart[i] = 1 of the int array `chart`.

    Each start leaves the batch on the first of: max|dG| < tol, a non-finite
    value, Jacobian or step, or max|step| < 1e-14; at most 60 steps.  The
    step is `gauss_newton_step`'s: solved from the 4x4 normal equations where
    det(J^H J)/tr(J^H J)^4 > 1e-8 bounds cond(J) below 1e4, else the SVD
    minimum-norm step with the cutoff of `lstsq(rcond=None)`.  Returns the
    (S, 5) end points and the mask of those that are finite with max|dG| < tol.
    """
    free = np.arange(4) + (np.arange(4) >= np.asarray(chart)[:, None])
    pts = np.ones((len(x), 5), dtype=complex)
    np.put_along_axis(pts, free, x, axis=1)
    active = np.arange(len(x))
    for _ in range(60):
        if not len(active):
            break
        f = gradient(pts[active])
        jac = np.take_along_axis(hessian(pts[active]).reshape(-1, 5, 5),
                                 free[active, None], axis=2)
        finite = (np.isfinite(f).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
                  & ~(np.abs(f).max(axis=1) < tol))
        active, f, jac = active[finite], f[finite], jac[finite]
        step = gauss_newton_step(jac, f)[0]
        finite = np.isfinite(step).all(axis=1)
        active, step = active[finite], step[finite]
        pts[active[:, None], free[active]] += step
        active = active[~(np.abs(step).max(axis=1) < 1e-14)]
    ok = np.isfinite(pts).all(axis=1) & (np.abs(gradient(pts)).max(axis=1) < tol)
    return pts, ok


def _require_float_range(g: Polynomial) -> None:
    """Raise GsvInputError naming G's term when the largest multiple of it in
    the Hessian, c * e_i * (e_j - [i = j]), leaves float range.  For a term of
    degree 5 that multiple is at least the gradient's largest, c * max e_i, so
    this checks the gradient too."""
    for e, c in g.terms.items():
        top = max(a * (b - (i == j)) for i, a in enumerate(e) for j, b in enumerate(e))
        try:
            _to_complex(c * top)
        except OverflowError:
            term = Polynomial(g.field, g.variables, {e: c})
            raise GsvInputError(f"term {term} has a derivative coefficient beyond float "
                                "range") from None


def float_candidates(g: Polynomial) -> Tuple[list, int]:
    """The normalized grid points that numeric hits snap to, and the number
    of distinct hits.

    Gauss-Newton on the gradient system in the affine charts: `FLOAT_STARTS
    // 5` complex starts per chart are read from the package's
    `float_starts.npy`, the (starts, re/im, 4) float64 standard-normal draw
    of numpy's default generator seeded with `FLOAT_SEED` (real then
    imaginary parts, start by start, chart by chart; a test regenerates it
    bit for bit), and the starts of all five charts are iterated as one
    batch until max|dG| < `FLOAT_TOLERANCE`.  Each solution, scaled so its
    largest coordinate is 1, is snapped to the root-of-unity grid when every
    coordinate lies within 1e-2 of a grid value, and rotated by a power of
    zeta so its first nonzero coordinate is 1.  A snap is a tuple of the
    objects of `field.grid`; it is not yet certified, and a hit that does
    not snap is only counted.

    A table of another shape raises GsvError.  A term of G whose multiple in
    the gradient or Hessian leaves float range raises GsvInputError naming it.
    """
    _require_float_range(g)
    gradient = complex_evaluator(g.gradient())
    hessian = complex_evaluator([h for row in g.hessian() for h in row])
    per_chart = FLOAT_STARTS // 5
    z = np.load(Path(__file__).with_name("float_starts.npy"))
    if z.shape != (5 * per_chart, 2, 4):
        raise GsvError(f"float_starts.npy holds starts of shape {z.shape}, not the "
                       f"{(5 * per_chart, 2, 4)} of FLOAT_STARTS = {FLOAT_STARTS}")
    pts, ok = newton_batch(z[:, 0] + 1j * z[:, 1], np.arange(5).repeat(per_chart),
                           gradient, hessian, FLOAT_TOLERANCE)
    pts = pts[ok]
    lead = (abs(pts) > 1e-8).argmax(axis=1)
    pts = pts / np.take_along_axis(pts, lead[:, None], axis=1)
    first: dict[tuple, int] = {}
    for i, key in enumerate(np.round(pts, 6).tolist()):
        first.setdefault(tuple(key), i)
    pts = pts[list(first.values())]

    # Newton converges only linearly at a non-node and can stop ~1e-3 off the
    # ray, hence the wide radius; the exact scan still checks every snap
    grid, k = g.field.grid, g.field.order  # grid: 0, then zeta^a at index 1 + a
    top = np.take_along_axis(pts, abs(pts).argmax(axis=1)[:, None], axis=1)
    dists = abs((pts / top)[:, :, None] - np.array([_to_complex(c) for c in grid]))
    idx = dists.argmin(axis=2)[(dists.min(axis=2) < 1e-2).all(axis=1)]
    # rotate by zeta^-a, a the phase of the first nonzero coordinate, so that
    # coordinate is 1 and the snap is a normalized ray of grid objects
    shift = np.take_along_axis(idx, (idx > 0).argmax(axis=1)[:, None], axis=1)
    idx = np.where(idx > 0, (idx - shift) % k + 1, 0)
    return [tuple(map(grid.__getitem__, i)) for i in idx.tolist()], len(pts)
