"""Array helpers of the numeric search behind `singular._float_search`.

Imported only under `--source float`, like numpy itself: batched complex
evaluators of polynomials, a batched least-squares step and the Gauss-Newton
loop that takes it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .poly import Polynomial


def complex_evaluator(polys: Sequence[Polynomial]):
    """Compile polynomials into one batched complex evaluator.

    The returned function maps an (S, n) complex array of points to the
    (S, len(polys)) array of values: the monomials over the union of all
    exponents, times a complex coefficient matrix built with one `to_complex`
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
            coeffs[index[e], col] = c.to_complex()

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
