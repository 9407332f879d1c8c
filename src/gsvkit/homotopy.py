"""Array helpers of the numeric search behind `singular._float_search`.

Imported only under `--source float`, like numpy itself: batched complex
evaluators of polynomials and a batched Gauss-Newton step loop.
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


def newton_batch(x, chart, gradient, hessian, tol: float):
    """Gauss-Newton on dG = 0 from every row of the (S, 4) start array `x` at
    once, row i in the affine chart s_chart[i] = 1 of the int array `chart`.

    Each start leaves the batch on the first of: max|dG| < tol, a non-finite
    value, Jacobian or step, or max|step| < 1e-14; at most 60 steps.  The
    step is the minimum-norm least-squares solution, with the SVD cutoff of
    `lstsq(rcond=None)`.  Returns the (S, 5) end points and the mask of
    those that are finite with max|dG| < tol.
    """
    free = np.arange(4) + (np.arange(4) >= np.asarray(chart)[:, None])
    pts = np.ones((len(x), 5), dtype=complex)
    np.put_along_axis(pts, free, x, axis=1)
    cutoff = np.finfo(float).eps * 5
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
        step = (np.linalg.pinv(jac, rcond=cutoff) @ -f[:, :, None])[:, :, 0]
        finite = np.isfinite(step).all(axis=1)
        active, step = active[finite], step[finite]
        pts[active[:, None], free[active]] += step
        active = active[~(np.abs(step).max(axis=1) < 1e-14)]
    ok = np.isfinite(pts).all(axis=1) & (np.abs(gradient(pts)).max(axis=1) < tol)
    return pts, ok
