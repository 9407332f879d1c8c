"""Array helpers of the numeric search behind `singular.FloatHomotopy`.

Imported only under `--source float`, like numpy itself: batched complex
evaluators of polynomials, a batched Gauss-Newton step loop, and a
coefficient-domain representative for a hit that stays uncertified.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .cyclo import Cyclo, CyclotomicField
from .poly import Polynomial


def complex_evaluator(polys: Sequence[Polynomial]):
    """Compile polynomials into one batched complex evaluator.

    The returned function maps an (S, n) complex array of points to the
    (S, len(polys)) array of values: the monomials over the union of all
    exponents, times a complex coefficient matrix built with one `to_complex`
    per coefficient.
    """
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



def newton_batch(x, chart: int, gradient, hessian, tol: float):
    """Gauss-Newton on dG = 0 in the chart s_chart = 1, from every row of the
    (S, 4) start array `x` at once.

    Each start leaves the batch on the first of: max|dG| < tol, a non-finite
    value, Jacobian or step, or max|step| < 1e-14; at most 60 steps.  The
    step is the minimum-norm least-squares solution, with the SVD cutoff of
    `lstsq(rcond=None)`.  Returns the (S, 5) end points and the mask of
    those that are finite with max|dG| < tol.
    """
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



def rationalize_point(field: CyclotomicField, pt) -> Tuple[Cyclo, ...]:
    """Nearest small-height coefficient-domain point to a complex vector.

    Used only to give Unclassified numeric hits an exact-typed representative;
    it carries no exactness claim.
    """
    d = field.degree
    basis = [field.zeta_power(a).to_complex() for a in range(d)]
    mat = np.array([[b.real for b in basis], [b.imag for b in basis]])
    sol, *_ = np.linalg.lstsq(mat, np.array([pt.real, pt.imag]), rcond=None)
    return tuple(field.element([Fraction(float(c)).limit_denominator(10 ** 6) for c in col])
                 for col in sol.T)
