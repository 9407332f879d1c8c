"""The numeric candidate source of `--source float` and its array helpers.

Skipped where numpy is not installed: no other code of gsvkit needs it.
"""

import math
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from gsvkit import homotopy, singular  # noqa: E402
from gsvkit.cyclo import CyclotomicField  # noqa: E402
from gsvkit.errors import GsvError  # noqa: E402
from gsvkit.poly import Polynomial, parse_polynomial  # noqa: E402
from gsvkit.singular import verify_transversal  # noqa: E402
from test_cyclo import elements, frac  # noqa: E402
from test_singular import DATA, DWORK, K5, ONE_NODE, coords, sparse_quintics  # noqa: E402


# -- the complex embedding of Q(zeta_k) ----------------------------------------------


def test_to_complex_embedding():
    K = CyclotomicField(5)
    z = homotopy._to_complex(K.zeta())
    assert abs(z - complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-12
    a = K.element([frac(1, 2), -2, 0, frac(3, 7)])
    expected = 0.5 - 2 * z + frac(3, 7) * z ** 3
    assert abs(homotopy._to_complex(a) - expected) < 1e-12


@given(elements(), elements())
def test_complex_embedding_is_a_homomorphism(a, b):
    embed = homotopy._to_complex
    assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-6
    assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9


# -- the search through verify_transversal -------------------------------------------


def test_float_homotopy_certifies_grid_solutions():
    rays = verify_transversal(ONE_NODE, "float").rays
    assert [coords(r) for r in rays] == [("0", "0", "0", "0", "1")]
    report = verify_transversal(ONE_NODE, "float")
    assert not report.complete  # numeric searches are never certified complete


def test_float_homotopy_on_dwork():
    # best effort: a decent fraction of the 125 nodes, every certified hit a
    # true node appearing in the exact search
    rays = verify_transversal(DWORK, "float").rays
    assert len(rays) >= 50
    assert all(r.corank == 0 for r in rays)
    exact = {coords(r) for r in verify_transversal(DWORK, "ansatz").rays}
    assert {coords(r) for r in rays} <= exact


def test_float_homotopy_certifies_a_slowly_converging_non_node():
    # at the corank-4 ray of s0^5+..+s3^5 Newton converges only linearly and
    # stops about 1e-3 off the ray; every hit still snaps to it
    g = parse_polynomial((DATA / "degenerate.poly").read_text(), K5)
    rays = verify_transversal(g, "float").rays
    assert [(coords(r), r.corank) for r in rays] == [(("0", "0", "0", "0", "1"), 4)]


# -- batched numeric search against the scalar evaluator ---------------------------

COORDS = st.one_of(st.just(0j), st.complex_numbers(min_magnitude=0.01, max_magnitude=10))


def evaluate_complex(p: Polynomial, point) -> complex:
    """The scalar oracle: one term at a time, in Python complex arithmetic."""
    return sum((homotopy._to_complex(c) * prod(x ** e for x, e in zip(point, exp))
                for exp, c in p.terms.items()), 0j)


@settings(max_examples=40, deadline=None)
@given(sparse_quintics(), st.lists(st.lists(COORDS, min_size=5, max_size=5),
                                   min_size=1, max_size=4))
def test_compiled_evaluator_matches_evaluate_complex(g, points):
    # relative to the sum of the terms' magnitudes, so that cancellation to
    # about 0 does not demand an impossible relative accuracy
    # g and the constant 1 are the power table's ends: top exponents 5 and 0
    polys = ([g, Polynomial(g.field, g.variables, {(0,) * 5: 1})] + list(g.gradient())
             + [h for row in g.hessian() for h in row])
    values = homotopy.complex_evaluator(polys)(np.array(points))
    assert values.shape == (len(points), len(polys))
    for row, pt in zip(values, points):
        for value, p in zip(row, polys):
            scale = sum(abs(homotopy._to_complex(c)) * prod(abs(x) ** e for x, e in zip(pt, exp))
                        for exp, c in p.terms.items())
            assert abs(value - evaluate_complex(p, pt)) <= 1e-9 * scale


def test_newton_batch_drops_non_finite_starts():
    # chart s0 = 1 of the Dwork quintic: nodes at (zeta^a1, .., zeta^a4) with
    # a1 + .. + a4 = 0 mod 5; the start near the second node gets a NaN
    # Jacobian, and another start is NaN outright
    z = np.exp(2j * np.pi / 5)
    nodes = np.array([[1, 1, 1, 1], [z, z ** 4, 1, 1], [z, z, z, z ** 2]])
    gradient = homotopy.complex_evaluator(DWORK.gradient())
    hessian = homotopy.complex_evaluator([h for row in DWORK.hessian() for h in row])

    def poisoned_hessian(pts):
        values = hessian(pts)
        values[np.abs(pts[:, 2] - z ** 4) < 0.1] = np.nan
        return values

    starts = np.vstack([nodes + 1e-3, np.full((1, 4), np.nan)])
    pts, ok = homotopy.newton_batch(starts, np.zeros(4, int), gradient, poisoned_hessian,
                                    1e-10)
    assert ok.tolist() == [True, False, True, False]
    assert np.allclose(pts[ok][:, 1:], nodes[[0, 2]])
    assert np.array_equal(pts[1, 1:], starts[1])  # left the batch untouched


def test_newton_batch_mixes_charts_like_one_call_per_chart():
    # starts near Dwork nodes (zeta^a0, .., zeta^a4), sum a = 0 mod 5, in
    # every chart, and one start whose gradient overflows to inf
    rng = np.random.default_rng(7)
    z = np.exp(2j * np.pi / 5)
    chart = np.array([3, 0, 4, 1, 1, 2, 0, 3, 4, 2, 0, 1])
    starts = []
    for c in chart:
        a = rng.integers(0, 5, 4)
        node = z ** np.append(a, -a.sum())
        starts.append(np.delete(node / node[c], c) + 1e-3 * rng.standard_normal(4))
    starts = np.array(starts)
    starts[5] = 1e80
    gradient = homotopy.complex_evaluator(DWORK.gradient())
    hessian = homotopy.complex_evaluator([h for row in DWORK.hessian() for h in row])
    with np.errstate(over="ignore", invalid="ignore"):
        pts, ok = homotopy.newton_batch(starts, chart, gradient, hessian, 1e-10)
        per_chart = [homotopy.newton_batch(starts[chart == c], chart[chart == c], gradient,
                                           hessian, 1e-10) for c in range(5)]
    assert not ok[5] and ok.sum() == len(chart) - 1
    for c, (one, one_ok) in enumerate(per_chart):
        rows = chart == c
        assert ok[rows].tolist() == one_ok.tolist()
        assert np.allclose(pts[rows], one, rtol=0, atol=1e-12)
        assert (pts[rows, c] == 1).all()


def _jacobians(rng, kinds):
    """5 x 4 complex matrices U diag(sigma) V^H at scales 1e-3 .. 1e3, one per
    kind: 0 well-conditioned (sigma in 1..10), 1 nearly rank-deficient (one
    sigma 1e-3 .. 1e-12 of the others), 2 exactly rank-deficient (a column
    zeroed or repeated)."""
    def orthonormal(m, n):
        return np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))[0]

    rows = []
    for kind in kinds:
        sigma = rng.uniform(1, 10, 4)
        if kind == 1:
            sigma[rng.integers(4)] = 10.0 ** -rng.uniform(3, 12)
        jac = 10.0 ** rng.uniform(-3, 3) * (orthonormal(5, 4) * sigma) @ orthonormal(4, 4).T.conj()
        if kind == 2:
            a, b = rng.choice(4, 2, replace=False)
            jac[:, a] = 0 if rng.integers(2) else jac[:, b]
        rows.append(jac)
    return np.array(rows)


@pytest.mark.parametrize("seed", range(8))
def test_gauss_newton_step_is_the_pinv_step_row_by_row(seed):
    rng = np.random.default_rng(seed)
    kinds = rng.permutation(np.arange(48) % 3)
    jac = _jacobians(rng, kinds)
    f = rng.standard_normal((48, 5)) + 1j * rng.standard_normal((48, 5))
    step, solved = homotopy.gauss_newton_step(jac, f)
    # cond(J) <= 20 always passes the Gram test, cond(J) >= 1e4 never does
    assert solved[kinds == 0].all() and not solved[kinds == 2].any()
    eps = np.finfo(float).eps

    def matches(got, i, want):
        """A solved row within the normal equations' error, cond(J)^2 eps on
        the scale |f| / sigma_min, of `want`; any other row equal to it."""
        if not solved[i]:
            return np.array_equal(got, want)
        sigma = np.linalg.svd(jac[i], compute_uv=False)
        kappa = sigma[0] / sigma[-1]
        bound = 100 * kappa ** 2 * eps * np.linalg.norm(f[i]) / sigma[-1]
        return kappa < 1e4 and np.abs(got - want).max() <= bound

    for i in range(len(jac)):
        assert matches(step[i], i, np.linalg.pinv(jac[i], rcond=5 * eps) @ -f[i])
    # a row's step is its own: alone, or beside an ill-conditioned row or one
    # whose Gram matrix overflows to inf, it takes the same path and step
    companions = (jac[kinds == 1][:1], 1e200 * jac[:1])
    for i in range(len(jac)):
        batches = [(jac[i:i + 1], f[i:i + 1])]
        batches += [(np.concatenate([c, jac[i:i + 1]]), f[[0, i]]) for c in companions]
        for batch, values in batches:
            got, mask = homotopy.gauss_newton_step(batch, values)
            assert mask[-1] == solved[i] and matches(got[-1], i, step[i])


def test_newton_batch_calls_pinv_only_for_ill_conditioned_rows():
    # starts near Dwork nodes in chart s0 = 1: the Jacobians there are well
    # conditioned, so no row needs the SVD
    z = np.exp(2j * np.pi / 5)
    starts = np.array([[1, 1, 1, 1], [z, z ** 4, 1, 1], [z, z, z, z ** 2]]) + 1e-3
    gradient = homotopy.complex_evaluator(DWORK.gradient())
    hessian = homotopy.complex_evaluator([h for row in DWORK.hessian() for h in row])
    with mock.patch.object(np.linalg, "pinv", wraps=np.linalg.pinv) as pinv:
        _, ok = homotopy.newton_batch(starts, np.zeros(3, int), gradient, hessian, 1e-10)
    assert ok.all() and pinv.call_count == 0
    # s0^5 + .. + s3^5 does not involve s4: in the chart s0 = 1 every Jacobian
    # has a zero s4 column, so every step is the minimum-norm SVD step, which
    # leaves s4 where it started
    degenerate = parse_polynomial((DATA / "degenerate.poly").read_text(), K5)
    gradient = homotopy.complex_evaluator(degenerate.gradient())
    hessian = homotopy.complex_evaluator([h for row in degenerate.hessian() for h in row])
    with mock.patch.object(np.linalg, "pinv", wraps=np.linalg.pinv) as pinv:
        pts, _ = homotopy.newton_batch(np.array([[0.3, 0.2j, -0.1, 0.5]]), np.zeros(1, int),
                                       gradient, hessian, 1e-10)
    assert pinv.call_count > 0 and pts[0, 4] == 0.5
    assert all(not call.args[0][:, :, 3].any() for call in pinv.call_args_list)


def test_float_search_runs_one_newton_batch():
    with mock.patch.object(homotopy, "newton_batch", wraps=homotopy.newton_batch) as batch:
        snaps, hits = homotopy.float_candidates(DWORK)
    assert batch.call_count == 1
    # every distinct hit snaps to a singular grid point: none is unresolved
    assert len(batch.call_args.args[0]) == 400 and snaps and len(snaps) == hits
    assert all(map(singular._GridScan(DWORK).vanishes, snaps))
    # snaps are rotated by a power of zeta on the grid indices: normalized
    # rays of the field's own grid objects, with no Cyclo arithmetic
    grid = {id(c) for c in DWORK.field.grid}
    for ray in snaps:
        assert {id(c) for c in ray} <= grid
        assert next(c for c in ray if not c.is_zero()) is K5.one


def test_float_starts_are_the_seeded_draw():
    starts = np.load(Path(homotopy.__file__).with_name("float_starts.npy"))
    shape = (5 * (homotopy.FLOAT_STARTS // 5), 2, 4)
    assert starts.dtype == np.float64 and starts.shape == shape
    regenerate = ("python -c \"import numpy as np; np.save('src/gsvkit/float_starts.npy', "
                  f"np.random.default_rng({homotopy.FLOAT_SEED}).standard_normal({shape}), "
                  "allow_pickle=False)\"")
    assert np.array_equal(starts, np.random.default_rng(homotopy.FLOAT_SEED)
                          .standard_normal(shape)), f"regenerate the table: {regenerate}"


def test_float_search_rejects_starts_of_another_shape():
    with mock.patch.object(homotopy, "FLOAT_STARTS", 500), \
            mock.patch.object(homotopy, "newton_batch") as batch:
        with pytest.raises(GsvError, match=r"shape \(400, 2, 4\), not the \(500, 2, 4\)"):
            homotopy.float_candidates(DWORK)
    batch.assert_not_called()


def test_float_homotopy_on_dwork_at_zeta_order_10():
    # the default search, pinned: 119 of the 125 nodes, all of them on the grid
    g = parse_polynomial((DATA / "dwork_psi1.poly").read_text(), CyclotomicField(10))
    rays = verify_transversal(g, "float").rays
    assert all(r.corank == 0 for r in rays)
    exact = {coords(r) for r in verify_transversal(g, "ansatz").rays}
    found = {coords(r) for r in rays}
    assert len(rays) == len(found) == 119 and found <= exact
