"""Singular ray search and node classification."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gsvkit import singular
from gsvkit.cyclo import CyclotomicField, residue_prime
from gsvkit.errors import GsvInputError
from gsvkit.poly import Polynomial, parse_polynomial, parse_scalar
from gsvkit.singular import normalize_ray, verify_transversal

from oracle_quintics import ROWS

K5 = CyclotomicField(5)
DATA = Path(__file__).resolve().parent.parent / "data"

FERMAT = parse_polynomial("s0^5+s1^5+s2^5+s3^5+s4^5", K5)
DWORK = parse_polynomial("s0^5+s1^5+s2^5+s3^5+s4^5-5*s0*s1*s2*s3*s4", K5)
CONE_FERMAT = parse_polynomial("s0^5+s1^5+s2^5+s3^5", K5)  # s4 absent
ONE_NODE = parse_polynomial(
    "s4^3*s0^2+s4^3*s1^2+s4^3*s2^2+s4^3*s3^2+s0^5+s1^5+s2^5+s3^5", K5)


def coords(ray):
    return tuple(map(str, ray.representative))


def ansatz_candidates(field):
    """The normalized root-of-unity ansatz grid, point by point: the brute-force
    reference for `_GridScan.grid_zeros`, which must list its zeros in this order."""
    for lead in range(5):
        head = (field.zero,) * lead + (field.one,)
        for tail in product(field.grid, repeat=4 - lead):
            yield head + tail


def classify(g, point):
    """The corank of the one singular ray the user source finds at `point`."""
    (ray,) = verify_transversal(g, "user", [point]).rays
    return ray.corank


def test_fermat_is_transversal():
    report = verify_transversal(FERMAT, "ansatz")
    assert report.transversal is True
    assert report.complete and report.isolated
    assert report.rays == ()


def test_ansatz_candidate_count():
    # normalized grid: sum over lead position of (order+1)^(4-lead)
    assert sum(1 for _ in ansatz_candidates(K5)) == 6 ** 4 + 6 ** 3 + 6 ** 2 + 6 + 1


def test_cone_over_fermat_quartic_surface():
    report = verify_transversal(CONE_FERMAT, "ansatz")
    assert report.transversal is False
    assert [coords(r) for r in report.rays] == [("0", "0", "0", "0", "1")]
    ray = report.rays[0]
    assert ray.corank == 4
    assert not report.isolated


def test_single_node_polynomial():
    rays = verify_transversal(ONE_NODE, "ansatz").rays
    assert len(rays) == 1
    assert coords(rays[0]) == ("0", "0", "0", "0", "1")
    assert rays[0].corank == 0


def test_single_node_hessian_oracle():
    # chart s4 = 1: quadratic part s0^2 + .. + s3^2, so the chart Hessian at
    # the origin is 2*I, rank 4 by its minors
    hess = ONE_NODE.hessian()
    pt = [K5.zero] * 4 + [K5.one]
    rows = [[hess[i][j].evaluate(pt) for j in range(4)] for i in range(4)]
    assert rows == [[K5.element(2 if i == j else 0) for j in range(4)] for i in range(4)]
    assert minor_rank(rows) == 4


def test_user_source_gives_no_ray_at_origin_or_smooth_point():
    for point in ([K5.zero] * 5, [K5.one, K5.zero, K5.zero, K5.zero, K5.zero]):
        assert verify_transversal(DWORK, "user", [point]).rays == ()


def test_classification_is_scaling_invariant():
    z = K5.zeta()
    scaled = [z ** 2 * K5.element(3) for _ in range(5)]
    (ray,) = verify_transversal(DWORK, "user", [scaled]).rays
    assert ray.representative == (K5.one,) * 5
    assert ray.corank == 0


def test_dwork_ray_structure():
    rays = verify_transversal(DWORK, "ansatz").rays
    assert len(rays) == 125
    # every ray is normalized, exactly singular, and G vanishes on it
    gradient = DWORK.gradient()
    for ray in rays:
        pt = ray.representative
        assert pt[0] == K5.one
        assert all(g.evaluate(pt).is_zero() for g in gradient)
        assert DWORK.evaluate(pt).is_zero()
        assert ray.corank == 0


def test_dwork_exponent_oracle():
    # independent count: rays (1, z^a, z^b, z^c, z^d) satisfy the hand-written
    # gradient equations exactly when a+b+c+d = 0 mod 5, giving 5^3 solutions
    count = 0
    for a in range(5):
        for b in range(5):
            for c in range(5):
                d = (-(a + b + c)) % 5
                count += 1
                z = K5.zeta()
                pt = [K5.one, z ** a, z ** b, z ** c, z ** d]
                exps = [0, a, b, c, d]
                for i in range(5):
                    # 5 s_i^4 - 5 prod_{j != i} s_j = 0 in exponent form
                    lhs = (4 * exps[i]) % 5
                    rhs = sum(e for j, e in enumerate(exps) if j != i) % 5
                    assert lhs == rhs
                assert all(g.evaluate(pt).is_zero() for g in DWORK.gradient())
    assert count == 125


def test_find_rays_deterministic():
    first = verify_transversal(DWORK, "ansatz").rays
    second = verify_transversal(DWORK, "ansatz").rays
    assert first == second


def test_user_list_source():
    z = K5.zeta()
    points = (
        tuple([K5.one] * 5),                      # exponent sum 0 mod 5: singular
        (K5.one, z, z, z, z ** 2),                # exponent sum 5 = 0 mod 5: singular
        (K5.one, K5.one, K5.one, K5.one, z),      # exponent sum 1: not singular
        tuple([K5.zero] * 5),                     # origin: excised, not a ray
    )
    report = verify_transversal(DWORK, "user", points)
    assert len(report.rays) == 2
    # 2 of Dwork's 125 rays: a list proves no count
    assert report.transversal is False and not report.complete


def test_user_list_never_certifies_transversality():
    not_singular = ((K5.one,) * 5,)
    open_report = verify_transversal(FERMAT, "user", not_singular)
    # the certificate still fires for a diagonal quintic
    assert open_report.transversal is True and open_report.complete
    mixed = parse_polynomial("s0^5+s1^5+s2^5+s3^5+s4^5+s0^2*s1^3", K5)
    report = verify_transversal(mixed, "user", not_singular)
    assert report.transversal is None and not report.complete


def test_inconclusive_search_is_flagged():
    mixed = parse_polynomial("s0^5+s1^5+s2^5+s3^5+s4^5+s0^2*s1^3", K5)
    report = verify_transversal(mixed, "ansatz")
    assert report.transversal is None
    assert not report.complete
    assert report.rays == ()


def test_rejects_an_unknown_source_and_points_of_another_source():
    with pytest.raises(GsvInputError, match="unknown candidate source 'nope'"):
        verify_transversal(DWORK, "nope")
    for source in ("ansatz", "float"):
        with pytest.raises(GsvInputError, match=f"apply only to source 'user', not '{source}'"):
            verify_transversal(DWORK, source, points=[(K5.one,) * 5])


def test_rejects_non_quintic_input():
    with pytest.raises(GsvInputError):
        verify_transversal(parse_polynomial("s0^4+s1^4+s2^4+s3^4+s4^4", K5),
                           "ansatz")


def test_normalize_ray():
    z = K5.zeta()
    ray = normalize_ray([K5.zero, z ** 3, K5.one])
    assert ray[0].is_zero() and ray[1] == K5.one and ray[2] == z ** -3
    with pytest.raises(GsvInputError, match="^the origin does not define a ray$"):
        normalize_ray([K5.zero] * 5)


def test_search_rejects_a_polynomial_in_four_variables():
    g = parse_polynomial("s0^5+s1^5+s2^5+s3^5", K5, variables=("s0", "s1", "s2", "s3"))
    with pytest.raises(GsvInputError,
                       match="^expected a polynomial in the five variables s0..s4$"):
        verify_transversal(g)


K5_ELEMENTS = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                       min_size=4, max_size=4).map(K5.element)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(K5.zero), st.just(K5.one), K5_ELEMENTS),
                min_size=5, max_size=5).filter(lambda pt: any(pt)))
def test_normalize_ray_shortcut_matches_general_path(point):
    # a lead of exactly 1 returns the point as it is; dividing by it must agree
    lead = next(c for c in point if not c.is_zero())
    general = tuple(c * lead.inverse() for c in point)
    assert normalize_ray(point) == general
    assert normalize_ray(general) == general


# -- exponent-bin scan against the exact evaluator ---------------------------------

QUINTIC_EXPONENTS = sorted(
    tuple(combo.count(i) for i in range(5))
    for combo in combinations_with_replacement(range(5), 5))


@st.composite
def sparse_quintics(draw):
    """A few random terms, optionally on top of a Dwork-like quintic so that
    phase cancellations (and hence grid survivors) actually occur."""
    k = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 10)))
    field = CyclotomicField(k)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    phase = st.integers(0, k - 1)
    terms = {}
    dwork = draw(st.booleans())
    if dwork:
        for i in range(5):
            terms[tuple(5 if j == i else 0 for j in range(5))] = field.one
        terms[(1,) * 5] = field.zeta_power(draw(phase)) * -5
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)) if dwork else st.integers(1, 3))):
        exp = draw(st.sampled_from(QUINTIC_EXPONENTS))
        coeff = field.element(draw(rational))
        if draw(st.booleans()):
            coeff = coeff * field.zeta_power(draw(phase))
        terms[exp] = coeff
    g = Polynomial(field, FERMAT.variables, terms)
    if g.is_zero():
        g = Polynomial(field, g.variables, {(5, 0, 0, 0, 0): field.one})
    return g


def grid(field, phases):
    """The normalized ansatz grid with nonzero coordinates in zeta^phases."""
    choices = [field.zero] + [field.zeta_power(a) for a in phases]
    for lead in range(5):
        for tail in product(choices, repeat=4 - lead):
            yield (field.zero,) * lead + (field.one,) + tail


def test_grid_helper_is_the_ansatz_grid():
    assert list(grid(K5, range(5))) == list(ansatz_candidates(K5))


@pytest.mark.parametrize("k", (5, 10))
def test_grid_points_are_built_from_the_field_grid(k):
    # the scan's phase memo is keyed by id: every coordinate of a candidate
    # and of a grid zero is one of the field's own grid objects
    field = CyclotomicField(k)
    ids = set(map(id, field.grid))
    assert all(ids >= set(map(id, pt)) for pt in ansatz_candidates(field))
    zeros = singular._GridScan(parse_polynomial(dwork_psi(0, k), field)).grid_zeros()
    assert len(zeros) == 125 and all(ids >= set(map(id, pt)) for pt in zeros)


@settings(max_examples=40, deadline=None)
@given(sparse_quintics(), st.data())
def test_grid_scan_matches_exact_evaluation(g, data):
    # the whole grid up to k = 5; above that the exact oracle is too slow for
    # 16,105 points, so the nonzero phases are 0 and two drawn others
    field = g.field
    k = field.order
    phases = range(k)
    if k > 5:
        phases = [0] + data.draw(st.lists(st.integers(1, k - 1), min_size=2,
                                          max_size=2, unique=True))
    # off the grid unless -1 or 2 is a k-th root of unity: the Cyclo fallback
    off = [(field.one, field.element(-1), field.zero, field.zero, field.zero),
           (field.element(2),) * 5,
           (field.one, field.element(Fraction(1, 2)), field.one, field.zero, field.zero)]
    candidates = list(grid(field, phases)) + off
    assert list(filter(singular._GridScan(g).vanishes, candidates)) == [
        pt for pt in candidates if all(d.evaluate(pt).is_zero() for d in g.gradient())]


def test_grid_scan_falls_back_off_the_grid():
    # 2 and 1/2 are not roots of unity, so these take the Cyclo evaluator
    off = (K5.element(2),) * 5
    half = (K5.one, K5.element(Fraction(1, 2)), K5.zero, K5.zero, K5.zero)
    on = (K5.one,) * 5
    assert list(filter(singular._GridScan(DWORK).vanishes, [off, half, on])) == [off, on]
    for wrong in (on[:4], on + (K5.one,)):
        with pytest.raises(GsvInputError, match="coordinates, expected 5"):
            singular._GridScan(DWORK).vanishes(wrong)


def test_grid_scans_take_no_cyclo_evaluation_on_the_grid(monkeypatch):
    def evaluate(self, point):
        raise AssertionError("grid point sent to Polynomial.evaluate")

    monkeypatch.setattr(Polynomial, "evaluate", evaluate)
    nodes = list(filter(singular._GridScan(DWORK).vanishes, ansatz_candidates(K5)))
    assert len(nodes) == 125
    assert singular._GridScan(DWORK).grid_zeros() == nodes


# -- pattern-by-pattern solve against the per-point filter ---------------------------


def point_filter(g):
    scan = singular._GridScan(g)
    return [pt for pt in ansatz_candidates(g.field) if scan.vanishes(pt)]


@settings(max_examples=40, deadline=None)
@given(sparse_quintics().filter(lambda g: g.field.order <= 8))
def test_grid_zeros_match_the_per_point_filter(g):
    assert singular._GridScan(g).grid_zeros() == point_filter(g)


def dwork_psi(c: int, k: int) -> str:
    """The Dwork quintic with psi = zeta_5^c, written in zeta = zeta_k."""
    return f"s0^5+s1^5+s2^5+s3^5+s4^5-5*zeta^{c * k // 5}*s0*s1*s2*s3*s4"


@pytest.mark.parametrize("text,k,hits", [
    ("s0^3*s1^2-s2^3*s3^2", 10, 485),
    ("s0^2*s2^3-2*s0*s1*s2^3+s1^2*s2^3", 10, 2795),
    # a component's k^2-bit mask memoized with the rows an earlier AND had
    # killed would lose hits here
    ("-s0*s1*s2*s3^2-s0*s2^2*s3*s4-s1^2*s2^3-2*s1*s2^3*s4-s2^3*s4^2", 2, 37),
    ("zeta*s0^2*s1*s4^2-s0^2*s2*s3^2+2*s0*s2*s3^2*s4+zeta*s1*s2^2*s3^2-s2*s3^2*s4^2", 4, 69),
    ((DATA / "fermat.poly").read_text(), 5, 0),
    ((DATA / "fermat.poly").read_text(), 10, 0),
    ((DATA / "degenerate.poly").read_text(), 5, 1),
    ((DATA / "degenerate.poly").read_text(), 10, 1),
    *((dwork_psi(c, k), k, 125) for k in (5, 10, 15, 20, 40) for c in range(5)),
], ids=["binomial-k10", "square-k10", "row-memo-k2", "row-memo-k4", "fermat-k5", "fermat-k10",
        "degenerate-k5", "degenerate-k10",
        *(f"dwork-psi{c}-k{k}" for k in (5, 10, 15, 20, 40) for c in range(5))])
def test_grid_zeros_on_named_quintics(text, k, hits):
    field = CyclotomicField(k)
    g = parse_polynomial(text, field)
    zeros = singular._GridScan(g).grid_zeros()
    assert len(zeros) == hits
    if k <= 15:
        assert zeros == point_filter(g)
    else:
        # the per-point filter would visit (k + 1)^4 points; the Dwork rays
        # are (1, w1, .., w4) with w_i^5 = 1 and w1*..*w4 = 1/psi, listed in
        # grid order; psi = zeta^e is read from the coefficient -5*psi
        psi = g.terms[(1,) * 5] * Fraction(-1, 5)
        e = next(a for a in range(k) if field.zeta_power(a) == psi)
        assert zeros == [(field.one, *map(field.zeta_power, a))
                         for a in product(range(0, k, k // 5), repeat=4)
                         if (sum(a) + e) % k == 0]


def test_ansatz_search_tests_rays_not_candidates(monkeypatch):
    # the 16,105 grid points at k = 10 are never visited one by one, and
    # classification does not ask the scan again about the rays grid_zeros
    # proved: no point test and no exact zero test runs after it returns
    calls, zero_tests = [], []
    real = {name: getattr(singular._GridScan, name)
            for name in ("vanishes", "_is_zero", "grid_zeros")}

    def vanishes(self, point):
        calls.append(point)
        return real["vanishes"](self, point)

    def is_zero(self, coeffs, exps):
        zero_tests.append(exps)
        return real["_is_zero"](self, coeffs, exps)

    def grid_zeros(self):
        zeros = real["grid_zeros"](self)
        zero_tests.clear()
        return zeros

    for name, wrapper in (("vanishes", vanishes), ("_is_zero", is_zero),
                          ("grid_zeros", grid_zeros)):
        monkeypatch.setattr(singular._GridScan, name, wrapper)
    g = parse_polynomial(dwork_psi(1, 10), CyclotomicField(10))
    rays = verify_transversal(g, "ansatz").rays
    assert len(rays) == 125
    assert calls == []
    assert zero_tests == []


def test_offgrid_quintic_ansatz_finds_one_ray():
    # data/offgrid16.poly is G = s0*B(s2) - s1*B(s3) + s0^5 + s1^5 with
    # B(x) = prod_{c=1..4} (x - c*s4), expanded: 16 nodes at (0, 0, a, b, 1),
    # a, b in 1..4.  The ansatz grid reaches only a = b = 1; pinned here until
    # the count is certified, not a claim that one ray is the answer
    g = parse_polynomial((DATA / "offgrid16.poly").read_text(), K5)
    report = verify_transversal(g, "ansatz")
    assert [coords(r) for r in report.rays] == [("0", "0", "1", "1", "1")]
    assert report.rays[0].corank == 0



@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_oracle_quintics_at_zeta_order_5(row):
    # only what the ansatz search soundly claims: each ray is a known point, a
    # node iff its tau is 1, and where the whole locus is on the grid, all of
    # it; on a positive-dimensional locus, no ray is a node
    g = parse_polynomial(row.text, K5)
    rays = verify_transversal(g, "ansatz").rays
    if not row.isolated:
        assert rays and all(ray.corank >= 1 for ray in rays)
        return
    known = {normalize_ray([parse_scalar(c, K5) for c in point]): tau
             for point, tau in row.points.items()}
    assert all(ray.representative in known for ray in rays)
    assert all((ray.corank == 0) == (known[ray.representative] == 1) for ray in rays)
    if row.grid:
        assert {ray.representative for ray in rays} == set(known)


# the quintics the zero-pattern certificate proves smooth; a data file is
# named by its file name
CERTIFIED = {"fermat", "chain", "fermat_s0_s4", "fermat.poly"}


@pytest.mark.parametrize("text,points,certified", [
    *(pytest.param(row.text, row.points, row.name in CERTIFIED, id=row.name) for row in ROWS),
    *(pytest.param(path.read_text(), None, path.name in CERTIFIED, id=path.name)
      for path in sorted(DATA.glob("*.poly")))])
def test_zero_pattern_certificate_holds_exactly_on_the_rows_it_proves(text, points, certified):
    # no open zero pattern certifies that dG = 0 only at the origin: it holds
    # on Fermat and the two rows added for it, never on a row with a known
    # singular point, and every source reports it as transversal and complete
    g = parse_polynomial(text, K5)
    if points is None:  # a data file: its oracle row is the one with the same G
        (points,) = [row.points for row in ROWS if parse_polynomial(row.text, K5) == g]
    assert (not singular._GridScan(g).open_patterns) is certified
    assert not (certified and points)
    if certified:
        for source in ("ansatz", "user"):
            report = verify_transversal(g, source)
            assert report.transversal is True and report.complete and not report.rays
    else:
        assert verify_transversal(g, "user").transversal is None


@pytest.mark.parametrize("g", [DWORK, CONE_FERMAT], ids=["dwork", "cone"])
@pytest.mark.parametrize("source", ["ansatz", "user"])
def test_one_grid_scan_per_search(monkeypatch, g, source):
    # the search, its node tests and its exact-rank fallback share one scan
    built = []

    class CountingScan(singular._GridScan):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(singular, "_GridScan", CountingScan)
    rays = verify_transversal(g, "ansatz").rays
    built.clear()
    points = [ray.representative for ray in rays] if source == "user" else []
    assert verify_transversal(g, source, points).rays == rays
    assert built == [g]


def reduce(h, p, omega):
    """The residues of the exact polynomial `h`, term by term, or None if
    some denominator is divisible by p."""
    terms = {e: c.residue(p, omega) for e, c in h.terms.items()}
    return None if None in terms.values() else terms


@pytest.mark.parametrize("k", [5, 10])
@pytest.mark.parametrize("text", [row.text for row in ROWS]
                         + [path.read_text() for path in sorted(DATA.glob("*.poly"))],
                         ids=[row.name for row in ROWS]
                         + [path.name for path in sorted(DATA.glob("*.poly"))])
def test_hessian_mod_p_is_read_off_the_image_of_g(text, k):
    # reduction mod p is a ring map, so the entries read off G's image equal
    # the exact Hessian reduced entry by entry
    g = parse_polynomial(text, CyclotomicField(k))
    p, omega, _, _, upper = singular._GridScan(g).mod_p
    hess = g.hessian()
    assert upper == {(i, j): reduce(hess[i][j], p, omega) for i in range(5) for j in range(i, 5)}


def test_oracle_offgrid16_is_the_data_file():
    (row,) = (row for row in ROWS if row.name == "offgrid16")
    assert parse_polynomial(row.text, K5) == parse_polynomial(
        (DATA / "offgrid16.poly").read_text(), K5)

# -- mod-p node certificate and its exact fallback ----------------------------------


@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=4, max_size=4),
       st.booleans())
def test_determinant_mod_p_is_nonzero_iff_rank_4(rows, dependent):
    # |det| <= 4! * 2^4, far below p, so the determinant mod p is 0 only when
    # it is 0; a last row equal to the sum of the first two forces that
    p, _ = residue_prime(5)
    if dependent:
        rows[3] = [a + b for a, b in zip(rows[0], rows[1])]
    assert (singular._det4(rows) % p != 0) == (minor_rank(rows) == 4)


def leibniz_det(m):
    total = 0
    for perm in permutations(range(len(m))):
        factors = [row[j] for row, j in zip(m, perm)]
        if all(factors):  # chart Hessians are sparse: skip the zero products
            total += (-1) ** sum(a > b for a, b in combinations(perm, 2)) * prod(factors)
    return total


def minor_rank(rows):
    """The rank oracle: the largest r with a nonzero r x r minor, each minor
    by the Leibniz formula."""
    m, n = len(rows), len(rows[0]) if rows else 0
    for r in range(min(m, n), 0, -1):
        for ri in combinations(range(m), r):
            for ci in combinations(range(n), r):
                if leibniz_det([[rows[i][j] for j in ci] for i in ri]):
                    return r
    return 0


FEW_FRACTIONS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]).map(Fraction)
SMALL_CYCLO = st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(K5.element)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.data())
def test_rank_matches_the_minor_oracle_on_fraction_matrices(m, n, data):
    rows = data.draw(st.lists(st.lists(FEW_FRACTIONS, min_size=n, max_size=n),
                              min_size=m, max_size=m))
    assert singular._rank(rows) == minor_rank(rows)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(SMALL_CYCLO, min_size=4, max_size=4), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), SMALL_CYCLO, SMALL_CYCLO),
                max_size=2),
       st.data())
def test_rank_matches_the_minor_oracle_on_cyclo_matrices_with_dependent_rows(base, mixes, data):
    # each added row is a * row_i + b * row_j of the base rows, so the rank
    # stays at most the base's row count
    rows = list(base)
    for i, j, a, b in mixes:
        rows.append([a * x + b * y for x, y in zip(base[i % len(base)], base[j % len(base)])])
    rows = data.draw(st.permutations(rows))
    assert singular._rank(rows) == minor_rank(rows) <= len(base)


def counting_rank(monkeypatch):
    calls = []
    real = singular._rank

    def rank(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(singular, "_rank", rank)
    return calls


def chart_hessian(g, pt):
    chart = next(i for i, c in enumerate(pt) if not c.is_zero())
    idx = [i for i in range(5) if i != chart]
    hess = g.hessian()
    return [[hess[i][j].evaluate(pt) for j in idx] for i in idx]


@settings(max_examples=30, deadline=None)
@given(sparse_quintics())
def test_node_test_matches_the_exact_rank(g):
    # the mod-p determinant decides nothing the exact rank would not
    for ray in verify_transversal(g, "ansatz").rays:
        rank = minor_rank(chart_hessian(g, ray.representative))
        assert ray.corank == 4 - rank


def test_nodes_are_certified_mod_p(monkeypatch):
    calls = counting_rank(monkeypatch)
    assert classify(ONE_NODE, [K5.zero] * 4 + [K5.one]) == 0
    assert calls == []


@pytest.mark.parametrize("text", [
    "s0^3*s1^2+s1^5+s2^5+s3^5+s4^5",
    "s0^5+s1^5+s2^5+s3^5",
    "s4^3*s0^2+s4^3*s1^2+s0^5+s1^5+s2^5+s3^5",
    "s4^3*s0^2+s4^3*s1^2+s4^3*s2^2+s4^2*s3^3+s0^5+s1^5+s2^5+s3^5",  # corank 1
])
def test_non_node_corank_comes_from_exact_rank(monkeypatch, text):
    g = parse_polynomial(text, K5)
    rays = verify_transversal(g, "ansatz").rays
    assert rays
    calls = counting_rank(monkeypatch)
    for ray in rays:
        pt = ray.representative
        assert classify(g, pt) == ray.corank == 4 - minor_rank(chart_hessian(g, pt)) > 0
    assert len(calls) == len(rays)


def test_denominator_divisible_by_p_takes_exact_path(monkeypatch):
    p, _ = residue_prime(5)
    text = "s4^3*s0^2+s4^3*s1^2+s4^3*s2^2+s4^3*s3^2+s0^5+s1^5+s2^5+s3^5"
    g = parse_polynomial(f"1/{p}*" + text, K5)
    ray = [K5.zero] * 4 + [K5.one]
    calls = counting_rank(monkeypatch)
    assert classify(g, ray) == classify(ONE_NODE, ray)
    assert len(calls) == 1
    rays = verify_transversal(g, "ansatz").rays
    assert rays == verify_transversal(ONE_NODE, "ansatz").rays


def substitute(g, forms):
    """g with each s_i replaced by the linear form of integer coefficients
    forms[i], expanded."""
    total = {}
    for exp, coeff in g.terms.items():
        term = {(0,) * 5: coeff}
        for form, e in zip(forms, exp):
            for _ in range(e):
                grown = {}
                for mono, c in term.items():
                    for j, a in enumerate(form):
                        if a:
                            key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                            grown[key] = grown.get(key, 0) + c * a
                term = grown
        for mono, c in term.items():
            total[mono] = total.get(mono, 0) + c
    return Polynomial(g.field, g.variables, total)


def test_off_grid_user_point_without_a_residue_takes_exact_path(monkeypatch):
    # s_i -> s_i + (1 - p)*s1 (i != 1) has determinant 1 and maps the ray of
    # (1, 1/p, 1, 1, 1) onto Dwork's grid node (1, 1, 1, 1, 1); 1/p has no
    # residue mod p, so the node test must leave that ray to the exact rank
    p, _ = residue_prime(5)
    forms = [[int(i == j) + (1 - p) * (j == 1 and i != 1) for j in range(5)] for i in range(5)]
    g = substitute(DWORK, forms)
    twin = classify(DWORK, (K5.one,) * 5)
    calls = counting_rank(monkeypatch)
    point = tuple(map(K5.element, (1, Fraction(1, p), 1, 1, 1)))
    report = verify_transversal(g, "user", [point])
    assert [r.representative for r in report.rays] == [point]
    assert [r.corank for r in report.rays] == [twin] == [0]
    assert len(calls) == 1


def test_reports_are_immutable():
    report = verify_transversal(ONE_NODE, "ansatz")
    for record, name in ((report, "complete"), (report.rays[0], "corank")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@given(st.lists(st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2), (0, 1), (2, 0, 1),
                                          (Fraction(-1, 3), 1)]),
                         min_size=5, max_size=5), max_size=12))
def test_rank_keys_sort_like_coefficient_tuples(rows):
    # equal values as distinct objects, as user candidates are
    points = [tuple(K5.element(v) for v in row) for row in rows]
    keyed = singular._by_coords(points)
    assert [pt for _, pt in keyed] == sorted(points, key=lambda p: [c.coeffs for c in p])
    for key_a, a in keyed:
        for key_b, b in keyed:
            assert (key_a == key_b) == (a == b)
