"""Mayer-Vietoris engine, the node partition, and the Kahler check."""

import random

import pytest
from hypothesis import given, strategies as st

from gsvkit.cohomology import ConifoldData, GradedSpace, cohomology_report, mayer_vietoris
from gsvkit.errors import ExactnessError, GsvInputError, MalformedIncidenceError


def base_space(b2=1, b3=103, n_classes=1):
    # consistent base: dim H^4 = dim H^2 + N
    return GradedSpace((1, 0, b2, b3, b2 + n_classes, 0, 1))


def single_class_data(n, b2=1, b3=103):
    return ConifoldData(base_space(b2, b3, 1), n, [list(range(1, n + 1))])


# -- independent oracles ---------------------------------------------------------

def raw_mv_oracle(piece_a, piece_b, n):
    """Walk the long exact sequence degree by degree.

    The intersection is n points, so every connecting map above degree 0
    is flanked by zeros and each H^q just adds up; the degree-0 block is a
    four-term sequence whose alternating ranks must cancel.
    """
    dims = [0] * 7
    for q in range(2, 7):
        dims[q] = piece_a.dims[q] + piece_b.dims[q]
    dims[1] = piece_a.dims[1] + piece_b.dims[1]
    # 0 -> H^0(U) -> H^0(A)+H^0(B) -> C^n -> 0 once the comparison map is onto
    dims[0] = piece_a.dims[0] + piece_b.dims[0] - n
    assert dims[0] - (piece_a.dims[0] + piece_b.dims[0]) + n == 0
    return tuple(dims)


def closure_oracle(data):
    """Raw count followed by collapsing the sphere classes of each 4-cycle class."""
    raw = raw_mv_oracle(data.base, GradedSpace((data.n, 0, data.n, 0, 0, 0, 0)), data.n)
    label = {j: k for k, members in enumerate(data.classes) for j in members}
    distinct_labels = len({label[j] for j in range(1, data.n + 1)})
    out = list(raw)
    out[2] -= data.n - distinct_labels
    return tuple(out)


# -- mayer_vietoris ---------------------------------------------------------------

def test_raw_example():
    n = 16
    data = single_class_data(n)
    result = mayer_vietoris(data)
    assert result.dims == (1, 0, 1 + n, 103, 2, 0, 1)
    assert result.dims == raw_mv_oracle(data.base, GradedSpace((n, 0, n, 0, 0, 0, 0)), n)


def test_refined_single_class():
    data = single_class_data(16)
    result = mayer_vietoris(data, "refined")
    assert result.dims[2] == data.base.dims[2] + 1


def test_empty_gluing_is_identity():
    base = GradedSpace((1, 0, 1, 103, 2, 0, 1))
    data = ConifoldData(base, 0, [])
    assert mayer_vietoris(data).dims == base.dims
    assert mayer_vietoris(data, "refined").dims == base.dims


def test_exactness_violations():
    # an empty base leaves the union no degree-0 class
    data = ConifoldData(GradedSpace((0, 0, 1, 10, 2, 0, 1)), 2, [[1, 2]])
    for mode in ("raw", "refined"):
        with pytest.raises(ExactnessError, match="union would be empty"):
            mayer_vietoris(data, mode)
    with pytest.raises(GsvInputError, match="unknown mode 'both'"):
        mayer_vietoris(single_class_data(3), "both")


def test_report_rejects_unknown_mode():
    with pytest.raises(GsvInputError, match="unknown mode 'both'"):
        cohomology_report(single_class_data(3), "both")


# -- the node partition ----------------------------------------------------------

def test_malformed_incidence():
    base = base_space()
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [[1, 1], [2]])  # node listed twice
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [[1, 2], []])  # empty class
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [[1, 2], [2]])  # node in two classes
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [[1]])  # node 2 unassigned
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [[1], [2, 3]])  # index outside 1..n
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [[0, 1], [2]])  # index outside 1..n
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, -1, [])  # negative node count
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [1, 2])  # classes must be lists
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, [["1", "2"]])  # of integers


# -- closure cohomology -----------------------------------------------------------

def test_closure_single_class_example():
    data = single_class_data(16)
    result = mayer_vietoris(data, "refined")
    assert result.dims == (1, 0, 2, 103, 2, 0, 1)
    assert result.dims == closure_oracle(data)


def test_closure_n0_identity():
    base = GradedSpace((1, 0, 1, 204, 1, 0, 1))
    data = ConifoldData(base, 0, [])
    assert mayer_vietoris(data, "refined").dims == base.dims


def test_closure_two_classes():
    base = GradedSpace((1, 0, 1, 103, 3, 0, 1))  # N = 2 consistent base
    data = ConifoldData(base, 5, [[1, 2, 3], [4, 5]])
    result = mayer_vietoris(data, "refined")
    assert result.dims == (1, 0, 3, 103, 3, 0, 1)
    assert result.dims == closure_oracle(data)


def test_closure_propagates_hodge():
    base = GradedSpace((1, 0, 1, 4, 2, 0, 1),
                       hodge={(0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 1,
                              (2, 1): 2, (1, 2): 2})
    data = ConifoldData(base, 4, [[1, 2, 3, 4]])
    result = mayer_vietoris(data, "refined")
    assert result.hodge[(1, 1)] == 2
    assert result.dims[2] == sum(v for (p, q), v in result.hodge.items() if p + q == 2)
    assert mayer_vietoris(data).hodge is None  # the raw count has no Hodge splitting


def test_randomized_closure_against_oracle():
    rng = random.Random(777)
    for _ in range(60):
        n = rng.randint(1, 50)
        n_classes = rng.randint(1, n)
        assignment = list(range(1, n_classes + 1)) + [
            rng.randint(1, n_classes) for _ in range(n - n_classes)]
        rng.shuffle(assignment)
        classes = [[j + 1 for j, k in enumerate(assignment) if k == c]
                   for c in range(1, n_classes + 1)]
        base = base_space(rng.randint(1, 9), rng.randint(0, 200), n_classes)
        data = ConifoldData(base, n, classes)
        result = mayer_vietoris(data, "refined")
        assert result.dims == closure_oracle(data)
        assert result.dims[2] == base.dims[2] + n_classes
        # chi bookkeeping, both modes
        raw = mayer_vietoris(data)
        assert raw.euler() == base.euler() + n
        assert result.euler() == base.euler() + n_classes


# -- Kahler package ----------------------------------------------------------------

def test_kahler_passes_on_consistent_closure():
    kahler = cohomology_report(single_class_data(16))["kahler"]
    assert kahler["h0_equals_h6"] and kahler["h2_equals_h4"]
    assert kahler["pairing_nondegenerate"]
    assert kahler["passed"]
    assert kahler["warnings"] == []


def test_kahler_fails_on_unbalanced_h2():
    base = GradedSpace((1, 0, 2, 103, 2, 0, 1))  # H^4 != H^2 + N
    data = ConifoldData(base, 16, [list(range(1, 17))])
    for mode in ("raw", "refined"):
        kahler = cohomology_report(data, mode)["kahler"]
        assert not kahler["h2_equals_h4"]
        assert not kahler["passed"]


def test_kahler_smooth_base():
    base = GradedSpace((1, 0, 1, 204, 1, 0, 1))
    data = ConifoldData(base, 0, [])
    assert cohomology_report(data)["kahler"]["passed"]


def test_kahler_warns_on_inconsistent_base():
    base = GradedSpace((1, 0, 1, 10, 5, 0, 1))  # H^4 != H^2 + N
    data = ConifoldData(base, 2, [[1, 2]])
    assert cohomology_report(data)["kahler"]["warnings"]


@given(st.integers(0, 30), st.sampled_from(("raw", "refined")), st.data())
def test_kahler_iii_reduces_to_balanced_h2(n, mode, draws):
    """For any base and valid partition, (iii) holds exactly when
    dim H^2 = dim H^4 >= N, so it agrees with (ii)."""
    n_classes = draws.draw(st.integers(1, n)) if n else 0
    assignment = list(range(1, n_classes + 1)) + [
        draws.draw(st.integers(1, n_classes)) for _ in range(n - n_classes)]
    assignment = draws.draw(st.permutations(assignment))
    classes = [[j + 1 for j, k in enumerate(assignment) if k == c]
               for c in range(1, n_classes + 1)]
    base = draws.draw(st.lists(st.integers(0, n + 3), min_size=7, max_size=7))
    base[0] = max(base[0], 1)
    h2 = base[2] + (n if mode == "raw" else n_classes)
    if draws.draw(st.booleans()):
        base[4] = h2
    h0, h4, h6 = base[0], base[4], base[6]
    data = ConifoldData(GradedSpace(tuple(base)), n, classes)
    kahler = cohomology_report(data, mode)["kahler"]
    assert kahler["pairing_nondegenerate"] == (h2 == h4 and h2 >= n_classes)
    assert kahler["passed"] == (h0 == h6 and h2 == h4)


# -- GradedSpace validation -------------------------------------------------------

def test_graded_space_validation():
    with pytest.raises(GsvInputError):
        GradedSpace((1, 0, 1))
    with pytest.raises(GsvInputError):
        GradedSpace((1, 0, -1, 0, 0, 0, 0))
    with pytest.raises(GsvInputError):
        GradedSpace((1, 0, 1, 0, 0, 0, 0), hodge={(1, 1): 2})
    with pytest.raises(GsvInputError):
        GradedSpace((1, 0, 0, 0, 0, 0, 0), hodge={(0, 0): 1, (4, 3): 0})
    with pytest.raises(GsvInputError):
        GradedSpace((1, 0, 0, 0, 0, 0, 0), hodge={(0, 0): 1, (-1, 1): 0})


def test_conifold_json_roundtrip():
    data = ConifoldData(base_space(n_classes=2), 3, [[3], [2, 1]])
    assert data.classes == ((3,), (1, 2))  # members ascending, class order kept
    assert data.n_classes == 2
    obj = {"base_dims": [1, 0, 1, 103, 3, 0, 1], "n": 3, "classes": [[3], [2, 1]]}
    assert ConifoldData.from_json_dict(obj) == data


def test_conifold_json_roundtrip_with_hodge():
    base = GradedSpace((1, 0, 1, 4, 2, 0, 1),
                       hodge={(0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 1,
                              (2, 1): 2, (1, 2): 2})
    data = ConifoldData(base, 2, [[1, 2]])
    back = ConifoldData.from_json_dict({
        "base_dims": [1, 0, 1, 4, 2, 0, 1], "n": 2, "classes": [[2, 1]],
        "base_hodge": {"0,0": 1, "1,1": 1, "2,2": 2, "3,3": 1, "2,1": 2, "1,2": 2}})
    assert back == data
    assert back.base.hodge[(2, 2)] == 2


def test_validated_records_are_immutable_values():
    data = ConifoldData(base_space(n_classes=2), 3, [[3], [2, 1]])
    same = ConifoldData(base_space(n_classes=2), 3, [[3], [1, 2]])
    assert same == data and hash(same) == hash(data)
    assert hash(data.base) == hash(base_space(n_classes=2))
    assert data != ConifoldData(base_space(n_classes=2), 3, [[1, 2], [3]])
    for value, name in ((data, "n"), (data, "classes"), (data.base, "dims")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            setattr(value, "extra", 1)


@given(st.integers(1, 40), st.data())
def test_report_discrepancy(n, draws):
    n_classes = draws.draw(st.integers(1, n))
    assignment = list(range(1, n_classes + 1)) + [
        draws.draw(st.integers(1, n_classes)) for _ in range(n - n_classes)]
    classes = [[j + 1 for j, k in enumerate(assignment) if k == c]
               for c in range(1, n_classes + 1)]
    data = ConifoldData(base_space(2, 11, n_classes), n, classes)
    report = cohomology_report(data)
    assert report["discrepancy"] == n - n_classes
    assert report["euler_raw"] == report["euler_base"] + n
    assert report["euler_refined"] == report["euler_base"] + n_classes
