"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Oracles here are deliberately independent of the production code
paths they check: hand-written gradients, exponent arithmetic with a
rank-based zero test, and a raw-count-then-collapse recount of the
refined cohomology.
"""

import io
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from gsvkit.cli import main as cli_main
from gsvkit.cohomology import ConifoldData, GradedSpace, cohomology_report, mayer_vietoris
from gsvkit.cyclo import CyclotomicField
from gsvkit.poly import parse_polynomial
from gsvkit.resolutions import build_transition_graph
from gsvkit.singular import SingularRay, TransversalityReport, verify_transversal
from gsvkit.strata import StratumKind, build_exocurve, build_ground_state_variety

K5 = CyclotomicField(5)
FERMAT = "s0^5+s1^5+s2^5+s3^5+s4^5"
DWORK = "s0^5+s1^5+s2^5+s3^5+s4^5-5*s0*s1*s2*s3*s4"


def ok(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def random_conifold(rng, max_nodes=50):
    n = rng.randint(1, max_nodes)
    n_classes = rng.randint(1, n)
    assignment = list(range(1, n_classes + 1))
    assignment += [rng.randint(1, n_classes) for _ in range(n - n_classes)]
    rng.shuffle(assignment)
    classes = [[j + 1 for j, k in enumerate(assignment) if k == c]
               for c in range(1, n_classes + 1)]
    b2 = rng.randint(1, 8)
    base = GradedSpace((1, 0, b2, rng.randint(0, 250), b2 + n_classes, 0, 1))
    return ConifoldData(base, n, classes)


def test_criterion_1_transversal_case():
    start = time.perf_counter()
    g = parse_polynomial(FERMAT, K5)
    report = verify_transversal(g, "ansatz")
    assert report.transversal is True and report.complete
    positive = build_ground_state_variety(report, "pos")
    assert [s.kind for s in positive.strata] == [StratumKind.SMOOTH_CY]
    negative = build_ground_state_variety(report, "neg")
    assert [s.kind for s in negative.strata] == [StratumKind.FUZZY_POINT]
    assert negative.strata[0].orbifold_group == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"transversal pipeline took {elapsed:.2f}s"
    ok(1, "transversal case, both sheets")


def test_criterion_2_dwork_node_oracle():
    start = time.perf_counter()
    g = parse_polynomial(DWORK, K5)
    rays = verify_transversal(g, "ansatz").rays
    assert len(rays) == 125
    assert all(r.corank == 0 for r in rays)

    # Independent oracle over all 6^5 grid points.  Coordinates are encoded
    # as None (zero) or an exponent a (value zeta^a); the Dwork gradient is
    # written out by hand, and the zero test in Q(zeta_5) uses the fact that
    # sum_a c_a zeta^a = 0 exactly when all five c_a agree.
    def gradient_vanishes(code):
        for i in range(5):
            acc = [0] * 5
            if code[i] is not None:
                acc[(4 * code[i]) % 5] += 5          # 5 s_i^4
            others = [code[j] for j in range(5) if j != i]
            if all(e is not None for e in others):
                acc[sum(others) % 5] -= 5            # -5 prod_{j != i} s_j
            if len(set(acc)) != 1:
                return False
        return True

    solutions = set()
    for code in itertools.product([None, 0, 1, 2, 3, 4], repeat=5):
        if all(e is None for e in code):
            continue
        if gradient_vanishes(code):
            lead = next(e for e in code if e is not None)
            normalized = tuple(None if e is None else (e - lead) % 5 for e in code)
            solutions.add(normalized)
    assert len(solutions) == 125

    # the production rays are exactly the oracle's solutions
    def encode(ray):
        out = []
        for c in ray.representative:
            if c.is_zero():
                out.append(None)
            else:
                out.append(next(a for a in range(5) if c == K5.zeta_power(a)))
        return tuple(out)

    assert {encode(r) for r in rays} == solutions

    # independent Hessian-rank check at the representative (1,1,1,1,1):
    # chart Hessian is 25*I - 5*J on the remaining four coordinates, and
    # det(25*I - 5*J) = 5 * 25^3 by the rank-one update, so rank 4.
    matrix = [[Fraction(20 if i == j else -5) for j in range(4)] for i in range(4)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j, entry in enumerate(m[0]):
            if entry:
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * entry * det(minor)
        return total

    assert det(matrix) == 5 * 25 ** 3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"Dwork analysis took {elapsed:.2f}s"
    ok(2, "Dwork psi=1: 125 nodes vs brute-force oracle")


@pytest.mark.parametrize("n", [1, 2, 5, 125])
def test_criterion_3_stratification_structure(n):
    rays = tuple(SingularRay((K5.one,) * 5, 0) for _ in range(n))
    report = TransversalityReport(rays, "synthetic", True)

    positive = build_ground_state_variety(report, "pos")
    assert len(positive.strata) == 1 + 2 * n
    assert positive.connected_components == 1
    kinds = [s.kind for s in positive.strata]
    assert kinds[0] is StratumKind.MAIN_CONIFOLD
    assert kinds.count(StratumKind.EXOCURVE) == n
    assert kinds.count(StratumKind.NODE_POINT) == n
    # attachment forest Main - Node_j - Exocurve_j, connected: 2n edges on
    # 1+2n vertices touching every vertex, with node points of degree 2
    assert len(positive.attachments) == 2 * n
    degree = {}
    for i, j, _ in positive.attachments:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    assert degree.get(0, 0) == n
    for idx, stratum in enumerate(positive.strata):
        if stratum.kind is StratumKind.NODE_POINT:
            assert degree[idx] == 2
        if stratum.kind is StratumKind.EXOCURVE:
            assert degree[idx] == 1
    assert set(degree) == set(range(1 + 2 * n))

    negative = build_ground_state_variety(report, "neg")
    assert len(negative.strata) == 1 + n
    assert negative.strata[0].kind is StratumKind.FUZZY_POINT
    assert len(negative.attachments) == n
    assert all(a[0] == 0 for a in negative.attachments)
    assert {a[1] for a in negative.attachments} == set(range(1, n + 1))
    if n == 125:
        ok(3, "stratification structure over n in {1,2,5,125}")


def test_criterion_4_exocurve_charts():
    positive = build_exocurve("positive")
    assert [c.name for c in positive if c.proper] == ["U_s"]
    assert all(c.orbifold_group_order == 1 for c in positive)
    negative = build_exocurve("negative")
    proper = [c for c in negative if c.proper]
    assert [c.name for c in proper] == ["U_p"]
    assert proper[0].orbifold_group_order == 5
    ok(4, "exocurve charts: U_s proper for r > 0, U_p proper with Z_5 for r < 0")


def _closure_oracle(data):
    """Independent recount: raw long-exact-sequence totals, then collapse the
    degree-2 sphere block by the number of distinct class labels of the nodes."""
    dims = [data.base.dims[0] + data.n - data.n,
            data.base.dims[1]]
    dims += [data.base.dims[q] + (data.n, 0, data.n, 0, 0, 0, 0)[q] for q in range(2, 7)]
    label = {j: k for k, members in enumerate(data.classes) for j in members}
    dims[2] -= data.n - len({label[j] for j in range(1, data.n + 1)})
    return tuple(dims)


def test_criterion_6_closure_cohomology():
    rng = random.Random(1203)
    for _ in range(200):
        data = random_conifold(rng)
        result = mayer_vietoris(data, "refined")
        assert result.dims == _closure_oracle(data)
        for q in range(7):
            if q == 2:
                assert result.dims[2] == data.base.dims[2] + data.n_classes
            else:
                assert result.dims[q] == data.base.dims[q]
    ok(6, "closure cohomology vs raw-MV + row-collapse oracle (200 instances)")


def test_criterion_7_exactness_arithmetic():
    rng = random.Random(77)
    saw_discrepancy = False
    for _ in range(200):
        data = random_conifold(rng)
        raw = mayer_vietoris(data)
        refined = mayer_vietoris(data, "refined")
        assert raw.euler() == data.base.euler() + data.n
        assert refined.euler() == data.base.euler() + data.n_classes
        report = cohomology_report(data)
        assert report["discrepancy"] == data.n - data.n_classes
        if data.n != data.n_classes:
            saw_discrepancy = True
            assert report["discrepancy"] != 0
    assert saw_discrepancy
    ok(7, "chi bookkeeping raw/refined and n-N discrepancy")


def test_criterion_8_kahler_package():
    rng = random.Random(88)
    for _ in range(100):
        data = random_conifold(rng)  # built with dim H^4 = dim H^2 + N
        kahler = cohomology_report(data)["kahler"]
        assert kahler["h0_equals_h6"]
        assert kahler["h2_equals_h4"]
        assert kahler["pairing_nondegenerate"]
        assert kahler["passed"] and not kahler["warnings"]
    # an unbalanced base: dim H^4 = 2 but dim H^2 + N = 3
    violating = ConifoldData(
        GradedSpace((1, 0, 2, 10, 2, 0, 1)), 4, [[1, 2, 3, 4]])
    for mode in ("raw", "refined"):
        kahler = cohomology_report(violating, mode)["kahler"]
        assert not kahler["h2_equals_h4"]
        assert not kahler["passed"]
        assert kahler["warnings"]
    ok(8, "Kahler package on even degrees")


def _written_graph(data):
    """The transition graph of data as its writer writes it in JSON, parsed back."""
    out = io.StringIO()
    build_transition_graph(data).write(json_file=out)
    return json.loads(out.getvalue())


def test_criterion_9_resolutions():
    start = time.perf_counter()
    for n_classes in range(0, 11):
        base = GradedSpace((1, 0, 1, 2, 1 + n_classes, 0, 1))
        data = ConifoldData(base, n_classes, [[k] for k in range(1, n_classes + 1)])
        graph = _written_graph(data)
        if n_classes == 0:
            # nothing to resolve
            assert [v["name"] for v in graph["vertices"]] == ["M_flat=V_bar"]
            continue
        resolutions = [v for v in graph["vertices"] if v["kind"] == "resolution"]
        orientations = list(itertools.product((0, 1), repeat=n_classes))
        assert [tuple(v["orientation"]) for v in resolutions] == orientations
        assert [v["name"] for v in resolutions] == [
            f"M_nat_{i}" for i in range(1, 2 ** n_classes + 1)]
        # every resolution has, for each class k, exactly one flop edge, and it
        # joins the orientation that differs in class k only
        by_name = {v["name"]: tuple(v["orientation"]) for v in resolutions}
        flops = Counter(frozenset((by_name[e["source"]], by_name[e["target"]]))
                        for e in graph["edges"] if e["label"] == "flop")
        for bits in orientations:
            for k in range(n_classes):
                flipped = bits[:k] + (1 - bits[k],) + bits[k + 1:]
                assert flops[frozenset((bits, flipped))] == 1
        assert sum(flops.values()) == n_classes * 2 ** (n_classes - 1)

    base = GradedSpace((1, 0, 1, 2, 2, 0, 1))
    data = ConifoldData(base, 3, [[1, 2, 3]])
    graph = _written_graph(data)
    assert [v["name"] for v in graph["vertices"]] == ["M_flat", "V_bar", "M_nat_1", "M_nat_2"]
    assert {(e["source"], e["target"], e["label"]) for e in graph["edges"]} == {
        ("M_flat", "V_bar", "defo"),
        ("V_bar", "M_nat_1", "exoflop"),
        ("V_bar", "M_nat_2", "exoflop"),
        ("M_nat_1", "M_nat_2", "flop"),
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"resolution enumeration took {elapsed:.2f}s"
    ok(9, "2^N resolutions, one flop per class, flopped-pair diagram")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    conifold = tmp_path / "conifold.json"
    conifold.write_text(json.dumps({
        "base_dims": [1, 0, 1, 103, 3, 0, 1],
        "n": 5,
        "classes": [[1, 2, 3], [4, 5]],
    }))
    report_path = tmp_path / "report.json"
    assert cli_main(["analyze", DWORK, "--format", "json",
                     "--output", str(report_path)]) == 0
    capsys.readouterr()
    commands = [
        ["analyze", FERMAT, "--format", "json"],
        ["analyze", DWORK, "--format", "json"],
        ["stratify", str(report_path), "--sheet", "pos", "--format", "json"],
        ["stratify", str(report_path), "--sheet", "neg", "--format", "json"],
        ["cohomology", str(conifold), "--format", "json"],
        ["resolutions", str(conifold), "--format", "json"],
    ]
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode(), f"nondeterministic: {argv}"
        json.loads(first)
    ok(10, "byte-identical JSON across repeat CLI runs")
