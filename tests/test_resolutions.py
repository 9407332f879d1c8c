"""Small resolution enumeration and the transition graph."""

import hashlib
import io
import itertools
import json
import sys
from collections import Counter
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gsvkit.cohomology import ConifoldData, GradedSpace
from gsvkit.errors import MalformedIncidenceError, ResourceLimitError
from gsvkit.resolutions import (DECIMAL_POW2_MAX, MAX_CLASSES, TransitionGraph,
                                build_transition_graph)


def data_with_classes(n_classes, nodes_per_class=1, b3=10):
    n = n_classes * nodes_per_class
    classes = [list(range(k * nodes_per_class + 1, (k + 1) * nodes_per_class + 1))
               for k in range(n_classes)]
    base = GradedSpace((1, 0, 1, b3, 1 + n_classes, 0, 1))
    return ConifoldData(base, n, classes)


def smooth_data():
    return ConifoldData(GradedSpace((1, 0, 1, 204, 1, 0, 1)), 0, [])


def resolutions(graph):
    return [v for v in graph.vertices if v.kind == "resolution"]


@lru_cache(maxsize=None)
def flop_pairs(n_classes):
    """The flop edges of the graph on N singleton classes, each as the set of
    its endpoints' orientations, counted with multiplicity."""
    graph = build_transition_graph(data_with_classes(n_classes))
    orientation = {v.name: v.orientation for v in resolutions(graph)}
    return Counter(frozenset((orientation[e.source], orientation[e.target]))
                   for e in graph.edges if e.label == "flop")


def flipped(bits, k):
    """The orientation that differs from `bits` in class k (1-based) only."""
    return bits[:k - 1] + (1 - bits[k - 1],) + bits[k:]


def test_counts():
    for n_classes in (1, 3):
        found = resolutions(build_transition_graph(data_with_classes(n_classes)))
        assert [v.orientation for v in found] == list(
            itertools.product((0, 1), repeat=n_classes))  # binary order
        assert [v.name for v in found] == [
            f"M_nat_{i}" for i in range(1, 2 ** n_classes + 1)]
    # with no nodes the variety is its own and only resolution
    assert build_transition_graph(smooth_data()).vertex_names() == ("M_flat=V_bar",)


def test_naive_count_reported_for_contrast():
    graph = build_transition_graph(data_with_classes(2, nodes_per_class=3))
    assert len(resolutions(graph)) == 4
    assert dict(graph.metadata)["compatible_resolutions"] == "4"
    assert dict(graph.metadata)["naive_per_node_resolutions"] == str(2 ** 6)


@pytest.mark.parametrize("n", [DECIMAL_POW2_MAX, DECIMAL_POW2_MAX + 1, 15000])
def test_naive_count_text_ignores_the_int_conversion_limit(n):
    # 2^15000 has 4,516 digits, over Python's default limit of 4,300 for
    # int-to-str conversion; the bound keeps the text the same at its lowest
    # setting, 640 digits, too.
    data = ConifoldData(GradedSpace((1, 0, 1, 2, 2, 0, 1)), n, [range(1, n + 1)])
    expected = str(2 ** n) if n <= DECIMAL_POW2_MAX else f"2^{n}"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        graph = build_transition_graph(data)
        assert dict(graph.metadata)["naive_per_node_resolutions"] == expected
        out = io.StringIO()
        graph.write_json(out)
        assert json.loads(out.getvalue())["metadata"]["naive_per_node_resolutions"] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_resource_bound():
    graph = build_transition_graph(data_with_classes(MAX_CLASSES))
    assert len(graph.vertices) == 2 + 2 ** MAX_CLASSES
    with pytest.raises(ResourceLimitError):
        build_transition_graph(data_with_classes(MAX_CLASSES + 1))


def test_zero_classes_with_nodes_rejected():
    base = GradedSpace((1, 0, 1, 10, 1, 0, 1))
    with pytest.raises(MalformedIncidenceError):
        ConifoldData(base, 2, ())


def test_flop_examples():
    assert flop_pairs(1) == {frozenset(((0,), (1,))): 1}
    assert flop_pairs(3)[frozenset(((0, 1, 0), (0, 0, 0)))] == 1
    assert flop_pairs(4)[frozenset(((1, 0, 1, 1), (1, 0, 0, 1)))] == 1
    # no flop changes two classes at once
    assert flop_pairs(3)[frozenset(((0, 0, 0), (1, 1, 0)))] == 0


@settings(deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.data())
def test_flop_involution(bits, draws):
    bits = tuple(bits)
    k = draws.draw(st.integers(1, len(bits)))
    pairs = flop_pairs(len(bits))
    assert pairs[frozenset((bits, flipped(bits, k)))] == 1
    assert pairs[frozenset((bits,))] == 0  # no flop is a loop


def test_transition_graph_n1_diagram():
    graph = build_transition_graph(data_with_classes(1, nodes_per_class=2))
    assert graph.vertex_names() == ("M_flat", "V_bar", "M_nat_1", "M_nat_2")
    edges = {(e.source, e.target, e.label) for e in graph.edges}
    assert edges == {
        ("M_flat", "V_bar", "defo"),
        ("V_bar", "M_nat_1", "exoflop"),
        ("V_bar", "M_nat_2", "exoflop"),
        ("M_nat_1", "M_nat_2", "flop"),
    }


def test_transition_graph_n2_hypercube():
    graph = build_transition_graph(data_with_classes(2))
    assert len(graph.vertices) == 1 + 1 + 4
    labels = [e.label for e in graph.edges]
    assert labels.count("defo") == 1
    assert labels.count("exoflop") == 4
    assert labels.count("flop") == 4


def test_transition_graph_smooth_case():
    graph = build_transition_graph(smooth_data())
    assert len(graph.vertices) == 1
    assert graph.vertices[0].name == "M_flat=V_bar"
    assert graph.edges == ()


@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
def test_hypercube_degrees(n_classes):
    graph = build_transition_graph(data_with_classes(n_classes))
    flops = [e for e in graph.edges if e.label == "flop"]
    assert len(flops) == n_classes * 2 ** (n_classes - 1)
    exoflops = [e for e in graph.edges if e.label == "exoflop"]
    assert len(exoflops) == 2 ** n_classes
    # every resolution touches exactly one exoflop and n_classes flop edges
    degree = {}
    for e in flops:
        degree[e.source] = degree.get(e.source, 0) + 1
        degree[e.target] = degree.get(e.target, 0) + 1
    resolutions = [v.name for v in graph.vertices if v.kind == "resolution"]
    assert all(degree[name] == n_classes for name in resolutions)
    # flop edges join orientations at Hamming distance one
    orientation = {v.name: v.orientation for v in graph.vertices
                   if v.kind == "resolution"}
    for e in flops:
        a, b = orientation[e.source], orientation[e.target]
        assert sum(x != y for x, y in zip(a, b)) == 1
    # flop graph is connected
    adjacency = {name: set() for name in resolutions}
    for e in flops:
        adjacency[e.source].add(e.target)
        adjacency[e.target].add(e.source)
    seen, stack = {resolutions[0]}, [resolutions[0]]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    assert seen == set(resolutions)


def test_vertex_betti_bookkeeping():
    data = data_with_classes(2, nodes_per_class=2)
    smooth = GradedSpace((1, 0, 1, 204, 1, 0, 1))
    graph = build_transition_graph(data, smooth_dims=smooth)
    by_name = {v.name: v for v in graph.vertices}
    assert by_name["M_flat"].dims == smooth.dims
    assert by_name["V_bar"].h2 == data.base.dims[2] + data.n_classes
    assert by_name["M_nat_1"].h2 == data.base.dims[2] + data.n_classes


def test_dot_and_json_output():
    graph = build_transition_graph(data_with_classes(1))
    out = io.StringIO()
    graph.write_dot(out)
    dot = out.getvalue()
    assert dot.startswith("graph transitions {")
    assert '"M_flat" -- "V_bar" [label="defo"];' in dot
    obj = graph.to_json_dict()
    assert {v["name"] for v in obj["vertices"]} == set(graph.vertex_names())
    assert obj["metadata"]["compatible_resolutions"] == "2"


def test_random_flop_pairs_are_involutions():
    # For every resolution and every class k, exactly one flop edge joins it
    # to the resolution that differs in class k only, and there are no others.
    for n_classes in range(1, 13):
        pairs = flop_pairs(n_classes)
        for bits in itertools.product((0, 1), repeat=n_classes):
            for k in range(1, n_classes + 1):
                assert pairs[frozenset((bits, flipped(bits, k)))] == 1
        assert sum(pairs.values()) == n_classes * 2 ** (n_classes - 1)


@st.composite
def partitioned_data(draw):
    """A ConifoldData with 0..7 classes: n nodes shuffled into N nonempty classes."""
    n_classes = draw(st.integers(0, 7))
    n = n_classes + draw(st.integers(0, 5)) if n_classes else 0
    nodes = draw(st.permutations(range(1, n + 1)))
    classes = [[node] for node in nodes[:n_classes]]
    for node in nodes[n_classes:]:
        classes[draw(st.integers(0, n_classes - 1))].append(node)
    base = GradedSpace((1, 0, 1, draw(st.integers(0, 300)),
                        1 + n_classes + draw(st.integers(0, 3)), 0, 1))
    return ConifoldData(base, n, classes)


smooth_spaces = st.none() | st.builds(
    lambda b2, b3: GradedSpace((1, 0, b2, b3, b2, 0, 1)),
    st.integers(0, 9), st.integers(0, 400))


@settings(max_examples=60, deadline=None)
@given(partitioned_data(), smooth_spaces)
def test_streamed_output_matches_iterated_graph(data, smooth):
    graph = build_transition_graph(data, smooth_dims=smooth)
    big_n = data.n_classes
    with mock.patch.object(TransitionGraph, "_rows", side_effect=AssertionError):
        if data.n:
            assert len(graph.vertices) == 2 + 2 ** big_n
            assert len(graph.edges) == 1 + 2 ** big_n + big_n * 2 ** big_n // 2
        else:
            assert (len(graph.vertices), len(graph.edges)) == (1, 0)
    vertices, edges = list(graph.vertices), list(graph.edges)
    assert (len(vertices), len(edges)) == (len(graph.vertices), len(graph.edges))
    oracle = {"vertices": [v.to_json_dict() for v in vertices],
              "edges": [e.to_json_dict() for e in edges],
              "metadata": dict(graph.metadata)}
    out = io.StringIO()
    graph.write_json(out)
    assert out.getvalue() == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    graph.write_dot(out)
    assert out.getvalue() == dot_from_rows(vertices, edges)


def dot_from_rows(vertices, edges) -> str:
    shapes = {"deformation": "ellipse", "stratified_union": "box", "resolution": "diamond"}
    dot = (["graph transitions {"]
           + [f'  "{v.name}" [shape={shapes[v.kind]}];' for v in vertices]
           + [f'  "{e.source}" -- "{e.target}" [label="{e.label}"];' for e in edges]
           + ["}"])
    return "\n".join(dot) + "\n"


@pytest.mark.parametrize("n_classes,nodes_per_class",
                         [(1, 2), (5, 1), (6, 2), (7, 1), (8, 3), (11, 2)])
def test_writers_match_iterated_graph_across_blocks(n_classes, nodes_per_class):
    # N = 1, 5, 6 and 7 are the edges of the writers' 64-entry orientation
    # table: fewer low bits than a block holds, exactly a block's, and one
    # high bit.  N = 8 and 11 cross many blocks of resolution codes.
    data = data_with_classes(n_classes, nodes_per_class, b3=57)
    graph = build_transition_graph(data, smooth_dims=GradedSpace((1, 0, 3, 88, 3, 0, 1)))
    out = io.StringIO()
    graph.write_json(out)
    assert out.getvalue() == json.dumps(graph.to_json_dict(), indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    graph.write_dot(out)
    assert out.getvalue() == dot_from_rows(graph.vertices, graph.edges)


class WriteOnlyFile:
    """A text file that records the size of each write and has no other method,
    so a writer that used writelines or anything else would fail."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


def test_writers_write_one_small_block_at_a_time():
    # Memory stays flat in N only while each write holds a bounded block of
    # rows; one write per row would cost a call per edge.
    graph = build_transition_graph(data_with_classes(14))
    blocks = 3 * 2 ** 14 // 64
    for write in (graph.write_json, graph.write_dot):
        fh = WriteOnlyFile()
        write(fh)
        assert sum(fh.sizes) > 0
        assert len(fh.sizes) <= blocks + 4
        assert max(fh.sizes) < 256 * 1024


def test_n14_output_is_pinned():
    # N = 14 singleton classes, the shape the hypercube benchmark feeds the
    # CLI: any change to the JSON or DOT bytes changes these digests.
    big_n = 14
    data = ConifoldData(GradedSpace((1, 0, 1, 204, 1 + big_n, 0, 1)), big_n,
                        [[k] for k in range(1, big_n + 1)])
    graph = build_transition_graph(data)
    digests = []
    for write in (graph.write_json, graph.write_dot):
        out = io.StringIO()
        write(out)
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    assert digests == [
        "06dbcc4870a8fbab88d36f3d8db4f3eb948db09d1696619337ff8467fef3f044",
        "f7bd484082b1fdfd65b9a7debc2cae26857ab874ad9eb31c19a49163b78d3319"]


def test_counts_need_no_rows():
    graph = build_transition_graph(data_with_classes(16))
    with mock.patch.object(TransitionGraph, "_rows", side_effect=AssertionError):
        assert len(graph.vertices) == 2 + 2 ** 16
        assert len(graph.edges) == 1 + 2 ** 16 + 16 * 2 ** 15
        assert graph.edge_counts() == {"defo": 1, "exoflop": 2 ** 16, "flop": 16 * 2 ** 15}
    with pytest.raises(ResourceLimitError):
        build_transition_graph(data_with_classes(MAX_CLASSES + 1))


def test_edge_rows_need_no_vertex_rows():
    # itertools.product builds the vertex orientations; the edges never call it
    graph = build_transition_graph(data_with_classes(3))
    oracle = ([("M_flat", "V_bar", "defo")]
              + [("V_bar", f"M_nat_{i}", "exoflop") for i in range(1, 9)]
              + [(f"M_nat_{code + 1}", f"M_nat_{(code | bit) + 1}", "flop")
                 for code in range(8) for bit in (4, 2, 1) if not code & bit])
    with mock.patch("gsvkit.resolutions.product", side_effect=AssertionError):
        edges = graph.edges
        assert edges[0][:3] == oracle[0] and edges[-1][:3] == oracle[-1]
        assert [e[:3] for e in edges] == oracle


def test_graph_rows_are_indexable_sequences():
    graph = build_transition_graph(data_with_classes(3, nodes_per_class=2))
    for rows in (graph.vertices, graph.edges):
        listed = list(rows)
        assert [rows[i] for i in range(len(rows))] == listed
        assert rows[-1] == listed[-1]
        assert rows == listed and rows == tuple(listed)
        with pytest.raises(IndexError):
            rows[len(rows)]
    assert graph.edges[-1].source == "M_nat_7" and graph.edges[-1].target == "M_nat_8"
