"""Small resolution enumeration and the transition graph."""

import hashlib
import io
import itertools
import json
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gsvkit import cli
from gsvkit.cohomology import ConifoldData, GradedSpace, mayer_vietoris
from gsvkit.errors import MalformedIncidenceError, ResourceLimitError
from gsvkit.resolutions import (DECIMAL_POW2_MAX, DEFO_NOTE, FLOP_NOTE, MAX_CLASSES,
                                build_transition_graph)


def data_with_classes(n_classes, nodes_per_class=1, b3=10):
    n = n_classes * nodes_per_class
    classes = [list(range(k * nodes_per_class + 1, (k + 1) * nodes_per_class + 1))
               for k in range(n_classes)]
    base = GradedSpace((1, 0, 1, b3, 1 + n_classes, 0, 1))
    return ConifoldData(base, n, classes)


def smooth_data():
    return ConifoldData(GradedSpace((1, 0, 1, 204, 1, 0, 1)), 0, [])


def written(graph):
    """The graph as its writer writes it in JSON, parsed back."""
    out = io.StringIO()
    graph.write(json_file=out)
    return json.loads(out.getvalue())


def resolutions(obj):
    """The resolution vertices of a written graph, orientations as tuples."""
    return [{**v, "orientation": tuple(v["orientation"])}
            for v in obj["vertices"] if v["kind"] == "resolution"]


def names(obj):
    return [v["name"] for v in obj["vertices"]]


@lru_cache(maxsize=None)
def flop_pairs(n_classes):
    """The flop edges of the graph on N singleton classes, each as the set of
    its endpoints' orientations, counted with multiplicity."""
    obj = written(build_transition_graph(data_with_classes(n_classes)))
    orientation = {v["name"]: v["orientation"] for v in resolutions(obj)}
    return Counter(frozenset((orientation[e["source"]], orientation[e["target"]]))
                   for e in obj["edges"] if e["label"] == "flop")


def flipped(bits, k):
    """The orientation that differs from `bits` in class k (1-based) only."""
    return bits[:k - 1] + (1 - bits[k - 1],) + bits[k:]


def oracle_graph(data):
    """The graph's rows in output order, built from the definitions: the
    orientations in binary order by itertools.product, from each one a flop
    to its twin in every class it has at 0, and the union's dimensions from
    the refined Mayer-Vietoris count."""
    if data.n == 0:
        return {"vertices": [{"kind": "deformation", "name": "M_flat=V_bar"}],
                "edges": [], "metadata": {"note": "transversal case: nothing to resolve"}}
    big_n = data.n_classes
    dims = list(mayer_vietoris(data, "refined").dims)
    orientations = list(itertools.product((0, 1), repeat=big_n))
    name = {bits: f"M_nat_{i}" for i, bits in enumerate(orientations, 1)}
    vertices = [{"kind": "deformation", "name": "M_flat"},
                {"dims": dims, "h2": dims[2], "kind": "stratified_union", "name": "V_bar"}]
    vertices += [{"h2": dims[2], "kind": "resolution", "name": name[bits],
                  "orientation": list(bits)} for bits in orientations]
    edges = [{"label": "defo", "note": DEFO_NOTE, "source": "M_flat", "target": "V_bar"}]
    edges += [{"label": "exoflop", "source": "V_bar", "target": name[bits]}
              for bits in orientations]
    edges += [{"label": "flop", "note": FLOP_NOTE, "source": name[bits],
               "target": name[flipped(bits, k)]}
              for bits in orientations for k in range(1, big_n + 1) if not bits[k - 1]]
    return {"vertices": vertices, "edges": edges,
            "metadata": {"flop_connectivity": FLOP_NOTE,
                         "compatible_resolutions": str(2 ** big_n),
                         "naive_per_node_resolutions": str(2 ** data.n)}}


def oracle_json(data) -> str:
    return json.dumps(oracle_graph(data), indent=2, sort_keys=True) + "\n"


def oracle_dot(data) -> str:
    graph = oracle_graph(data)
    shapes = {"deformation": "ellipse", "stratified_union": "box", "resolution": "diamond"}
    dot = (["graph transitions {"]
           + [f'  "{v["name"]}" [shape={shapes[v["kind"]]}];' for v in graph["vertices"]]
           + [f'  "{e["source"]}" -- "{e["target"]}" [label="{e["label"]}"];'
              for e in graph["edges"]]
           + ["}"])
    return "\n".join(dot) + "\n"


def test_counts():
    for n_classes in (1, 3):
        found = resolutions(written(build_transition_graph(data_with_classes(n_classes))))
        assert [v["orientation"] for v in found] == list(
            itertools.product((0, 1), repeat=n_classes))  # binary order
        assert [v["name"] for v in found] == [
            f"M_nat_{i}" for i in range(1, 2 ** n_classes + 1)]
    # with no nodes the variety is its own and only resolution
    assert names(written(build_transition_graph(smooth_data()))) == ["M_flat=V_bar"]


def test_naive_count_reported_for_contrast():
    graph = build_transition_graph(data_with_classes(2, nodes_per_class=3))
    assert len(resolutions(written(graph))) == 4
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
        graph.write(json_file=out)
        assert json.loads(out.getvalue())["metadata"]["naive_per_node_resolutions"] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_resource_bound():
    graph = build_transition_graph(data_with_classes(MAX_CLASSES))
    assert graph.vertex_count() == 2 + 2 ** MAX_CLASSES
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
    obj = written(build_transition_graph(data_with_classes(1, nodes_per_class=2)))
    assert names(obj) == ["M_flat", "V_bar", "M_nat_1", "M_nat_2"]
    edges = {(e["source"], e["target"], e["label"]) for e in obj["edges"]}
    assert edges == {
        ("M_flat", "V_bar", "defo"),
        ("V_bar", "M_nat_1", "exoflop"),
        ("V_bar", "M_nat_2", "exoflop"),
        ("M_nat_1", "M_nat_2", "flop"),
    }


def test_transition_graph_n2_hypercube():
    obj = written(build_transition_graph(data_with_classes(2)))
    assert len(obj["vertices"]) == 1 + 1 + 4
    labels = [e["label"] for e in obj["edges"]]
    assert labels.count("defo") == 1
    assert labels.count("exoflop") == 4
    assert labels.count("flop") == 4


def test_transition_graph_smooth_case():
    graph = build_transition_graph(smooth_data())
    assert (graph.vertex_count(), sum(graph.edge_counts().values())) == (1, 0)
    obj = written(graph)
    assert obj["vertices"] == [{"kind": "deformation", "name": "M_flat=V_bar"}]
    assert obj["edges"] == []


@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
def test_hypercube_degrees(n_classes):
    obj = written(build_transition_graph(data_with_classes(n_classes)))
    edges = [(e["source"], e["target"], e["label"]) for e in obj["edges"]]
    flops = [e[:2] for e in edges if e[2] == "flop"]
    assert len(flops) == n_classes * 2 ** (n_classes - 1)
    exoflops = [e for e in edges if e[2] == "exoflop"]
    assert len(exoflops) == 2 ** n_classes
    # every resolution touches exactly one exoflop and n_classes flop edges
    degree = Counter(itertools.chain.from_iterable(flops))
    orientation = {v["name"]: v["orientation"] for v in resolutions(obj)}
    assert all(degree[name] == n_classes for name in orientation)
    assert sorted(target for _, target, _ in exoflops) == sorted(orientation)
    # flop edges join orientations at Hamming distance one
    for source, target in flops:
        a, b = orientation[source], orientation[target]
        assert sum(x != y for x, y in zip(a, b)) == 1
    # flop graph is connected
    adjacency = {name: set() for name in orientation}
    for source, target in flops:
        adjacency[source].add(target)
        adjacency[target].add(source)
    first = next(iter(orientation))
    seen, stack = {first}, [first]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    assert seen == set(orientation)


def test_vertex_betti_bookkeeping():
    data = data_with_classes(2, nodes_per_class=2)
    by_name = {v["name"]: v for v in written(build_transition_graph(data))["vertices"]}
    assert by_name["M_flat"] == {"kind": "deformation", "name": "M_flat"}  # no dims
    h2 = data.base.dims[2] + data.n_classes
    assert by_name["V_bar"]["dims"] == [1, 0, h2, *data.base.dims[3:]]
    assert by_name["V_bar"]["h2"] == h2
    assert all(by_name[f"M_nat_{i}"]["h2"] == h2 for i in range(1, 5))


def test_dot_and_json_output():
    graph = build_transition_graph(data_with_classes(1))
    out = io.StringIO()
    graph.write(dot_file=out)
    dot = out.getvalue()
    assert dot.startswith("graph transitions {")
    assert '"M_flat" -- "V_bar" [label="defo"];' in dot
    obj = written(graph)
    assert names(obj) == ["M_flat", "V_bar", "M_nat_1", "M_nat_2"]
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


@settings(max_examples=60, deadline=None)
@given(partitioned_data())
def test_streamed_output_matches_iterated_graph(data):
    graph = build_transition_graph(data)
    oracle = oracle_graph(data)
    assert graph.vertex_count() == len(oracle["vertices"])
    assert graph.edge_counts() == {label: sum(e["label"] == label for e in oracle["edges"])
                                   for label in ("defo", "exoflop", "flop")}
    out = io.StringIO()
    graph.write(json_file=out)
    assert out.getvalue() == oracle_json(data)
    out = io.StringIO()
    graph.write(dot_file=out)
    assert out.getvalue() == oracle_dot(data)


@pytest.mark.parametrize("n_classes,nodes_per_class",
                         [(1, 2), (2, 1), (3, 2), (4, 1), (5, 1), (6, 2), (7, 1), (8, 3),
                          (9, 1), (10, 2), (11, 2), (12, 1)])
def test_writers_match_iterated_graph_across_blocks(n_classes, nodes_per_class):
    # N = 1..5 fill one partial block, N = 6 exactly one, and N = 7 adds one
    # high bit.  From N = 8 the codes cross many blocks, and a block with m
    # clear high bits takes the flop gather for m: N = 12 has blocks with
    # every m = 0..6.
    data = data_with_classes(n_classes, nodes_per_class, b3=57)
    graph = build_transition_graph(data)
    out = io.StringIO()
    graph.write(json_file=out)
    assert out.getvalue() == oracle_json(data)
    out = io.StringIO()
    graph.write(dot_file=out)
    assert out.getvalue() == oracle_dot(data)


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
    json_file, dot_file = WriteOnlyFile(), WriteOnlyFile()
    files = [{"json_file": WriteOnlyFile()}, {"dot_file": WriteOnlyFile()},
             {"json_file": json_file, "dot_file": dot_file}]
    for handles in files:
        graph.write(**handles)
        for fh in handles.values():
            assert sum(fh.sizes) > 0
            assert len(fh.sizes) <= blocks + 4
            assert max(fh.sizes) < 256 * 1024
    # one call writing both files writes each as a call for it alone does
    assert json_file.sizes == files[0]["json_file"].sizes
    assert dot_file.sizes == files[1]["dot_file"].sizes


def test_writer_memory_stays_flat_in_n():
    # The names of all 2^15 resolutions alone take about 2 MB.  The writer
    # holds a block's text, the flop gathers and at most 64 blocks' names
    # that the flop pass met ahead of it as columns.
    graph = build_transition_graph(data_with_classes(15))
    tracemalloc.start()
    try:
        graph.write(json_file=WriteOnlyFile(), dot_file=WriteOnlyFile())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


# sha256 of the JSON and the DOT for N = 14 singleton classes
N14_DIGESTS = ["06dbcc4870a8fbab88d36f3d8db4f3eb948db09d1696619337ff8467fef3f044",
               "f7bd484082b1fdfd65b9a7debc2cae26857ab874ad9eb31c19a49163b78d3319"]


def test_n14_output_is_pinned():
    # N = 14 singleton classes, the shape the hypercube benchmark feeds the
    # CLI: any change to the JSON or DOT bytes changes these digests.
    big_n = 14
    data = ConifoldData(GradedSpace((1, 0, 1, 204, 1 + big_n, 0, 1)), big_n,
                        [[k] for k in range(1, big_n + 1)])
    graph = build_transition_graph(data)
    digests = []
    for target in ("json_file", "dot_file"):
        out = io.StringIO()
        graph.write(**{target: out})
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    assert digests == N14_DIGESTS


class DigestFile:
    """A write-only text file that feeds its UTF-8 bytes to sha256 and keeps
    nothing else, so a large graph is checked without holding its text."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode())

    def hexdigest(self):
        return self.sha256.hexdigest()


def test_n16_output_is_pinned():
    # N = 16 has blocks with up to 10 clear high bits; 148 MB of text in all
    big_n = 16
    data = ConifoldData(GradedSpace((1, 0, 1, 204, 1 + big_n, 0, 1)), big_n,
                        [[k] for k in range(1, big_n + 1)])
    json_file, dot_file = DigestFile(), DigestFile()
    build_transition_graph(data).write(json_file, dot_file)
    assert [json_file.hexdigest(), dot_file.hexdigest()] == [
        "43803584e08b5c6f31717d629d7e04330cff812b393fe4874d809de65052f671",
        "f6a1eb4321de2a4876169026349483b19cefdaa39491125c5460fe30ff15735e"]


def test_cli_writes_the_pinned_n14_files(tmp_path):
    # the hypercube benchmark's call: both files from one run, on real text files
    big_n = 14
    conifold = tmp_path / "conifold.json"
    conifold.write_text(json.dumps({"base_dims": [1, 0, 1, 204, 1 + big_n, 0, 1], "n": big_n,
                                    "classes": [[k] for k in range(1, big_n + 1)]}))
    json_path, dot_path = tmp_path / "graph.json", tmp_path / "graph.dot"
    assert cli.main(["resolutions", str(conifold), "--format", "json",
                     "--output", str(json_path), "--dot", str(dot_path)]) == 0
    assert [hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (json_path, dot_path)] == N14_DIGESTS


def test_counts_need_no_rows():
    graph = build_transition_graph(data_with_classes(16))
    assert graph == (16, 16, (1, 0, 17, 10, 17, 0, 1))  # parameters only, no rows
    assert graph.vertex_count() == 2 + 2 ** 16
    assert graph.edge_counts() == {"defo": 1, "exoflop": 2 ** 16, "flop": 16 * 2 ** 15}
    assert sum(graph.edge_counts().values()) == 1 + 2 ** 16 + 16 * 2 ** 15
    with pytest.raises(ResourceLimitError):
        build_transition_graph(data_with_classes(MAX_CLASSES + 1))
