"""Small resolutions and the defo / exoflop / flop transition graph.

Nodes on a common 4-cycle class must be resolved compatibly, so a small
resolution is a binary orientation per class: 2^N total rather than the
naive 2^n.  Flops flip one class orientation, which for N > 1 makes the
resolutions an N-dimensional hypercube; that extension beyond the flopped
pair is flagged in the graph metadata.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import islice, product, starmap
from typing import Dict, NamedTuple, Optional, Tuple

from .cohomology import ConifoldData, GradedSpace, cohomology_of_closure
from .errors import ResourceLimitError

MAX_CLASSES = 20
# 2^n is written in decimal up to this n (603 digits) and as "2^n" above it:
# Python can be set to refuse to convert an int of over 640 digits to str.
DECIMAL_POW2_MAX = 2000

DEFO_NOTE = "each node traded for a real 3-bundle over S^3"
FLOP_NOTE = "single-class orientation flip; hypercube extension for N > 1"


class Vertex(NamedTuple):
    name: str
    kind: str  # "deformation" | "stratified_union" | "resolution"
    orientation: Optional[Tuple[int, ...]] = None
    h2: Optional[int] = None
    dims: Optional[Tuple[int, ...]] = None

    def to_json_dict(self):
        out: Dict[str, object] = {"name": self.name, "kind": self.kind}
        if self.orientation is not None:
            out["orientation"] = list(self.orientation)
        if self.h2 is not None:
            out["h2"] = self.h2
        if self.dims is not None:
            out["dims"] = list(self.dims)
        return out


class Edge(NamedTuple):
    source: str
    target: str
    label: str  # "defo" | "exoflop" | "flop"
    note: Optional[str] = None

    def to_json_dict(self):
        out: Dict[str, object] = {"source": self.source, "target": self.target,
                                  "label": self.label}
        if self.note:
            out["note"] = self.note
        return out


class _Rows(Sequence):
    """A read-only view of one slice of a graph's rows, built as it is read."""

    def __init__(self, length, rows, make):
        self._length, self._rows, self._make = length, rows, make

    def __len__(self):
        return self._length

    def __iter__(self):
        return starmap(self._make, self._rows())

    def __getitem__(self, index: int):
        return next(islice(self, range(self._length)[index], None))

    def __eq__(self, other):
        return (isinstance(other, Sequence) and len(other) == self._length
                and all(a == b for a, b in zip(self, other)))


# Each writer builds the rows of a block of _BLOCK codes with a few string joins
# and writes them at once, so memory stays flat in N.  Blocks are aligned: their
# codes differ only in the _LOW_BITS low bits.  Row strings are module constants
# or M_nat_<int>, so none needs JSON or DOT escaping and names go in plain quotes.
_LOW_BITS = 6
_BLOCK = 1 << _LOW_BITS


def _blocks(count: int):
    """Per block of at most _BLOCK consecutive codes covering 0..count-1, the
    range of their names' numbers: code i names resolution M_nat_<i+1>."""
    return (range(lo + 1, min(lo + _BLOCK, count) + 1) for lo in range(0, count, _BLOCK))


def _names(names: range, head: str, tail: str) -> str:
    """head + name + tail for each name number in names."""
    return head + (tail + head).join(map(str, names)) + tail


def _flops(names: range, big_n: int, head: str, mid: str, tail: str) -> str:
    """head + source + mid + target + tail for each flop edge out of names, in
    _flop_targets order.  A flop sets a clear bit: it adds the bit to the name."""
    flips, out = [1 << k for k in reversed(range(big_n))], []
    for name in names:
        code = name - 1
        targets = [str(name + bit) for bit in flips if not code & bit]
        if targets:
            source = head + str(name) + mid
            out.append(source + (tail + source).join(targets) + tail)
    return "".join(out)


def _flop_targets(big_n: int):
    """A map from a resolution code to the targets of its flop edges, in
    output order: for class k = 1..N with bit N-k of the code clear, the
    code with that bit set."""
    flips = [1 << (big_n - k) for k in range(1, big_n + 1)]
    return lambda code: [code | bit for bit in flips if not code & bit]


def pow2_text(n: int) -> str:
    return str(2 ** n) if n <= DECIMAL_POW2_MAX else f"2^{n}"


class TransitionGraph(NamedTuple):
    """The star plus hypercube graph, held as its closed-form parameters.

    Vertex rows, in output order: the smoothing, the union, then resolution
    ``M_nat_{i+1}`` for each orientation code i in binary order.  Edge rows:
    the defo edge, one exoflop edge per resolution, and for each code i and
    class k (1-based) with bit N-k of i clear, the flop to ``i | 1 << (N-k)``.
    With ``n == 0`` the graph is the single vertex ``M_flat=V_bar``.  Each
    kind of row is generated when read, apart from the other, so memory stays
    flat in N and the first edge costs no vertex row.
    """

    n_classes: int
    n: int
    closure_dims: Optional[Tuple[int, ...]] = None
    smooth_dims: Optional[Tuple[int, ...]] = None

    def _rows(self, edges: bool = False):
        """Vertex rows (name, kind, orientation, h2, dims) or, with `edges`,
        edge rows (source, target, label, note)."""
        big_n = self.n_classes
        if self.n == 0:
            if not edges:
                yield ("M_flat=V_bar", "deformation", None, None, self.smooth_dims)
        elif edges:
            yield ("M_flat", "V_bar", "defo", DEFO_NOTE)
            for i in range(1, 2 ** big_n + 1):
                yield ("V_bar", f"M_nat_{i}", "exoflop", None)
            targets = _flop_targets(big_n)
            for code in range(2 ** big_n):
                for target in targets(code):
                    yield (f"M_nat_{code + 1}", f"M_nat_{target + 1}", "flop", FLOP_NOTE)
        else:
            yield ("M_flat", "deformation", None, None, self.smooth_dims)
            yield ("V_bar", "stratified_union", None, self.closure_dims[2], self.closure_dims)
            for i, bits in enumerate(product((0, 1), repeat=big_n), 1):
                yield (f"M_nat_{i}", "resolution", bits, self.closure_dims[2], None)

    def edge_counts(self) -> Dict[str, int]:
        """Edges per label, from the closed forms."""
        if self.n == 0:
            return {"defo": 0, "exoflop": 0, "flop": 0}
        big_n = self.n_classes
        return {"defo": 1, "exoflop": 2 ** big_n, "flop": (big_n << big_n) >> 1}

    @property
    def vertices(self) -> Sequence:
        return _Rows(1 if self.n == 0 else 2 + 2 ** self.n_classes, self._rows, Vertex)

    @property
    def edges(self) -> Sequence:
        return _Rows(sum(self.edge_counts().values()), lambda: self._rows(True), Edge)

    @property
    def metadata(self) -> Tuple[Tuple[str, str], ...]:
        if self.n == 0:
            return (("note", "transversal case: nothing to resolve"),)
        return (("flop_connectivity", FLOP_NOTE),
                ("compatible_resolutions", str(2 ** self.n_classes)),
                ("naive_per_node_resolutions", pow2_text(self.n)))

    def vertex_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.vertices)

    def to_json_dict(self):
        return {
            "vertices": [v.to_json_dict() for v in self.vertices],
            "edges": [e.to_json_dict() for e in self.edges],
            "metadata": dict(self.metadata),
        }

    def write_json(self, fh) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``
        and a newline to a text file, a block of resolution codes at a time."""
        if self.n == 0:
            fh.write(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")
            return
        # json.dumps writes the rows that do not repeat per resolution code,
        # and the blocks go in at the end of each list, before its "\n  ]".
        fixed = {"edges": [Edge("M_flat", "V_bar", "defo", DEFO_NOTE).to_json_dict()],
                 "metadata": dict(self.metadata),
                 "vertices": [v.to_json_dict() for v in islice(self.vertices, 2)]}
        edges, vertices, end = json.dumps(fixed, indent=2, sort_keys=True).split("\n  ]")
        big_n, count = self.n_classes, 2 ** self.n_classes
        fh.write(edges)
        for names in _blocks(count):
            fh.write(_names(names, ',\n    {\n      "label": "exoflop",\n'
                            '      "source": "V_bar",\n      "target": "M_nat_', '"\n    }'))
        for names in _blocks(count):
            fh.write(_flops(names, big_n, ',\n    {\n      "label": "flop",\n'
                            f'      "note": "{FLOP_NOTE}",\n      "source": "M_nat_',
                            '",\n      "target": "M_nat_', '"\n    }'))
        fh.write("\n  ]" + vertices)
        # A code's orientation is its N bits: the high ones are its block's,
        # the low ones index a table of every low-bit pattern's text.
        sep = ",\n        "
        head = (f',\n    {{\n      "h2": {self.closure_dims[2]},\n      "kind": "resolution",\n'
                '      "name": "M_nat_')
        low = [sep.join(bits) + "\n      ]\n    }"
               for bits in product("01", repeat=min(big_n, _LOW_BITS))]
        for names, high in zip(_blocks(count), product("01", repeat=max(big_n - _LOW_BITS, 0))):
            mid = '",\n      "orientation": [\n        ' + sep.join((*high, ""))
            fh.write("".join([head + name + mid + bits
                              for name, bits in zip(map(str, names), low)]))
        fh.write("\n  ]" + end + "\n")

    def write_dot(self, fh) -> None:
        """Write the graph in DOT to a text file, a block of resolution codes at a time."""
        if self.n == 0:
            fh.write('graph transitions {\n  "M_flat=V_bar" [shape=ellipse];\n}\n')
            return
        big_n, count = self.n_classes, 2 ** self.n_classes
        fh.write('graph transitions {\n  "M_flat" [shape=ellipse];\n  "V_bar" [shape=box];\n')
        for names in _blocks(count):
            fh.write(_names(names, '  "M_nat_', '" [shape=diamond];\n'))
        fh.write('  "M_flat" -- "V_bar" [label="defo"];\n')
        for names in _blocks(count):
            fh.write(_names(names, '  "V_bar" -- "M_nat_', '" [label="exoflop"];\n'))
        for names in _blocks(count):
            fh.write(_flops(names, big_n, '  "M_nat_', '" -- "M_nat_', '" [label="flop"];\n'))
        fh.write("}\n")


def build_transition_graph(data: ConifoldData,
                           smooth_dims: Optional[GradedSpace] = None) -> TransitionGraph:
    """Vertices: the smoothing, the compactified union, and all resolutions.

    Edge rules: one defo edge (smoothing to union), one exoflop edge from
    the union to every resolution, and flop edges between resolutions at
    Hamming distance one.  The class bound is checked here, before any row
    exists or any output is opened.
    """
    if data.n_classes > MAX_CLASSES:
        raise ResourceLimitError(f"2^{data.n_classes} resolutions exceed the "
                                 f"enumeration bound 2^{MAX_CLASSES}")
    smooth = smooth_dims.dims if smooth_dims else None
    if data.n == 0:
        return TransitionGraph(0, 0, smooth_dims=smooth)
    return TransitionGraph(data.n_classes, data.n,
                           closure_dims=cohomology_of_closure(data).dims,
                           smooth_dims=smooth)
