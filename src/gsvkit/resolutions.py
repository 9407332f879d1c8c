"""Small resolutions and the defo / exoflop / flop transition graph.

Nodes on a common 4-cycle class must be resolved compatibly, so a small
resolution is a binary orientation per class: 2^N total rather than the
naive 2^n.  Flops flip one class orientation, which for N > 1 makes the
resolutions an N-dimensional hypercube; that extension beyond the flopped
pair is flagged in the graph metadata.
"""

from __future__ import annotations

import json
from itertools import product
from typing import Dict, NamedTuple, Optional, Tuple

from .cohomology import ConifoldData, cohomology_of_closure
from .errors import ResourceLimitError

MAX_CLASSES = 20
# 2^n is written in decimal up to this n (603 digits) and as "2^n" above it:
# Python can be set to refuse to convert an int of over 640 digits to str.
DECIMAL_POW2_MAX = 2000

DEFO_NOTE = "each node traded for a real 3-bundle over S^3"
FLOP_NOTE = "single-class orientation flip; hypercube extension for N > 1"


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
    output order: per source, class k = 1..N with bit N-k of its code clear.  A
    flop sets a clear bit: it adds the bit to the name."""
    flips, out = [1 << k for k in reversed(range(big_n))], []
    for name in names:
        code = name - 1
        targets = [str(name + bit) for bit in flips if not code & bit]
        if targets:
            source = head + str(name) + mid
            out.append(source + (tail + source).join(targets) + tail)
    return "".join(out)


def pow2_text(n: int) -> str:
    return str(2 ** n) if n <= DECIMAL_POW2_MAX else f"2^{n}"


class TransitionGraph(NamedTuple):
    """The star plus hypercube graph, held as its closed-form parameters.

    Vertices, in output order: the smoothing ``M_flat``, the union ``V_bar``,
    then resolution ``M_nat_{i+1}`` for each orientation code i in binary
    order.  Edges: the defo edge, one exoflop edge per resolution, and for
    each code i and class k (1-based) with bit N-k of i clear, the flop to
    ``i | 1 << (N-k)``.  With ``n == 0`` the graph is the single vertex
    ``M_flat=V_bar``.  No row is held: the writers build their text a block
    of codes at a time, so memory stays flat in N, and the counts come from
    the closed forms.
    """

    n_classes: int
    n: int
    closure_dims: Optional[Tuple[int, ...]] = None

    def vertex_count(self) -> int:
        """Vertices, from the closed form."""
        return 1 if self.n == 0 else 2 + 2 ** self.n_classes

    def edge_counts(self) -> Dict[str, int]:
        """Edges per label, from the closed forms."""
        if self.n == 0:
            return {"defo": 0, "exoflop": 0, "flop": 0}
        big_n = self.n_classes
        return {"defo": 1, "exoflop": 2 ** big_n, "flop": (big_n << big_n) >> 1}

    @property
    def metadata(self) -> Tuple[Tuple[str, str], ...]:
        if self.n == 0:
            return (("note", "transversal case: nothing to resolve"),)
        return (("flop_connectivity", FLOP_NOTE),
                ("compatible_resolutions", str(2 ** self.n_classes)),
                ("naive_per_node_resolutions", pow2_text(self.n)))

    def write_json(self, fh) -> None:
        """Write the graph as sorted-key JSON with indent 2, and a newline, to a
        text file, a block of resolution codes at a time."""
        if self.n == 0:
            graph = {"edges": [], "metadata": dict(self.metadata),
                     "vertices": [{"kind": "deformation", "name": "M_flat=V_bar"}]}
            fh.write(json.dumps(graph, indent=2, sort_keys=True) + "\n")
            return
        # json.dumps writes the rows that do not repeat per resolution code,
        # and the blocks go in at the end of each list, before its "\n  ]".
        dims = self.closure_dims
        fixed = {"edges": [{"label": "defo", "note": DEFO_NOTE,
                            "source": "M_flat", "target": "V_bar"}],
                 "metadata": dict(self.metadata),
                 "vertices": [{"kind": "deformation", "name": "M_flat"},
                              {"dims": list(dims), "h2": dims[2],
                               "kind": "stratified_union", "name": "V_bar"}]}
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
        head = (f',\n    {{\n      "h2": {dims[2]},\n      "kind": "resolution",\n'
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


def build_transition_graph(data: ConifoldData) -> TransitionGraph:
    """Vertices: the smoothing, the compactified union, and all resolutions.

    Edge rules: one defo edge (smoothing to union), one exoflop edge from
    the union to every resolution, and flop edges between resolutions at
    Hamming distance one.  The class bound is checked here, before any
    output is opened.
    """
    if data.n_classes > MAX_CLASSES:
        raise ResourceLimitError(f"2^{data.n_classes} resolutions exceed the "
                                 f"enumeration bound 2^{MAX_CLASSES}")
    if data.n == 0:
        return TransitionGraph(0, 0)
    return TransitionGraph(data.n_classes, data.n, cohomology_of_closure(data).dims)
