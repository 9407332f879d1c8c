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
from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Tuple

from .cohomology import ConifoldData, mayer_vietoris
from .errors import ResourceLimitError

MAX_CLASSES = 20
# 2^n is written in decimal up to this n (603 digits) and as "2^n" above it:
# Python can be set to refuse to convert an int of over 640 digits to str.
DECIMAL_POW2_MAX = 2000

DEFO_NOTE = "each node traded for a real 3-bundle over S^3"
FLOP_NOTE = "single-class orientation flip; hypercube extension for N > 1"


# The writer builds the rows of a block of _BLOCK codes with a few string joins
# and writes them at once, so memory stays flat in N.  Blocks are aligned: their
# codes differ only in the _LOW_BITS low bits.  Row strings are module constants
# or M_nat_<int>, so none needs JSON or DOT escaping and names go in plain quotes.
_LOW_BITS = 6
_BLOCK = 1 << _LOW_BITS
# The flop pass keeps the names of a block it met as a column at most this many
# codes ahead, 64 blocks, until it reaches that block.  A name within that reach
# is turned to text once, not once for its own block and once per column it is
# in, and at most 64 lists of 64 names are held, whatever N.
_AHEAD = 64 * _BLOCK


def _blocks(count: int):
    """Per block of at most _BLOCK consecutive codes covering 0..count-1, the
    range of their names' numbers: code i names resolution M_nat_<i+1>."""
    return (range(lo + 1, min(lo + _BLOCK, count) + 1) for lo in range(0, count, _BLOCK))


def _write_names(fh, count: int, head: str, tail: str) -> None:
    """Write head + name + tail for each resolution name, a block at a time."""
    for names in _blocks(count):
        fh.write(head + (tail + head).join(map(str, names)) + tail)


def _flop_gather(low_n: int, m: int) -> itemgetter:
    """The gather of a block's flop edge text from its window: the block's
    opening head + name + mid, the closing tail, a separator tail + head +
    name + mid per code, then the target names, the block's own and a column
    per clear high bit, m of them, in output order.  Code p's targets are its
    column entries, then its own names with one more low bit set, each after
    p's separator; the opening takes the place of the first separator."""
    size = 1 << low_n
    order = []
    for p in range(size):
        for q in [*range(2 + 2 * size + p, 2 + (2 + m) * size, size),
                  *(2 + size + (p | 1 << k) for k in reversed(range(low_n)) if not p >> k & 1)]:
            order += (2 + p, q)
    order[0] = 0
    return itemgetter(*order, 1)


def pow2_text(n: int) -> str:
    return str(2 ** n) if n <= DECIMAL_POW2_MAX else f"2^{n}"


class TransitionGraph(NamedTuple):
    """The star plus hypercube graph, held as its closed-form parameters.

    Vertices, in output order: the smoothing ``M_flat``, the union ``V_bar``,
    then resolution ``M_nat_{i+1}`` for each orientation code i in binary
    order.  Edges: the defo edge, one exoflop edge per resolution, and for
    each code i and class k (1-based) with bit N-k of i clear, the flop to
    ``i | 1 << (N-k)``.  With ``n == 0`` the graph is the single vertex
    ``M_flat=V_bar``.  No row is held: the writer builds its text a block
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

    def write(self, json_file=None, dot_file=None) -> None:
        """Write the graph to whichever text files are given: as sorted-key JSON
        with indent 2 and a newline, and in DOT.  One pass over the blocks of
        resolution codes builds each block's flop target names once for both
        files."""
        if self.n == 0:
            graph = {"edges": [], "metadata": dict(self.metadata),
                     "vertices": [{"kind": "deformation", "name": "M_flat=V_bar"}]}
            if json_file is not None:
                json_file.write(json.dumps(graph, indent=2, sort_keys=True) + "\n")
            if dot_file is not None:
                dot_file.write('graph transitions {\n  "M_flat=V_bar" [shape=ellipse];\n}\n')
            return
        big_n, count, dims = self.n_classes, 2 ** self.n_classes, self.closure_dims
        flops = []  # per file: (file, head, mid, tail) of its flop edge rows
        if dot_file is not None:
            dot_file.write('graph transitions {\n  "M_flat" [shape=ellipse];\n'
                           '  "V_bar" [shape=box];\n')
            _write_names(dot_file, count, '  "M_nat_', '" [shape=diamond];\n')
            dot_file.write('  "M_flat" -- "V_bar" [label="defo"];\n')
            _write_names(dot_file, count, '  "V_bar" -- "M_nat_', '" [label="exoflop"];\n')
            flops.append((dot_file, '  "M_nat_', '" -- "M_nat_', '" [label="flop"];\n'))
        if json_file is not None:
            # json.dumps writes the rows that do not repeat per resolution code,
            # and the blocks go in at the end of each list, before its "\n  ]".
            fixed = {"edges": [{"label": "defo", "note": DEFO_NOTE,
                                "source": "M_flat", "target": "V_bar"}],
                     "metadata": dict(self.metadata),
                     "vertices": [{"kind": "deformation", "name": "M_flat"},
                                  {"dims": list(dims), "h2": dims[2],
                                   "kind": "stratified_union", "name": "V_bar"}]}
            edges, vertices, end = json.dumps(fixed, indent=2, sort_keys=True).split("\n  ]")
            json_file.write(edges)
            _write_names(json_file, count, ',\n    {\n      "label": "exoflop",\n'
                         '      "source": "V_bar",\n      "target": "M_nat_', '"\n    }')
            flops.append((json_file, ',\n    {\n      "label": "flop",\n'
                          f'      "note": "{FLOP_NOTE}",\n      "source": "M_nat_',
                          '",\n      "target": "M_nat_', '"\n    }'))
        low_n = min(big_n, _LOW_BITS)
        gathers = [_flop_gather(low_n, m) for m in range(big_n - low_n + 1)]
        ahead = {}  # first code of a block at most _AHEAD codes on -> its names' text
        for names in _blocks(count) if flops else ():
            # the targets' names: the block's own, then a column shifted by
            # each clear high bit, so no name costs a bit test in Python
            lo = names.start - 1
            text = ahead.pop(lo, None) or list(map(str, names))
            targets = text.copy()
            for bit in (1 << k for k in reversed(range(low_n, big_n))):
                if not lo & bit:
                    column = (ahead.get(lo + bit)
                              or list(map(str, range(names.start + bit, names.stop + bit))))
                    if bit <= _AHEAD:
                        ahead[lo + bit] = column
                    targets += column
            get = gathers[(len(targets) >> low_n) - 1]
            for fh, head, mid, tail in flops:  # head + source + mid + target + tail per edge
                sep = tail + head
                fh.write("".join(get([head + text[0] + mid, tail,
                                      *[sep + name + mid for name in text], *targets])))
        if dot_file is not None:
            dot_file.write("}\n")
        if json_file is None:
            return
        json_file.write("\n  ]" + vertices)
        # A code's orientation is its N bits: the high ones are its block's,
        # the low ones index a table of every low-bit pattern's text.  A
        # block's rows are one join of four pieces per row, head + name +
        # high + low, whose name and high slots are refilled per block.
        sep = ",\n        "
        rows = [f',\n    {{\n      "h2": {dims[2]},\n      "kind": "resolution",\n'
                '      "name": "M_nat_', "", "", ""] * (1 << low_n)
        rows[3::4] = [sep.join(bits) + "\n      ]\n    }" for bits in product("01", repeat=low_n)]
        for names, high in zip(_blocks(count), product("01", repeat=max(big_n - _LOW_BITS, 0))):
            rows[1::4] = map(str, names)
            rows[2::4] = ['",\n      "orientation": [\n        ' + sep.join((*high, ""))] * len(names)
            json_file.write("".join(rows))
        json_file.write("\n  ]" + end + "\n")


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
    return TransitionGraph(data.n_classes, data.n, mayer_vietoris(data, "refined").dims)
