"""Small resolutions and the defo / exoflop / flop transition graph.

Nodes on a common 4-cycle class must be resolved compatibly, so a small
resolution is a binary orientation per class: 2^N total rather than the
naive 2^n.  Flops flip one class orientation, which for N > 1 makes the
resolutions an N-dimensional hypercube; that extension beyond the flopped
pair is flagged in the graph metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cohomology import ConifoldData, GradedSpace, cohomology_of_closure
from .errors import GsvInputError, ResourceLimitError

MAX_CLASSES = 20

DEFO_NOTE = "each node traded for a real 3-bundle over S^3"
FLOP_NOTE = "single-class orientation flip; hypercube extension for N > 1"


@dataclass(frozen=True)
class ResolutionChoice:
    """One binary orientation per 4-cycle class."""

    orientation: Tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.orientation):
            raise GsvInputError("orientations must be 0/1")

    def label(self) -> str:
        index = 1 + int("".join(map(str, self.orientation)), 2) if self.orientation else 1
        return f"M_nat_{index}"


def enumerate_small_resolutions(data: ConifoldData) -> List[ResolutionChoice]:
    """All 2^N compatible resolutions, in binary order."""
    n_classes = data.n_classes
    if n_classes > MAX_CLASSES:
        raise ResourceLimitError(
            f"2^{n_classes} resolutions exceed the enumeration bound 2^{MAX_CLASSES}")
    out = []
    for code in range(2 ** n_classes):
        bits = tuple((code >> (n_classes - 1 - i)) & 1 for i in range(n_classes))
        out.append(ResolutionChoice(bits))
    return out


def naive_resolution_count(data: ConifoldData) -> int:
    """The per-node count 2^n that ignores the compatibility constraint."""
    return 2 ** data.n


def flop(choice: ResolutionChoice, k: int) -> ResolutionChoice:
    """Flip the orientation of class k (1-based); an involution."""
    if not 1 <= k <= len(choice.orientation):
        raise GsvInputError(
            f"class index {k} outside 1..{len(choice.orientation)}")
    bits = list(choice.orientation)
    bits[k - 1] ^= 1
    return ResolutionChoice(tuple(bits))


@dataclass(frozen=True)
class Vertex:
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


@dataclass(frozen=True)
class Edge:
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


@dataclass(frozen=True)
class TransitionGraph:
    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]
    metadata: Tuple[Tuple[str, str], ...] = ()

    def vertex_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.vertices)

    def to_json_dict(self):
        return {
            "vertices": [v.to_json_dict() for v in self.vertices],
            "edges": [e.to_json_dict() for e in self.edges],
            "metadata": dict(self.metadata),
        }

    def to_dot(self) -> str:
        lines = ["graph transitions {"]
        for v in self.vertices:
            shape = {"deformation": "ellipse", "stratified_union": "box",
                     "resolution": "diamond"}[v.kind]
            lines.append(f'  "{v.name}" [shape={shape}];')
        for e in self.edges:
            lines.append(f'  "{e.source}" -- "{e.target}" [label="{e.label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_transition_graph(data: ConifoldData,
                           smooth_dims: Optional[GradedSpace] = None) -> TransitionGraph:
    """Vertices: the smoothing, the compactified union, and all resolutions.

    Edge rules: one defo edge (smoothing to union), one exoflop edge from
    the union to every resolution, and flop edges between resolutions at
    Hamming distance one.
    """
    if data.n == 0:
        vertex = Vertex("M_flat=V_bar", "deformation",
                        dims=smooth_dims.dims if smooth_dims else None)
        return TransitionGraph((vertex,), (),
                               (("note", "transversal case: nothing to resolve"),))
    closure = cohomology_of_closure(data)
    choices = enumerate_small_resolutions(data)
    h2 = data.base.dims[2] + data.n_classes
    vertices = [Vertex("M_flat", "deformation",
                       dims=smooth_dims.dims if smooth_dims else None),
                Vertex("V_bar", "stratified_union", h2=closure.dims[2],
                       dims=closure.dims)]
    vertices += [Vertex(c.label(), "resolution", orientation=c.orientation, h2=h2)
                 for c in choices]
    edges = [Edge("M_flat", "V_bar", "defo", note=DEFO_NOTE)]
    edges += [Edge("V_bar", c.label(), "exoflop") for c in choices]
    # one flop edge per (choice, class) with the flipped bit set, so each
    # Hamming-distance-1 pair appears exactly once
    for choice in choices:
        for k in range(1, data.n_classes + 1):
            if choice.orientation[k - 1] == 0:
                edges.append(Edge(choice.label(), flop(choice, k).label(),
                                  "flop", note=FLOP_NOTE))
    metadata = (("flop_connectivity", FLOP_NOTE),
                ("compatible_resolutions", str(2 ** data.n_classes)),
                ("naive_per_node_resolutions", str(naive_resolution_count(data))))
    return TransitionGraph(tuple(vertices), tuple(edges), metadata)
