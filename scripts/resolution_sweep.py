#!/usr/bin/env python3
"""Sweep the transition graph over the number of 4-cycle classes.

Prints a table of vertex/edge counts for N = 0..8, counted from the rows of
the graph's JSON output, and checks them against the closed forms: 2^N
resolutions, 2^N exoflop edges, N * 2^(N-1) flop edges forming the
N-dimensional hypercube.  It also checks that the graph's `vertex_count()`
and `edge_counts()`, which build no row, give the same counts.  Then it
prints the counts for N = 12 and 16 from those closed forms alone.
"""

import io
import json

from gsvkit import ConifoldData, GradedSpace, build_transition_graph


def conifold(n_classes):
    if n_classes == 0:
        return ConifoldData(GradedSpace((1, 0, 1, 2, 1, 0, 1)), 0, [])
    base = GradedSpace((1, 0, 1, 2, 1 + n_classes, 0, 1))
    classes = [[k] for k in range(1, n_classes + 1)]
    return ConifoldData(base, n_classes, classes)


def row(n_classes, n_vertices, counts):
    return (f"{n_classes:>3} {n_vertices:>9} {counts['defo']:>5} "
            f"{counts['exoflop']:>8} {counts['flop']:>8}")


def main():
    print(f"{'N':>3} {'vertices':>9} {'defo':>5} {'exoflop':>8} {'flop':>8}")
    for n_classes in range(9):
        graph = build_transition_graph(conifold(n_classes))
        out = io.StringIO()
        graph.write(json_file=out)
        rows = json.loads(out.getvalue())
        labels = [e["label"] for e in rows["edges"]]
        counts = {k: labels.count(k) for k in ("defo", "exoflop", "flop")}
        n_vertices = len(rows["vertices"])
        print(row(n_classes, n_vertices, counts))
        assert graph.vertex_count() == n_vertices
        assert graph.edge_counts() == counts
        if n_classes:
            assert n_vertices == 2 + 2 ** n_classes
            assert counts["exoflop"] == 2 ** n_classes
            assert counts["flop"] == n_classes * 2 ** (n_classes - 1)
    print("closed-form counts verified for N = 0..8 against the JSON rows")
    for n_classes in (12, 16):
        graph = build_transition_graph(conifold(n_classes))
        counts = graph.edge_counts()
        print(row(n_classes, graph.vertex_count(), counts),
              f"  ({sum(counts.values())} edges, from the closed forms alone)")


if __name__ == "__main__":
    main()
