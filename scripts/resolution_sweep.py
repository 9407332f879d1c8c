#!/usr/bin/env python3
"""Sweep the transition graph over the number of 4-cycle classes.

Prints a table of vertex/edge counts for N = 0..8, iterating every edge, and
checks them against the closed forms: 2^N resolutions, 2^N exoflop edges,
N * 2^(N-1) flop edges forming the N-dimensional hypercube.  It also checks
that `len()` of the graph's vertex and edge sequences, which is computed
without building any row, gives the same counts.  Then it prints the counts
for N = 12 and 16 from `len()` alone.
"""

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
        labels = [e.label for e in graph.edges]
        counts = {k: labels.count(k) for k in ("defo", "exoflop", "flop")}
        n_vertices = sum(1 for _ in graph.vertices)
        print(row(n_classes, n_vertices, counts))
        assert (len(graph.vertices), len(graph.edges)) == (n_vertices, len(labels))
        assert graph.edge_counts() == counts
        if n_classes:
            assert n_vertices == 2 + 2 ** n_classes
            assert counts["exoflop"] == 2 ** n_classes
            assert counts["flop"] == n_classes * 2 ** (n_classes - 1)
    print("closed-form and len() counts verified for N = 0..8 by iteration")
    for n_classes in (12, 16):
        graph = build_transition_graph(conifold(n_classes))
        print(row(n_classes, len(graph.vertices), graph.edge_counts()),
              f"  ({len(graph.edges)} edges, from len() alone)")


if __name__ == "__main__":
    main()
