#!/usr/bin/env python3
"""Sweep the transition graph over the number of 4-cycle classes.

Prints a table of vertex/edge counts for N = 0..8 and checks them against
the closed forms: 2^N resolutions, 2^N exoflop edges, N * 2^(N-1) flop
edges forming the N-dimensional hypercube.
"""

from gsvkit import ConifoldData, GradedSpace, build_transition_graph


def conifold(n_classes):
    if n_classes == 0:
        return ConifoldData(GradedSpace((1, 0, 1, 2, 1, 0, 1)), 0, [])
    base = GradedSpace((1, 0, 1, 2, 1 + n_classes, 0, 1))
    classes = [[k] for k in range(1, n_classes + 1)]
    return ConifoldData(base, n_classes, classes)


def main():
    print(f"{'N':>3} {'vertices':>9} {'defo':>5} {'exoflop':>8} {'flop':>6}")
    for n_classes in range(9):
        graph = build_transition_graph(conifold(n_classes))
        labels = [e.label for e in graph.edges]
        counts = {k: labels.count(k) for k in ("defo", "exoflop", "flop")}
        print(f"{n_classes:>3} {len(graph.vertices):>9} {counts['defo']:>5} "
              f"{counts['exoflop']:>8} {counts['flop']:>6}")
        if n_classes:
            assert len(graph.vertices) == 2 + 2 ** n_classes
            assert counts["exoflop"] == 2 ** n_classes
            assert counts["flop"] == n_classes * 2 ** (n_classes - 1)
    print("closed-form counts verified for N = 1..8")


if __name__ == "__main__":
    main()
