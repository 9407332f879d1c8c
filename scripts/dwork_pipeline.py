#!/usr/bin/env python3
"""End-to-end walkthrough on the symmetric 125-node quintic.

Runs: exact singular-ray search -> both sheet stratifications -> cohomology
tables for a sample node/4-cycle incidence -> transition graph.  All output
is deterministic.

The base cohomology and the node-to-4-cycle incidence are external inputs by
design; the sample ConifoldData below is illustrative, not derived from the
polynomial.

Usage:
    python3 scripts/dwork_pipeline.py [--dot graph.dot]
"""

import argparse
import json
import time

from gsvkit import (ConifoldData, CyclotomicField, GradedSpace, build_ground_state_variety,
                    build_transition_graph, cohomology_report, parse_polynomial,
                    strata_report, verify_transversal)
from gsvkit.cohomology import cohomology_report_text

DWORK = "s0^5+s1^5+s2^5+s3^5+s4^5-5*s0*s1*s2*s3*s4"


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dot", help="write the transition graph here in DOT form")
    args = parser.parse_args()

    field = CyclotomicField(5)
    g = parse_polynomial(DWORK, field)

    banner("1. singular-ray search (exact, root-of-unity ansatz)")
    t0 = time.perf_counter()
    report = verify_transversal(g, "ansatz")
    print(f"polynomial: {g}")
    print(f"rays found: {len(report.rays)} "
          f"(all nodes: {report.isolated}) in {time.perf_counter() - t0:.2f}s")
    print("first three rays:")
    for ray in report.rays[:3]:
        print("  (" + ", ".join(map(str, ray.representative)) + ")")

    banner("2. stratification, positive sheet")
    positive = build_ground_state_variety(report, "pos")
    print(f"strata: {len(positive.strata)}, attachments: {len(positive.attachments)}")
    print("kinds: MainConifold x1, Exocurve x125, NodePoint x125")

    banner("3. stratification, negative sheet (plum product)")
    negative = build_ground_state_variety(report, "neg")
    print("\n".join(strata_report(negative).splitlines()[:6]))
    print(f"  ... {len(negative.strata) - 1} exocurves total")

    banner("4. cohomology for a sample incidence (n=125 on one 4-cycle class)")
    base = GradedSpace((1, 0, 1, 100, 2, 0, 1))
    data = ConifoldData(base, 125, [list(range(1, 126))])
    print(cohomology_report_text(cohomology_report(data)))

    banner("5. transition graph")
    graph = build_transition_graph(data)
    counts = graph.edge_counts()
    print(f"vertices: {graph.vertex_count()}, edges: {sum(counts.values())}")
    for label, count in counts.items():
        print(f"  {label} edges: {count}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            graph.write(dot_file=handle)
        print(f"wrote {args.dot}")

    banner("summary JSON (analysis report)")
    print(json.dumps({"rays": len(report.rays), "transversal": report.transversal,
                      "refined_h2": cohomology_report(data)["refined_dims"][2]},
                     sort_keys=True))


if __name__ == "__main__":
    main()
