#!/usr/bin/env python3
"""Desk-scale replication of the low-degree triangle gap.

Draws the benchmark's input graph with perfbench/gen.py: 1000 disjoint
triangles (n=3000) under a sparse G(n, 1/n) noise layer.  Runs
`embedaudit audit` on it and compares the original triangle-foundation curve
against the max-over-samples curve of each edge model.  --seed seeds both
the graph and the audit.  At its defaults this is the north-star command:
d=100, all four models, 100 samples each, on the benchmark's seed-5 graph.
The truncated-dot-product model loses 2-3 orders of magnitude of low-degree
triangle density.

Usage:
    python scripts/headline_gap.py [--triangles 1000] [--dim 100]
                                   [--samples 100] [--seed 5]
                                   [--models tdp,lrdp,lrhp,softmax] [--out DIR]
"""

import sys
from pathlib import Path

import numpy as np

import experiment


def main() -> int:
    ap = experiment.parser(__doc__, triangles=1000, samples=100, out="headline_out")
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--models", default="tdp,lrdp,lrhp,softmax")
    args, graph = experiment.draw(ap)
    curves = experiment.run(args, graph,
                            ["audit", "--dim", str(args.dim), "--models", args.models])

    out = Path(args.out)
    models = list(curves)[1:]
    probe = sorted({2, 3, 4, 6, 10, 20, int(np.bincount(graph.edges.ravel()).max())})
    print(f"\n{'c':>5s}" + "".join(f" {name:>12s}" for name in curves))
    for c in probe:
        print(f"{c:5d}" + "".join(f" {curve.value_at(c):12.6f}" for curve in curves.values()))

    o, worst = curves["original"].value_at(4), max(curves[m].value_at(4) for m in models)
    gap = "inf" if worst == 0 else f"{o / worst:.0f}x"
    print(f"\ndelta(4): original {o:.4f}, best model {worst:.6f} -> gap {gap}")
    print(f"outputs in {out}/ (report: {out / 'report.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
