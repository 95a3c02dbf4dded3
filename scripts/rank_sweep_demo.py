#!/usr/bin/env python3
"""How much rank does it take to recover low-degree triangles?

Draws the benchmark's triangle-rich input graph with perfbench/gen.py, runs
`embedaudit ranksweep` on it and prints the truncated-dot-product model's
low-degree triangle density next to the original at each rank.  --seed
seeds both the graph and the sweep.  At full rank the reconstruction is
exact and the curves coincide; at low ranks the low-degree density
collapses.

Usage:
    python scripts/rank_sweep_demo.py [--triangles 200] [--ranks 1,10,50,...]
                                      [--samples 25] [--seed 5] [--out DIR]
"""

import sys
from pathlib import Path

import numpy as np

import experiment


def main() -> int:
    ap = experiment.parser(__doc__, triangles=200, samples=25, out="ranksweep_out")
    ap.add_argument("--ranks", default=None,
                    help="comma-separated ranks (default: those of 1,10,50,n/4,n/2,n "
                         "that lie in 1..n)")
    args, graph = experiment.draw(ap)
    n = graph.n
    ranks = args.ranks or ",".join(
        str(d) for d in sorted({1, 10, 50, n // 4, n // 2, n}) if 1 <= d <= n)
    curves = experiment.run(args, graph, ["ranksweep", "--ranks", ranks])

    probe = sorted({2, 4, int(np.bincount(graph.edges.ravel()).max())})
    print("\n" + " " * 8 + "".join(f"  delta(c={c})".rjust(14) for c in probe))
    for label, curve in curves.items():
        print(f"{label:>8s}" + "".join(f"{curve.value_at(c):14.6f}" for c in probe))
    print(f"\noutputs in {Path(args.out)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
