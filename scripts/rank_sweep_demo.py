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

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))   # the checkout root, for perfbench/
from embedaudit import cli
from embedaudit.graph import load_curve
from perfbench import gen


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--triangles", type=int, default=200)
    ap.add_argument("--ranks", default=None,
                    help="comma-separated ranks (default: those of 1,10,50,n/4,n/2,n "
                         "that lie in 1..n)")
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out", default="ranksweep_out")
    args = ap.parse_args()

    try:
        graph = gen.triangles_plus_noise(3 * args.triangles, args.seed)
    except ValueError as exc:
        ap.error(str(exc))
    n = graph.n
    ranks = args.ranks or ",".join(
        str(d) for d in sorted({1, 10, 50, n // 4, n // 2, n}) if 1 <= d <= n)
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    gen.write_edge_list(graph, out / "synthetic.txt")
    try:
        cli.main(["ranksweep", "--graph", str(out / "synthetic.txt"), "--ranks", ranks,
                  "--samples", str(args.samples), "--seed", str(args.seed), "--out", str(out)])
    except (SystemExit, Exception):
        # the CLI removes what it wrote on these; take back the input and the directory
        (out / "synthetic.txt").unlink()
        if made:
            out.rmdir()
        raise

    swept = json.loads((out / "report.json").read_text())["config"]["rank_sweep_list"]
    probe = sorted({2, 4, int(np.bincount(graph.edges.ravel()).max())})
    print("\n" + " " * 8 + "".join(f"  delta(c={c})".rjust(14) for c in probe))
    for label in ["original", *(f"rank{d}" for d in swept)]:
        curve = load_curve(out / f"curve_{label}.csv", n)
        print(f"{label:>8s}" + "".join(f"{curve.value_at(c):14.6f}" for c in probe))
    print(f"\noutputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
