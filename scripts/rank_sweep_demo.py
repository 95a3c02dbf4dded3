#!/usr/bin/env python3
"""How much rank does it take to recover low-degree triangles?

Sweeps the spectral embedding rank on a triangle-rich synthetic graph and
prints the truncated-dot-product model's low-degree triangle density next
to the original at each rank.  At full rank the reconstruction is exact and
the curves coincide; at low ranks the low-degree density collapses.

Usage:
    python scripts/rank_sweep_demo.py [--triangles 200] [--ranks 1,10,50,...]
"""

import argparse
import sys
from pathlib import Path

from embedaudit.cli import AuditConfig, cmd_ranksweep
from embedaudit.graph import load_curve, save_edge_list, triangle_foundation_curve
from headline_gap import build_headline_graph     # this script's directory is on sys.path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--triangles", type=int, default=200)
    ap.add_argument("--ranks", default=None,
                    help="comma-separated ranks (default: 1,10,50,...,n)")
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="ranksweep_out")
    args = ap.parse_args()

    g = build_headline_graph(args.seed, args.triangles)
    n = g.n
    if args.ranks:
        ranks = tuple(int(r) for r in args.ranks.split(","))
    else:
        ranks = tuple(sorted({1, 10, 50, n // 4, n // 2, n}))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gpath = out / "synthetic.txt"
    save_edge_list(g, gpath)
    original = triangle_foundation_curve(g)
    print(f"graph: n={n} m={g.m} triangles={original.total_triangles()}; "
          f"ranks {list(ranks)}")

    cmd_ranksweep(AuditConfig(
        graph_path=str(gpath), output_dir=str(out),
        num_samples=args.samples, seed=args.seed + 1, rank_sweep_list=ranks))

    probe = [2, 4, int(g.degrees.max())]
    header = "rank".rjust(6) + "".join(f"  delta(c={c})".rjust(14) for c in probe)
    print("\n" + header)
    print("  orig" + "".join(f"{original.value_at(c):14.6f}" for c in probe))
    for d in ranks:
        curve = load_curve(out / f"curve_rank{d}.csv", n)
        print(f"{d:6d}" + "".join(f"{curve.value_at(c):14.6f}" for c in probe))
    print(f"\noutputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
