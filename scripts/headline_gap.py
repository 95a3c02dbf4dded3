#!/usr/bin/env python3
"""Desk-scale replication of the low-degree triangle gap.

Builds a synthetic graph of 1000 disjoint triangles (n=3000) under a sparse
G(n, 1/n) noise layer, embeds it spectrally, and compares the original
triangle-foundation curve against the max-over-samples curve of each edge
model.  With default settings the truncated-dot-product model loses 2-3
orders of magnitude of low-degree triangle density.

Usage:
    python scripts/headline_gap.py [--dim 100] [--samples 100] [--seed 2024]
                                   [--models tdp,softmax] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from embedaudit.cli import AuditConfig, cmd_audit
from embedaudit.graph import Graph, load_curve, save_edge_list, triangle_foundation_curve


def build_headline_graph(seed: int, triangles: int = 1000) -> Graph:
    rng = np.random.default_rng(seed)
    n = 3 * triangles
    tri = [(3 * t + a, 3 * t + b) for t in range(triangles)
           for a, b in ((0, 1), (1, 2), (0, 2))]
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < 1.0 / n
    edges = np.concatenate([np.array(tri), np.column_stack([iu[mask], ju[mask]])])
    return Graph.from_edges(n, edges)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=100)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--triangles", type=int, default=1000)
    ap.add_argument("--models", default="tdp")
    ap.add_argument("--out", default="headline_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g = build_headline_graph(args.seed, args.triangles)
    gpath = out / "synthetic.txt"
    save_edge_list(g, gpath, header_lines=[f"synthetic triangles seed={args.seed}"])
    original = triangle_foundation_curve(g)
    print(f"graph: n={g.n} m={g.m} triangles={original.total_triangles()}")

    config = AuditConfig(
        graph_path=str(gpath), output_dir=str(out), dim=args.dim,
        models=tuple(m.strip() for m in args.models.split(",")),
        num_samples=args.samples, seed=args.seed + 1)
    report = cmd_audit(config)

    print(f"\n{'c':>5s} {'original':>12s}", end="")
    for name in config.models:
        print(f" {name:>12s}", end="")
    print()
    probe = sorted({2, 3, 4, 6, 10, 20, int(g.degrees.max())})
    curves = {name: load_curve(out / f"curve_{name}.csv", g.n) for name in config.models}
    for c in probe:
        print(f"{c:5d} {original.value_at(c):12.6f}", end="")
        for name in config.models:
            print(f" {curves[name].value_at(c):12.6f}", end="")
        print()

    o, worst = original.value_at(4), max(curves[m].value_at(4) for m in config.models)
    gap = "inf" if worst == 0 else f"{o / worst:.0f}x"
    print(f"\ndelta(4): original {o:.4f}, best model {worst:.6f} -> gap {gap}")
    print(f"outputs in {out}/ (report: {out / 'report.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
