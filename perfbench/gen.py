"""Seeded benchmark inputs: t disjoint triangles plus G(n, 1/n) noise.

Vertices 3k, 3k+1, 3k+2 form triangle k, so every vertex appears in the
edge list and the loaded graph keeps all n vertices.  The noise layer is
drawn sparsely: a binomial edge count, then that many distinct random pairs
by rejection.  No O(n^2) array is ever built, so n=15000 costs megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GeneratedGraph:
    n: int
    m: int
    edges: np.ndarray        # (m, 2), u < v, lexicographically sorted


def triangles_plus_noise(n: int, seed: int) -> GeneratedGraph:
    """The ROADMAP construction on n = 3t vertices, seeded by `seed`."""
    if n < 3 or n % 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    base = 3 * np.arange(n // 3, dtype=np.int64)
    tri = np.concatenate([np.column_stack([base + a, base + b])
                          for a, b in ((0, 1), (1, 2), (0, 2))])

    n_pairs = n * (n - 1) // 2
    k = int(rng.binomial(n_pairs, 1.0 / n))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < k:
        need = k - keys.size
        u = rng.integers(0, n, size=2 * need + 16)
        v = rng.integers(0, n, size=u.size)
        ok = u != v
        lo, hi = np.minimum(u, v)[ok], np.maximum(u, v)[ok]
        fresh = np.setdiff1d(lo * n + hi, keys)       # sorted, distinct
        fresh = rng.permutation(fresh)[:need]
        keys = np.union1d(keys, fresh)

    all_keys = np.unique(np.concatenate([tri[:, 0] * n + tri[:, 1], keys]))
    edges = np.column_stack([all_keys // n, all_keys % n])
    return GeneratedGraph(n, edges.shape[0], edges)


def write_edge_list(graph: GeneratedGraph, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# triangles plus G(n,1/n) noise: n={graph.n} m={graph.m}\n")
        fh.write("\n".join(f"{u} {v}" for u, v in graph.edges.tolist()))
        fh.write("\n")
