"""Numeric tools behind the rank lower bound for triangle-rich embeddings.

These are the executable counterparts of the bound's building blocks: the
trace-squared rank bound, the unit-vector packing bound, the greedy
independent-set floor, signed dot-product mass balance, and the
core-pruning procedure that replays the bound's construction on a concrete
vector set and certifies a rank lower bound for the surviving core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import Embedding
from .graph import Graph
from .models import TruncatedDot
from .sampling import expected_degrees, expected_triangles_exact

_NUMERIC_RANK_RTOL = 1e-9
# largest | |u| - 1 | that packing_max_dot accepts as a unit vector
_UNIT_NORM_TOL = 1e-9


def rank_lemma_bound(m) -> float:
    """(sum of diagonal)^2 / (sum of squared entries): a rank lower bound.

    Valid for any real square matrix; tight on the identity and on the
    all-ones matrix.  The zero matrix has no defined bound.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    denom = float(np.sum(a * a))
    if denom == 0.0:
        raise ValueError("rank bound undefined for the zero matrix")
    trace = float(np.trace(a))
    return trace * trace / denom


def numeric_rank(m) -> int:
    """Rank as the number of singular values above 1e-9 * sigma_max."""
    s = np.linalg.svd(np.asarray(m, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _NUMERIC_RANK_RTOL * s[0]))


def packing_max_dot(u) -> float:
    """Largest pairwise dot product among >= 2 unit vectors.

    With at least 4d vectors in dimension d the result is guaranteed to be
    at least 1/(4d): that many unit vectors cannot all be near-orthogonal.
    """
    vecs = np.asarray(u, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[0] < 2:
        raise ValueError("need at least two vectors (rows)")
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"inputs must be unit vectors (deviation {worst:.2e})")
    gram = vecs @ vecs.T
    np.fill_diagonal(gram, -np.inf)
    return float(gram.max())


def independent_set_floor(h: int, b: int) -> int:
    """Guaranteed independent-set size in a graph with h vertices, max degree b."""
    return math.ceil(h / (b + 1)) if h else 0


def greedy_independent_set(g: Graph) -> np.ndarray:
    """Pick-and-remove independent set, lowest index first.

    Each pick removes at most (max degree + 1) vertices, so the result has
    at least ceil(n / (max degree + 1)) members.  Independence is verified
    before returning.
    """
    alive = np.ones(g.n, dtype=bool)
    chosen = []
    for v in range(g.n):
        if alive[v]:
            chosen.append(v)
            alive[v] = False
            alive[g.neighbors(v)] = False
    out = np.array(chosen, dtype=np.int64)
    members = set(chosen)
    for v in chosen:
        if any(int(w) in members for w in g.neighbors(v)):
            raise RuntimeError("greedy set is not independent; graph corrupt?")
    return out


def negative_dot_mass(vectors) -> tuple[float, float]:
    """(negative, positive) dot-product mass over ordered pairs incl. i=j.

    Expanding 0 <= (sum_i w_i) . (sum_i w_i) shows the negative mass can
    never exceed the positive mass (diagonal terms land on the positive
    side).
    """
    w = np.asarray(vectors, dtype=np.float64)
    gram = w @ w.T
    neg = float(-gram[gram < 0].sum())
    pos = float(gram[gram > 0].sum())
    return neg, pos


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of replaying the core-pruning construction on real vectors.

    The pipeline drops high-expected-degree vectors, clips extreme lengths,
    buckets the survivors by power-of-two length, keeps only buckets large
    enough relative to the measured triangle density, and finally applies
    the trace-squared rank bound to the core's Gram matrix.  ``bound`` is a
    certified lower bound on the rank of the core (hence of the input).
    """

    kept_indices: np.ndarray          # survivors of degree cap + length window
    buckets: dict                     # exponent r -> indices with |v| in [2^r, 2^(r+1))
    core_indices: np.ndarray          # union of the buckets that pass the size floor
    bucket_threshold: float
    delta_est: float
    gram_trace: float
    gram_sq_sum: float
    bound: float
    emptied_at: str | None = None     # pipeline stage that left nothing, if any


def core_rank_certificate(e: Embedding, c: float) -> RankCertificate:
    """Replay the core construction on a plain embedding at degree cap c.

    delta_est is the exact expected triangle count among the vectors that
    survive the degree cap (truncated-dot-product probabilities), divided
    by the full vector count; it stands in for the unknown true triangle
    density when sizing the bucket floor.  Desk-scale only: the exact
    triangle pass is O(n^3) and guarded at n = 500.
    """
    if e.eigenvalues is not None:
        raise ValueError("certificate operates on plain embeddings")
    if c <= 0:
        raise ValueError("degree cap c must be positive")
    n = e.n
    if n < 2:
        raise ValueError("need at least two vectors")

    def empty(stage, kept, buckets, delta_est, threshold):
        return RankCertificate(kept, buckets, np.empty(0, np.int64), threshold,
                               delta_est, 0.0, 0.0, 0.0, emptied_at=stage)

    tdp = TruncatedDot()
    exp_deg = expected_degrees(e, tdp)
    degree_ok = np.flatnonzero(exp_deg <= c)
    if degree_ok.size == 0:
        return empty("degree_cap", degree_ok, {}, 0.0, 0.0)

    delta_est = expected_triangles_exact(Embedding(e.vectors[degree_ok]), tdp) / n

    lengths = np.linalg.norm(e.vectors, axis=1)
    lo, hi = n ** -2.0, 2.0 * math.sqrt(n)
    window = degree_ok[(lengths[degree_ok] >= lo) & (lengths[degree_ok] <= hi)]
    if window.size == 0:
        return empty("length_window", window, {}, delta_est, 0.0)

    exponents = np.floor(np.log2(lengths[window])).astype(int)
    buckets = {int(r): window[exponents == r] for r in np.unique(exponents)}
    threshold = delta_est / (60.0 * c * c) * n / math.log2(n)
    surviving = [idx for r, idx in sorted(buckets.items()) if idx.size >= threshold]
    if not surviving:
        return empty("bucket_filter", window, buckets, delta_est, threshold)

    core = np.sort(np.concatenate(surviving))
    gram = e.vectors[core] @ e.vectors[core].T
    trace = float(np.trace(gram))
    sq_sum = float(np.sum(gram * gram))
    return RankCertificate(window, buckets, core, threshold, delta_est,
                           trace, sq_sum, trace * trace / sq_sum)
