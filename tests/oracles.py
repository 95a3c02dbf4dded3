"""Independent brute-force oracles shared by the test suite.

Everything here works from dense adjacency matrices and explicit triple/pair
enumeration, deliberately avoiding the library's own enumeration code paths.
``traced_peak`` measures the memory bounds of the test suite.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np


def dense_adjacency(g):
    """Adjacency matrix rebuilt from neighbor queries only."""
    a = np.zeros((g.n, g.n), dtype=bool)
    for u in range(g.n):
        for v in g.neighbors(u):
            a[u, v] = True
    return a


def recount_degrees(g):
    return dense_adjacency(g).sum(axis=1).astype(int)


def assert_curve_is(curve, points):
    """The curve's threshold and delta arrays equal the (c, delta) points
    exactly."""
    assert np.array_equal(curve.thresholds, np.array([c for c, _ in points], dtype=np.int64))
    assert np.array_equal(curve.deltas, np.array([d for _, d in points], dtype=np.float64))


def brute_force_triangle_maxdeg(a):
    """All-triples O(n^3) enumeration.

    Returns (total, counts) where counts[c] is the number of triangles whose
    maximum endpoint degree equals c.
    """
    n = a.shape[0]
    deg = a.sum(axis=1).astype(int)
    counts = np.zeros(int(deg.max()) + 1 if n else 1, dtype=np.int64)
    total = 0
    for i, j, k in combinations(range(n), 3):
        if a[i, j] and a[j, k] and a[i, k]:
            counts[max(deg[i], deg[j], deg[k])] += 1
            total += 1
    return total, counts


def brute_force_curve(a, n_ref):
    """Curve points [(c, delta)] at every distinct degree of the graph."""
    deg = a.sum(axis=1).astype(int)
    _, counts = brute_force_triangle_maxdeg(a)
    cum = np.cumsum(counts)
    return [(int(c), float(cum[c]) / n_ref) for c in np.unique(deg)]


def all_triples(n):
    """Index array of every i < j < k triple, shape (C(n,3), 3)."""
    return np.array(list(combinations(range(n), 3)), dtype=np.int64)


def brute_force_curve_vectorized(a, n_ref, triples):
    """Same all-triples enumeration as brute_force_curve, batched over a
    precomputed triple index array (for timed sweeps)."""
    deg = a.sum(axis=1).astype(int)
    i, j, k = triples[:, 0], triples[:, 1], triples[:, 2]
    is_tri = a[i, j] & a[j, k] & a[i, k]
    maxdeg = np.maximum(np.maximum(deg[i], deg[j]), deg[k])[is_tri]
    counts = np.bincount(maxdeg, minlength=int(deg.max()) + 1)
    cum = np.cumsum(counts)
    return [(int(c), float(cum[c]) / n_ref) for c in np.unique(deg)]


def random_gnp(rng, n, p):
    """Erdos-Renyi adjacency matrix drawn with the given generator."""
    upper = rng.random((n, n)) < p
    a = np.triu(upper, k=1)
    return (a | a.T)


def pair_score(e, i, j):
    """The pair score sum_r lambda_r psi_i[r] psi_j[r] of a spectral
    embedding, or the dot product of a plain one, as an explicit sum."""
    lam = e.eigenvalues if e.kind == "spectral" else np.ones(e.d)
    return math.fsum(float(lam[r] * e.vectors[i, r] * e.vectors[j, r]) for r in range(e.d))


def pair_probability(model, emb, i, j):
    """p_ij of the model, from a 1 x 1 block of its prob_block."""
    return float(model.prob_block(emb, [i], [j])[0, 0])


def probability_sum(emb, model):
    """Sum of p over unordered pairs, from the exact expected degrees."""
    from embedaudit.sampling import expected_degrees

    return math.fsum(expected_degrees(emb, model)) / 2


def pairwise_probabilities(model, emb):
    """Probability matrix built entry by entry from 1 x 1 blocks."""
    n = emb.n
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                p[i, j] = pair_probability(model, emb, i, j)
    return p


def expected_triangles_triple_sum(p):
    """Direct sum over unordered triples of p_ij p_jk p_ik."""
    n = p.shape[0]
    return sum(p[i, j] * p[j, k] * p[i, k]
               for i, j, k in combinations(range(n), 3))


def numeric_rank_svd(m, rel_tol=1e-9):
    """Rank as the count of singular values above rel_tol * sigma_max."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def _masked_prob_tiles(e, model):
    """(tile_index, (i0, i1), (j0, j1), p) per pair tile of side blocks.TILE,
    by a plain loop: p is the model's probability tile with every entry
    outside i < j at 0."""
    from embedaudit import blocks

    for t, (i0, i1), (j0, j1) in blocks.iter_pair_tiles(e.n, blocks.TILE):
        rows, cols = np.arange(i0, i1), np.arange(j0, j1)
        p = model.prob_block(e, rows, cols)
        yield t, (i0, i1), (j0, j1), np.where(cols[None, :] > rows[:, None], p, 0.0)


def _skip_stream_reference(rng, n, rate):
    """Positions kept by a Bernoulli(rate) walk over range(n), one geometric
    gap at a time, from batches of the library's size."""
    if rate >= 1.0:
        return list(range(n))
    scale = -1.0 / math.log1p(-rate)
    mean = n * rate
    size = int(mean + 4.0 * math.sqrt(mean)) + 16
    kept, pos = [], -1.0
    while pos < n:
        for gap in rng.standard_exponential(size):
            pos += math.floor(gap * scale) + 1.0
            if pos < n:
                kept.append(int(pos))
    return kept


def per_sample_edges_reference(e, model, seed, sample_index):
    """Edge array of one sample drawn by a tile loop of its own, with the
    same (seed, sample_index, tile_index) generators as the library.

    Per tile: a floor rate tau from the tile's mass, one skip stream at rate
    tau over every position, keeping a candidate with p <= tau iff
    u * tau < p; then one uniform u per position with tau < p, in ascending
    order, keeping it iff u < p.
    """
    parts = []
    for t, rows, cols, p in _masked_prob_tiles(e, model):
        flat = p.ravel()
        mass = flat.sum()
        if not mass > 0:
            continue
        tau = 2.0 ** min(0, math.floor(0.5 * (math.log2(mass) - math.log2(flat.size))))
        rng = np.random.default_rng(np.random.SeedSequence((seed, sample_index, t)))
        hits = []
        cand = _skip_stream_reference(rng, flat.size, tau)
        for pos, u in zip(cand, rng.random(len(cand))):
            if flat[pos] <= tau and u * tau < flat[pos]:
                hits.append(pos)
        above = [pos for pos in range(flat.size) if flat[pos] > tau]
        for pos, u in zip(above, rng.random(len(above))):
            if u < flat[pos]:
                hits.append(pos)
        for pos in sorted(hits):
            parts.append((rows[0] + pos // p.shape[1], cols[0] + pos % p.shape[1]))
    return np.array(parts, dtype=np.int64).reshape(-1, 2)


def tile_order_moment_reference(e, model):
    """(sum_j p_ij, sum_j p_ij^2) per vertex by a separate tile pass that
    adds each tile's row sums, then its column sums, in tile order."""
    n = e.n
    totals = [np.zeros(n), np.zeros(n)]
    for _, rows, cols, p in _masked_prob_tiles(e, model):
        for total, q in zip(totals, (p, p * p)):
            total[rows[0]:rows[1]] += q.sum(axis=1)
            total[cols[0]:cols[1]] += q.sum(axis=0)
    return totals[0], totals[1]


def csr_from_edges_reference(n, edges):
    """(indptr, indices) by row-wise dedup and lexsort of both directions."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    e = np.unique(np.sort(e, axis=1), axis=0)
    both = np.concatenate([e, e[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both[:, 0], minlength=n), out=indptr[1:])
    return indptr, both[:, 1].copy()


def lrdp_features_reference(e, pairs):
    """Pair scores of every fitted pair from two whole-list gathers."""
    left = e.vectors[pairs[:, 0]] * (e.eigenvalues if e.kind == "spectral" else 1.0)
    return np.einsum("ij,ij->i", left, e.vectors[pairs[:, 1]])


def lrhp_features_reference(e, pairs):
    """Hadamard features of every fitted pair in one (pairs x d) product,
    in the library's operand order (v_i * lambda) * v_j."""
    left = e.vectors[pairs[:, 0]] * (e.eigenvalues if e.kind == "spectral" else 1.0)
    return left * e.vectors[pairs[:, 1]]


def fit_sample_reference(g, seed):
    """(pairs, y, w) of a logistic fit: every edge with weight 1, then ten
    sampled non-edges per edge, weighted (#non-edges) / (#sampled)."""
    from embedaudit import models

    pos = g.edge_array()
    neg = models._sample_nonedges(g, 10 * g.m, np.random.default_rng(seed))
    n_non = g.n * (g.n - 1) // 2 - g.m
    pairs = np.concatenate([pos, neg])
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    w = np.concatenate([np.ones(len(pos)), np.full(len(neg), n_non / len(neg))])
    return pairs, y, w


def weighted_logistic_reference(design, y, w):
    """Damped-Newton weighted logistic MLE on a whole (pairs x (features + 1))
    design whose last column is ones; returns (coef, intercept, iters).
    Constant feature columns are moved out and keep coefficient 0."""
    from embedaudit.blocks import row_chunks
    from embedaudit.models import _MLE_GRAD_TOL, _MLE_MAX_ITER, _sigmoid_inplace

    npts, nfeat = design.shape[0], design.shape[1] - 1
    active = np.array([np.ptp(design[:, c]) > 0 for c in range(nfeat)], dtype=bool)
    if not active.all():
        keep = np.append(np.flatnonzero(active), nfeat)
        for dst, src in enumerate(keep):
            design[:, dst] = design[:, src]
        design = design[:, :keep.size]
    beta = np.zeros(design.shape[1])
    scale = max(1.0, float(w.sum()))

    def nll(b):
        z = design @ b
        return float(np.sum(w * (np.logaddexp(0.0, z) - y * z)))

    current = nll(beta)
    iters = 0
    for iters in range(1, _MLE_MAX_ITER + 1):
        p = _sigmoid_inplace(design @ beta)
        grad = design.T @ (w * (p - y))
        if np.max(np.abs(grad)) <= _MLE_GRAD_TOL * scale:
            iters -= 1
            break
        curv = w * p * (1.0 - p) + 1e-12
        hess = np.zeros((beta.size, beta.size))
        for r0, r1 in row_chunks(npts, beta.size):
            rows = design[r0:r1]
            hess += rows.T @ (rows * curv[r0:r1, None])
        hess[np.diag_indices_from(hess)] += 1e-10 * (1.0 + np.trace(hess))
        step = np.linalg.solve(hess, grad)
        # backtrack until the objective stops increasing
        t = 1.0
        for _ in range(50):
            candidate = beta - t * step
            value = nll(candidate)
            if value <= current + 1e-12:
                beta, current = candidate, value
                break
            t *= 0.5
        else:
            break

    coef = np.zeros(nfeat)
    coef[active] = beta[:-1]
    return coef, float(beta[-1]), iters


def softmax_log_scale_reference(e, g):
    """log s_i from one logsumexp call per blocks.TILE x n score block."""
    from scipy.special import logsumexp

    from embedaudit import blocks

    n = e.n
    log_z = np.empty(n)
    for i0 in range(0, n, blocks.TILE):
        i1 = min(i0 + blocks.TILE, n)
        s = e.score_block(np.arange(i0, i1), np.arange(n))
        for r, i in enumerate(range(i0, i1)):
            s[r, i] = -np.inf
        log_z[i0:i1] = logsumexp(s, axis=1)
    deg = g.degrees.astype(np.float64)
    with np.errstate(divide="ignore"):
        return np.where(deg > 0, np.log(np.maximum(deg, 1e-300)) - log_z, -np.inf)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
