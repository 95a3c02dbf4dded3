"""Draw graphs from an (embedding, edge model) pair; exact expectations.

Every unordered pair (i, j) is an independent Bernoulli trial with the
model's probability.  Randomness is organized per pair tile: the generator
for a tile is seeded from (seed, sample_index, tile_index), so a sampled
graph is bit-identical across runs and processes.  The tiles are those of
``blocks.upper_tiles``, whose fixed side ``blocks.TILE`` is part of what
a sample depends on.

One private walk over ``blocks.upper_tiles``, ``_pair_walk``, serves every
O(n^2) pass in this module: per tile it takes the masked probability tile
once, draws the edges of every requested sample from it, and adds the
tile's row and column sums of p to the per-vertex totals in tile order.  A
whole set of samples plus the expected degrees therefore costs one walk,
and the draws and the summation order are those of separate passes.  The
walk keeps each sample's edges as int32 offsets within their tile, 4 bytes
an edge; ``_store_edges`` makes one sample's (m, 2) edge array from them,
and ``curve_over_samples`` holds one such array at a time.

A sample's draw costs O(L tau + N_above) per tile of L entries, not O(L),
where N_above <= sum p / tau (Markov) counts the entries with p > tau (skip
sampling, Batagelj & Brandes 2005).  From the tile alone, ``_draw_plan``
sets a floor rate tau, a power of two near sqrt(mean p), and lists the
entries above it.  Per sample, ``_draw_tile`` walks one geometric-skip
stream at rate tau over the whole tile and keeps a position iff p <= tau
and u tau < p, then draws one uniform u per entry above tau, in ascending
order, and keeps it iff u < p.  Each pair is thus kept with probability
exactly p, independently of every other pair.  The plan depends on the
tile only, never on which samples are drawn, so sample s is the same alone
or drawn together with others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import upper_tiles
from .graph import Graph, TriangleFoundationCurve, edge_curve, union_grid

_EXACT_TRIANGLE_GUARD = 500


def _tile_rng(seed: int, sample_index: int, tile_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, sample_index, tile_index)))


def _draw_plan(flat):
    """(tau, above) of a raveled p-tile, or None when its mass is 0.

    tau = 2^min(0, floor(log2(mass / L) / 2)), so at most mass / tau entries
    lie above it (Markov); ``above`` lists their ascending flat indices.
    """
    mass = flat.sum()
    if not mass > 0:
        return None
    k = math.floor(0.5 * (math.log2(mass) - math.log2(flat.size)))
    tau = math.ldexp(1.0, min(0, k))
    return tau, np.flatnonzero(flat > tau)


def _bernoulli_positions(rng, n: int, rate: float) -> np.ndarray:
    """Ascending positions of a Bernoulli(rate) subset of range(n).

    Gaps between kept positions are geometric, 1 + floor(E / -log(1 - rate))
    with E ~ Exp(1), drawn in batches sized to cover n with high
    probability; a short batch is followed by another.
    """
    if rate >= 1.0:
        return np.arange(n)
    scale = -1.0 / math.log1p(-rate)
    mean = n * rate
    size = int(mean + 4.0 * math.sqrt(mean)) + 16
    parts, last = [], -1.0
    while last < n:
        pos = rng.standard_exponential(size)
        pos *= scale
        np.floor(pos, out=pos)
        pos += 1.0
        pos[0] += last
        np.cumsum(pos, out=pos)
        last = pos[-1]
        parts.append(pos)
    pos = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return pos[:np.searchsorted(pos, n)].astype(np.intp)


def bernoulli_pairs(rng, n: int, rate: float):
    """(i, j): the ascending pairs i < j of a Bernoulli(rate) subset of all
    n(n-1)/2 pairs, 0 < rate <= 1.

    One ``_bernoulli_positions`` stream runs over the row-major pair index;
    each drawn index is unranked exactly in int64, into j in place.
    """
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2        # the index of pair (i, i + 1)
    j = _bernoulli_positions(rng, n * (n - 1) // 2, rate).astype(np.int64, copy=False)
    i = np.searchsorted(starts, j, side="right")
    i -= 1
    j -= starts[i]
    j += i
    j += 1
    return i, j


def _draw_tile(rng, flat, plan):
    """(hits, examined): ascending flat indices of one sample's edges in the
    tile, and the number of positions the draw looked at."""
    tau, above = plan
    cand = _bernoulli_positions(rng, flat.size, tau)
    p = flat[cand]
    low = cand[(p <= tau) & (rng.random(cand.size) * tau < p)]
    high = above[rng.random(above.size) < flat[above]]
    return np.sort(np.concatenate((low, high))), cand.size + above.size


def _pair_walk(e, model, *, seed: int = 0, sample_indices=()):
    """One pass over the pair tiles; returns (stores, degrees, examined).

    ``stores[k]`` holds the edges of sample ``sample_indices[k]`` compactly:
    for each tile where it has any, the tile's origin (i0, j0) and width and
    the ascending int32 flat offsets of its edges in the tile.
    ``_store_edges`` turns a store into the sample's edge array.
    ``degrees`` is the per-vertex sum of p over all pairs.  ``examined``
    counts the pair positions that the draws of all samples looked at.
    """
    n = e.n
    stores = [[] for _ in sample_indices]
    examined = 0
    degrees = np.zeros(n)
    for t, rows, cols, p in upper_tiles(n, lambda r, c: model.prob_block(e, r, c)):
        flat = p.ravel()
        plan = _draw_plan(flat) if stores else None
        if plan is not None:
            origin = (int(rows[0]), int(cols[0]), p.shape[1])
            for store, s in zip(stores, sample_indices):
                hits, looked = _draw_tile(_tile_rng(seed, s, t), flat, plan)
                examined += looked
                if hits.size:
                    store.append((*origin, hits.astype(np.int32)))
        degrees[rows] += p.sum(axis=1)
        degrees[cols] += p.sum(axis=0)
        del p, flat, plan              # before the next tile is built
    return stores, degrees, examined


def _store_edges(store) -> np.ndarray:
    """The (m, 2) edge array (i < j, in tile order) of one sample's store
    from ``_pair_walk``."""
    edges = np.empty((sum(hits.size for *_, hits in store), 2), dtype=np.int64)
    at = 0
    for i0, j0, width, hits in store:
        ii, jj = np.divmod(hits, width)
        edges[at:at + hits.size, 0] = ii + i0
        edges[at:at + hits.size, 1] = jj + j0
        at += hits.size
    return edges


def sample_graph(e, model, seed: int, sample_index: int) -> Graph:
    """One Bernoulli draw over all pairs; deterministic in (seed, sample_index)."""
    (store,), _, _ = _pair_walk(e, model, seed=seed, sample_indices=(sample_index,))
    return Graph.from_edges(e.n, _store_edges(store))


def expected_degrees(e, model) -> np.ndarray:
    """Exact E[D_i] = sum_{j != i} p_ij for every vertex (O(n^2) pass)."""
    _, degrees, _ = _pair_walk(e, model)
    return degrees


@dataclass(frozen=True)
class _Squared:
    """``model`` with every probability tile squared in place: a walk over
    it sums p^2 per vertex."""

    model: object

    def prob_block(self, e, rows, cols) -> np.ndarray:
        p = self.model.prob_block(e, rows, cols)
        return np.multiply(p, p, out=p)


def expected_degree_second_moment(e, model):
    """Exact (E[D_i], E[D_i^2]) per vertex.

    For a sum of independent Bernoulli(p_ij) indicators,
    E[D^2] = Var + E[D]^2 = sum p(1-p) + (sum p)^2.  Sum p^2 comes from a
    second walk, so one tile is held at a time.
    """
    _, ed, _ = _pair_walk(e, model)
    _, sum_sq, _ = _pair_walk(e, _Squared(model))
    return ed, ed - sum_sq + ed * ed


def expected_triangles_exact(e, model) -> float:
    """Exact expected triangle count sum_{i<j<k} p_ij p_jk p_ik.

    Edges are independent, so the expectation factorizes per pair.  Refuses
    to run above n=500; use sampling beyond that.
    """
    n = e.n
    if n > _EXACT_TRIANGLE_GUARD:
        raise ValueError(
            f"exact triangle expectation is O(n^3); refusing n={n} > "
            f"{_EXACT_TRIANGLE_GUARD} (sample instead)")
    if n < 3:
        return 0.0
    p = model.prob_block(e, np.arange(n), np.arange(n))   # fresh float64
    np.fill_diagonal(p, 0.0)
    # symmetric with zero diagonal: trace(P^3) counts each triangle 6 times
    return float(np.trace(p @ p @ p) / 6.0)


@dataclass(frozen=True)
class SampleCurveSet:
    """Per-sample triangle-foundation curves on their union threshold grid,
    with the exact expected degrees from the same pair walk."""

    thresholds: np.ndarray            # union of distinct degrees, ascending
    deltas: np.ndarray                # (num_samples, len(thresholds)), step-filled
    n_ref: int
    expected_degrees: np.ndarray      # E[D_i] per vertex
    edge_counts: np.ndarray           # edges of each sample, in sample order
    draw_candidates: int              # pair positions the draws looked at

    @property
    def max_curve(self) -> TriangleFoundationCurve:
        return TriangleFoundationCurve(self.thresholds, self.deltas.max(axis=0), self.n_ref)

    @property
    def variance(self) -> np.ndarray:
        return self.deltas.var(axis=0)


def curve_over_samples(e, model, seed: int, num_samples: int) -> SampleCurveSet:
    """Sample num_samples graphs and collect their curves.

    All samples and the expected degrees come from one pair walk; sample s
    equals ``sample_graph(e, model, seed, s)``.  Every sample has the e.n
    vertices of the embedding, so every curve is normalized by e.n.  Curves
    are counted straight from each sample's edge array; no Graph is built.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    stores, degrees, examined = _pair_walk(
        e, model, seed=seed, sample_indices=range(num_samples))
    # one sample's edge array at a time, dropped once its curve is counted
    curves = [edge_curve(e.n, _store_edges(store)) for store in stores]
    counts = [sum(hits.size for *_, hits in store) for store in stores]
    grid = union_grid(curves)
    return SampleCurveSet(grid, np.array([curve.value_at(grid) for curve in curves]),
                          e.n, degrees, np.array(counts, dtype=np.int64), examined)
