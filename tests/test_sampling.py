import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from embedaudit import blocks, sampling
from embedaudit.blocks import iter_pair_tiles, upper_tiles
from embedaudit.embedding import Embedding, spectral_embed
from embedaudit.graph import Graph, triangle_foundation_curve
from embedaudit.models import TruncatedDot, build_softmax, fit_lrdp, fit_lrhp
from embedaudit.sampling import (
    bernoulli_pairs,
    curve_over_samples,
    expected_degree_second_moment,
    expected_degrees,
    expected_triangles_exact,
    sample_graph,
)
from embedaudit.sampling import _bernoulli_positions, _draw_plan, _pair_walk, _store_edges

TDP = TruncatedDot()


def plain_random(rng, n, d, scale=1.0):
    return Embedding(rng.normal(size=(n, d)) * scale)


def random_graph(rng, n, p):
    return Graph.from_edges(n, np.argwhere(np.triu(oracles.random_gnp(rng, n, p), 1)))


# ------------------------------------------------------------- sampling

def test_certain_model_yields_complete_graph():
    e = Embedding(np.full((6, 1), 1.2))    # every score is 1.44 -> p = 1
    for s in range(3):
        g = sample_graph(e, TDP, seed=1, sample_index=s)
        assert g.m == 15


def test_zero_model_yields_empty_graph():
    e = Embedding(np.zeros((6, 2)))        # every score is 0 -> p = 0
    g = sample_graph(e, TDP, seed=1, sample_index=0)
    assert g.m == 0


def test_single_pair_frequency_near_half():
    e = Embedding(np.array([[1.0, 0.0], [0.5, 0.0]]))   # score 0.5
    hits = sum(sample_graph(e, TDP, seed=99, sample_index=s).m
               for s in range(2000))
    assert 0.46 <= hits / 2000 <= 0.54


def test_sampling_reproducible(monkeypatch):
    rng = np.random.default_rng(3)
    e = plain_random(rng, 40, 4, 0.4)
    monkeypatch.setattr(blocks, "TILE", 16)
    a = sample_graph(e, TDP, seed=7, sample_index=2)
    b = sample_graph(e, TDP, seed=7, sample_index=2)
    assert a.m > 0
    assert np.array_equal(a.edge_array(), b.edge_array())


def test_different_sample_indices_differ():
    rng = np.random.default_rng(5)
    e = plain_random(rng, 30, 3, 0.5)
    a = sample_graph(e, TDP, seed=7, sample_index=0)
    b = sample_graph(e, TDP, seed=7, sample_index=1)
    assert not np.array_equal(a.edge_array(), b.edge_array())


class FixedProbabilities:
    """Edge model over a given symmetric probability matrix."""

    def __init__(self, p):
        self.p = p

    def prob_block(self, e, rows, cols):
        return self.p[np.ix_(rows, cols)]


def test_sparse_draw_is_exact_bernoulli(monkeypatch):
    n, samples = 40, 2000
    monkeypatch.setattr(blocks, "TILE", 16)
    rng = np.random.default_rng(7)
    tiny = [0.0, 1e-6, 2.0 ** -9, 0.004]
    spread = [0.02, 0.0625, 0.1, 0.125, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]
    p = np.triu(np.where(rng.random((n, n)) < 0.75, rng.choice(tiny, (n, n)),
                         rng.choice(spread, (n, n))), 1)
    p += p.T
    e = Embedding(np.zeros((n, 1)))
    model = FixedProbabilities(p)

    # every tile has p on both sides of its floor rate; some p equal a floor
    # rate, and some powers of two 2^-k lie above it
    at_floor = power_above = 0
    looked_mean = looked_var = 0.0
    for *_, tile in upper_tiles(n, lambda r, c: p[np.ix_(r, c)]):
        flat = tile.ravel()
        tau, _ = _draw_plan(flat)
        assert np.any((flat > 0) & (flat < tau)) and np.any(flat > tau)
        at_floor += np.count_nonzero(flat == tau)
        power_above += np.count_nonzero((flat > tau) & (np.frexp(flat)[0] == 0.5))
        # a floor stream at rate tau over the tile, one look per entry above tau
        looked_mean += flat.size * tau + np.count_nonzero(flat > tau)
        looked_var += flat.size * tau * (1 - tau)
    assert at_floor and power_above

    stores, _, examined = _pair_walk(e, model, seed=5, sample_indices=range(samples))
    assert abs(examined - samples * looked_mean) <= 5 * np.sqrt(samples * looked_var)
    edges = [_store_edges(store) for store in stores]
    iu, ju = np.triu_indices(n, 1)
    column = np.full(n * n, -1)
    column[iu * n + ju] = np.arange(iu.size)
    hits = np.zeros((samples, iu.size), dtype=bool)
    for s, ed in enumerate(edges):
        cols = column[ed[:, 0] * n + ed[:, 1]]
        assert np.all(cols >= 0) and np.unique(cols).size == cols.size
        hits[s, cols] = True

    # per-pair frequencies within 5 binomial standard deviations of p
    q, counts = p[iu, ju], hits.sum(axis=0)
    assert np.all(counts[q == 0] == 0) and np.all(counts[q == 1] == samples)
    mid = (q > 0) & (q < 1)
    sd = np.sqrt(samples * q[mid] * (1 - q[mid]))
    assert np.all(np.abs(counts[mid] - samples * q[mid]) <= 5 * sd + 1)

    # independent pairs: every pairwise covariance within 6 standard errors of 0
    mid = (q >= 0.02) & (q < 1)
    cov = np.cov(hits[:, mid].astype(float), rowvar=False)
    np.fill_diagonal(cov, 0.0)
    v = q[mid] * (1 - q[mid])
    assert np.all(np.abs(cov) <= 6 * np.sqrt(np.outer(v, v) / samples))


@pytest.mark.parametrize("n", [1, 2, 3, 1030])
def test_bernoulli_pairs_at_rate_one_are_all_pairs(n):
    i, j = bernoulli_pairs(np.random.default_rng(0), n, 1.0)
    iu, ju = np.triu_indices(n, 1)
    assert i.dtype == j.dtype == np.int64
    assert np.array_equal(i, iu) and np.array_equal(j, ju)


@pytest.mark.parametrize("n", [2, 3, 40, 1030])
@pytest.mark.parametrize("rate", [1e-4, 0.05, 0.5, 0.97])
def test_bernoulli_pairs_unrank_the_skip_stream(n, rate):
    # the pairs are the row-major pairs i < j at the drawn positions
    i, j = bernoulli_pairs(np.random.default_rng(9), n, rate)
    at = _bernoulli_positions(np.random.default_rng(9), n * (n - 1) // 2, rate)
    iu, ju = np.triu_indices(n, 1)
    assert np.array_equal(i, iu[at]) and np.array_equal(j, ju[at])


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_sparse_draw_of_constant_tiles(value, monkeypatch):
    n = 40
    model = FixedProbabilities(np.full((n, n), value))
    monkeypatch.setattr(blocks, "TILE", 16)
    stores, _, examined = _pair_walk(Embedding(np.zeros((n, 1))), model,
                                     seed=5, sample_indices=range(3))
    for ed in map(_store_edges, stores):
        assert Graph.from_edges(n, ed).m == len(ed) == value * n * (n - 1) // 2
    assert (examined == 0) == (value == 0.0)


def test_many_samples_hold_compact_offsets_and_one_edge_array():
    # 400 samples of about 1800 edges each on one 600 x 600 tile: the (m, 2)
    # int64 edge arrays of all samples at once, 16 bytes an edge, break the
    # bound; their int32 tile offsets take 4
    n, samples = 600, 400
    model = FixedProbabilities(np.full((n, n), 0.01))
    e = Embedding(np.zeros((n, 1)))
    got = []
    peak = oracles.traced_peak(lambda: got.append(curve_over_samples(e, model, 5, samples)))
    counts = got[0].edge_counts
    # the offsets, and per sample its store entry and its curve
    store = 4 * counts.sum() + 1024 * samples
    walk = 2 * n * n * 8          # the p-tile, its mask and the draws' work arrays
    assert peak < store + 16 * counts.max() + walk


# ---------------------------------------------------------- expectations

def test_expected_degrees_identical_vectors():
    v = np.array([1.0, 0.5, 0.0, 0.5])
    v = v / np.sqrt(2 * v @ v)                   # scale so every score is 0.5
    e = Embedding(np.tile(v, (3, 1)))
    ed = expected_degrees(e, TDP)
    assert np.allclose(ed, 1.0, atol=1e-12)


def test_expected_degrees_certain_model():
    e = Embedding(np.full((7, 1), 2.0))
    assert np.allclose(expected_degrees(e, TDP), 6.0)


def test_expected_degrees_match_monte_carlo():
    rng = np.random.default_rng(11)
    e = plain_random(rng, 200, 5, 0.15)
    exact = expected_degrees(e, TDP)
    samples = 2000
    # sample s of one pair walk is sample_graph(e, TDP, 13, s)
    stores, _, _ = _pair_walk(e, TDP, seed=13, sample_indices=range(samples))
    degrees = np.array([np.bincount(_store_edges(store).ravel(), minlength=200)
                        for store in stores],
                       dtype=float)
    acc = degrees.sum(axis=0)
    acc_sq = (degrees ** 2).sum(axis=0)
    mean = acc / samples
    std_of_mean = np.sqrt(np.maximum(acc_sq / samples - mean ** 2, 0.0) / samples)
    # 3 sigma per vertex, with a tiny floor for near-deterministic vertices
    assert np.all(np.abs(mean - exact) <= 3.0 * std_of_mean + 1e-9)


def test_expected_degrees_reproducible_and_block_invariant(monkeypatch):
    rng = np.random.default_rng(12)
    e = plain_random(rng, 60, 4, 0.3)
    monkeypatch.setattr(blocks, "TILE", 17)
    a = expected_degrees(e, TDP)
    b = expected_degrees(e, TDP)
    assert np.array_equal(a, b)
    # another tiling sums in another order: equal up to rounding only
    monkeypatch.setattr(blocks, "TILE", 1024)
    np.testing.assert_allclose(expected_degrees(e, TDP), a, rtol=1e-12)


def test_expected_triangles_small_cases():
    v = np.array([1.0, 0.0])
    e = Embedding(np.tile(v * np.sqrt(0.5), (3, 1)))   # all scores 0.5
    assert expected_triangles_exact(e, TDP) == pytest.approx(0.125)
    e5 = Embedding(np.full((5, 1), 2.0))                # all p = 1
    assert expected_triangles_exact(e5, TDP) == pytest.approx(10.0)


def test_expected_triangles_matches_triple_sum_oracle():
    rng = np.random.default_rng(15)
    e = plain_random(rng, 18, 3, 0.4)
    p = oracles.pairwise_probabilities(TDP, e)
    assert expected_triangles_exact(e, TDP) == pytest.approx(
        oracles.expected_triangles_triple_sum(p), rel=1e-12)


def test_expected_triangles_guard():
    e = Embedding(np.zeros((501, 1)))
    with pytest.raises(ValueError, match="refusing"):
        expected_triangles_exact(e, TDP)


def test_expected_triangles_vs_monte_carlo():
    rng = np.random.default_rng(20)
    e = plain_random(rng, 30, 3, 0.45)
    exact = expected_triangles_exact(e, TDP)
    samples = 5000
    # each sample's curve ends at its triangle count over n
    counts = np.rint(curve_over_samples(e, TDP, 31, samples).deltas[:, -1] * e.n)
    mean = counts.mean()
    sigma_of_mean = counts.std(ddof=1) / np.sqrt(samples)
    assert abs(mean - exact) <= 3.0 * sigma_of_mean


# ------------------------------------------------------------ curve sets

def test_single_sample_max_curve_is_that_curve():
    rng = np.random.default_rng(25)
    e = plain_random(rng, 30, 3, 0.5)
    curve = curve_over_samples(e, TDP, 41, 1).max_curve
    g = sample_graph(e, TDP, seed=41, sample_index=0)
    native = triangle_foundation_curve(g)
    assert np.array_equal(curve.thresholds, native.thresholds)
    assert np.array_equal(curve.deltas, native.deltas)


def test_sample_curves_build_no_graph(monkeypatch):
    rng = np.random.default_rng(26)
    e = plain_random(rng, 30, 3, 0.5)
    native = [triangle_foundation_curve(sample_graph(e, TDP, 43, s)) for s in range(3)]

    def refuse(*args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    cs = curve_over_samples(e, TDP, 43, 3)
    for s, curve in enumerate(native):
        assert np.array_equal(cs.deltas[s], curve.value_at(cs.thresholds))


def test_deterministic_model_makes_identical_samples():
    e = Embedding(np.full((8, 1), 1.5))    # all p = 1
    curves = curve_over_samples(e, TDP, 1, 5)
    assert np.all(curves.deltas == curves.deltas[0])
    assert curves.variance.max() == 0.0


def test_max_curve_dominates_mean():
    rng = np.random.default_rng(27)
    e = plain_random(rng, 40, 4, 0.35)
    curves = curve_over_samples(e, TDP, 55, 20)
    assert np.all(curves.max_curve.deltas >= curves.deltas.mean(axis=0) - 1e-12)


# ----------------------------------------------------- moment inequality

def test_degree_second_moment_inequality_all_models():
    rng = np.random.default_rng(33)
    g = random_graph(rng, 40, 0.15)
    e = spectral_embed(g, 8)
    models = [TDP, fit_lrdp(e, g, seed=3)[0], fit_lrhp(e, g, seed=3)[0],
              build_softmax(e, g)]
    for model in models:
        ed, ed2 = expected_degree_second_moment(e, model)
        assert np.all(ed2 <= ed + ed * ed + 1e-9)
        assert np.all(ed2 >= ed - 1e-9)          # D^2 >= D for integer D


def test_degree_second_moment_matches_bruteforce():
    rng = np.random.default_rng(35)
    e = plain_random(rng, 12, 3, 0.5)
    p = oracles.pairwise_probabilities(TDP, e)
    ed, ed2 = expected_degree_second_moment(e, TDP)
    for i in range(12):
        probs = np.delete(p[i], i)
        assert ed[i] == pytest.approx(probs.sum(), abs=1e-12)
        brute = probs.sum() + probs.sum() ** 2 - (probs ** 2).sum()
        assert ed2[i] == pytest.approx(brute, abs=1e-10)


def test_triangle_expectation_bounded_by_degree_moments():
    # expected triangles <= (max prob ceiling) * sum_i E[D_i]^2 whenever all
    # scores stay below 1 (so no pair is clamped at the ceiling)
    rng = np.random.default_rng(37)
    for _ in range(20):
        n, d = 30, 3
        v = rng.normal(size=(n, d))
        v = v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(0.05, 1.0, size=(n, 1))
        e = Embedding(v)
        l_sq = float(np.max(np.sum(v * v, axis=1)))
        ed = expected_degrees(e, TDP)
        tri = expected_triangles_exact(e, TDP)
        assert tri <= l_sq * np.sum(ed ** 2) + 1e-9


def test_curve_over_samples_validation():
    e = Embedding(np.zeros((4, 1)))
    with pytest.raises(ValueError, match="num_samples"):
        curve_over_samples(e, TDP, 1, 0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            curve_over_samples(e, TDP, seed, 1)


# ------------------------------------------------- one walk, same bytes

@pytest.fixture(scope="module")
def four_models():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 50, 0.12)
    e = spectral_embed(g, 6)
    return e, {"tdp": TDP, "lrdp": fit_lrdp(e, g, seed=2)[0],
               "lrhp": fit_lrhp(e, g, seed=2)[0], "softmax": build_softmax(e, g)}


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("side", [7, 16, 1024])
@pytest.mark.parametrize("name", ["tdp", "lrdp", "lrhp", "softmax"])
def test_fused_walk_matches_separate_passes(four_models, name, side, samples, monkeypatch):
    e, models = four_models
    model = models[name]
    seed = 2024
    monkeypatch.setattr(blocks, "TILE", side)
    stores, ed, examined = _pair_walk(e, model, seed=seed, sample_indices=range(samples))
    _, sum_sq, _ = _pair_walk(e, sampling._Squared(model))
    edges = [_store_edges(store) for store in stores]
    ref_ed, ref_sq = oracles.tile_order_moment_reference(e, model)
    assert np.array_equal(ed, ref_ed)
    assert np.array_equal(sum_sq, ref_sq)
    refs = [oracles.per_sample_edges_reference(e, model, seed, s)
            for s in range(samples)]
    assert len(edges) == samples
    for got, ref in zip(edges, refs):
        assert np.array_equal(got, ref)

    cs = curve_over_samples(e, model, seed, samples)
    assert np.array_equal(cs.expected_degrees, ref_ed)
    assert np.array_equal(expected_degrees(e, model), ref_ed)
    ed1, ed2 = expected_degree_second_moment(e, model)
    assert np.array_equal(ed1, ref_ed)
    assert np.array_equal(ed2, ref_ed - ref_sq + ref_ed * ref_ed)
    graphs = [Graph.from_edges(e.n, ref) for ref in refs]
    assert cs.edge_counts.tolist() == [g.m for g in graphs]
    assert cs.draw_candidates == examined
    for s, g in enumerate(graphs):
        one = sample_graph(e, model, seed, s)
        assert np.array_equal(one.edge_array(), g.edge_array())
        curve = triangle_foundation_curve(g)
        assert cs.deltas[s].tolist() == [curve.value_at(int(c)) for c in cs.thresholds]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 70), side=st.integers(1, 80))
def test_pair_tiles_cover_each_pair_once(n, side):
    hits = np.zeros((n, n), dtype=np.int64)
    spans = []
    for t, (tile, (i0, i1), (j0, j1)) in enumerate(iter_pair_tiles(n, side)):
        assert tile == t
        mask = np.arange(j0, j1)[None, :] > np.arange(i0, i1)[:, None]
        hits[i0:i1, j0:j1] += mask
        spans.append((i0, i1, j0, j1))
    assert np.array_equal(hits, np.triu(np.ones((n, n), dtype=np.int64), 1))

    # upper_tiles yields block(rows, cols) on the same tiles, zero outside i < j
    dense = np.random.default_rng(n).uniform(0.5, 1.5, size=(n, n))
    upper = np.triu(dense, 1)
    with mock.patch.object(blocks, "TILE", side):
        walked = list(upper_tiles(n, lambda r, c: dense[np.ix_(r, c)]))
    assert len(walked) == len(spans)
    total = np.zeros((n, n))
    for t, ((tile_index, rows, cols, tile), (i0, i1, j0, j1)) in enumerate(zip(walked, spans)):
        assert tile_index == t
        assert np.array_equal(rows, np.arange(i0, i1))
        assert np.array_equal(cols, np.arange(j0, j1))
        assert np.array_equal(tile, upper[i0:i1, j0:j1])
        total[i0:i1, j0:j1] += tile
    assert np.array_equal(total, upper)


def test_upper_tiles_frees_each_tile_before_the_next(monkeypatch):
    # a caller that drops its tile holds one tile at a time: the previous
    # tile is gone when the next one is built
    refs = []
    monkeypatch.setattr(blocks, "TILE", 16)

    def block(rows, cols):
        assert all(ref() is None for ref in refs)
        return np.ones((len(rows), len(cols)))

    for *_, tile in upper_tiles(50, block):
        refs.append(weakref.ref(tile))
        del tile
    assert len(refs) == 10


def test_second_moment_holds_one_tile(monkeypatch):
    # the two moment sums come from two walks, each holding one tile
    monkeypatch.setattr(blocks, "TILE", 512)
    e = plain_random(np.random.default_rng(43), 2048, 4, 0.3)
    peak = oracles.traced_peak(lambda: expected_degree_second_moment(e, TDP))
    assert peak < 1.5 * blocks.TILE ** 2 * 8
