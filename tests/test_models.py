import dataclasses
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import oracles
from embedaudit import blocks, models
from embedaudit.embedding import Embedding, spectral_embed
from embedaudit.graph import Graph
from embedaudit.models import (
    DegreeSoftmax,
    LogisticDot,
    LogisticHadamard,
    TruncatedDot,
    _calibrate_intercept,
    _make_pair_sums,
    build_softmax,
    fit_lrdp,
    fit_lrhp,
    model_digest,
    model_to_json,
    softmax_clamp_count,
)
from oracles import pair_probability, probability_sum


def k_complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng, n, p):
    return Graph.from_edges(n, np.argwhere(np.triu(oracles.random_gnp(rng, n, p), 1)))


# ------------------------------------------------------------------- TDP

def tdp_of_scores(scores):
    """TDP probabilities of the pairs (0, k): vertex 0 holds 1, vertex k the score."""
    e = Embedding(np.concatenate([[1.0], scores])[:, None])
    return TruncatedDot().prob_block(e, np.array([0]), np.arange(1, e.n))[0]


def test_tdp_clamps():
    assert list(tdp_of_scores([0.5, -0.3, 1.7])) == [0.5, 0.0, 1.0]


def test_tdp_monotone_in_score():
    probs = tdp_of_scores(np.linspace(-2, 2, 101))
    assert np.all(np.diff(probs) >= 0)


def test_tdp_on_orthogonal_unit_vectors():
    e = Embedding([[1.0, 0.0], [0.0, 1.0]])
    assert pair_probability(TruncatedDot(), e, 0, 1) == 0.0


# ------------------------------------------------------------------ LRDP

def test_lrdp_zero_slope_is_constant():
    e = Embedding(np.linspace(-1, 1, 6)[:, None])
    model = LogisticDot(slope=0.0, intercept=0.3)
    probs = {pair_probability(model, e, i, j) for i in range(6) for j in range(6) if i != j}
    assert len(probs) == 1


def test_lrdp_constant_scores_calibrate_to_half():
    # 9 vertices, 18 edges = half of the 36 pairs, all scores identically 0
    n = 9
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(pairs), size=18, replace=False)
    g = Graph.from_edges(n, [pairs[k] for k in chosen])
    e = Embedding(np.zeros((n, 2)))
    model, report = fit_lrdp(e, g, seed=1)
    assert model.slope == 0.0
    assert report.converged
    for i, j in pairs[:10]:
        assert pair_probability(model, e, i, j) == pytest.approx(0.5, abs=1e-3)


def test_lrdp_separated_scores():
    # two 5-cliques of +1/-1 unit scalars: edges score +1, non-edges -1
    vec = np.array([[1.0]] * 5 + [[-1.0]] * 5)
    e = Embedding(vec)
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)
             if vec[i, 0] * vec[j, 0] > 0]
    g = Graph.from_edges(10, edges)
    model, report = fit_lrdp(e, g, seed=3)
    assert model.slope > 0
    assert report.converged
    achieved = probability_sum(e, model)
    assert abs(achieved - g.m) <= 1e-3 * g.m


def test_lrdp_k3_full_rank_probabilities_near_one():
    g = k_complete(3)
    e = spectral_embed(g, 3)
    model, report = fit_lrdp(e, g, seed=2)
    assert report.converged
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert pair_probability(model, e, i, j) >= 0.9


def test_lrdp_calibration_on_random_instance():
    rng = np.random.default_rng(17)
    g = random_graph(rng, 40, 0.2)
    e = Embedding(rng.normal(size=(40, 5)) * 0.4)
    model, report = fit_lrdp(e, g, seed=5)
    assert report.converged
    assert abs(report.achieved_expected_edges - g.m) <= 1e-3 * g.m
    assert abs(probability_sum(e, model) - report.achieved_expected_edges) < 1e-9


# ----------------------------------------------------------- calibration

def offset_pair_sums(e, offset):
    return _make_pair_sums(e, lambda delta: LogisticDot(1.0, offset + delta))


def upper_logits(e, offset):
    return e.score_block(np.arange(e.n), np.arange(e.n))[np.triu_indices(e.n, 1)] + offset


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=4),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
       st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_calibrate_intercept_converges(n, d, offset, fraction, side, seed):
    e = Embedding(np.random.default_rng(seed).normal(size=(n, d)))
    pair_sums = offset_pair_sums(e, offset)
    m = fraction * n * (n - 1) / 2
    with mock.patch.object(blocks, "TILE", side):
        delta, evals, converged, achieved = _calibrate_intercept(pair_sums, m)
        assert converged
        assert abs(achieved - m) <= 1e-3 * m
        assert achieved == pair_sums(delta)[0]
        p = expit(upper_logits(e, offset) + delta)
        assert achieved == pytest.approx(p.sum(), rel=1e-12)
        assert pair_sums(delta)[1] == pytest.approx((p * (1.0 - p)).sum(), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 12])
@pytest.mark.parametrize("offset", [-20.0, 0.0, 20.0])
def test_calibrate_intercept_extreme_targets(n, offset, monkeypatch):
    e = Embedding(np.random.default_rng(n).normal(size=(n, 2)))
    monkeypatch.setattr(blocks, "TILE", 5)
    pair_sums = offset_pair_sums(e, offset)
    n_pairs = n * (n - 1) // 2
    delta, _, converged, achieved = _calibrate_intercept(pair_sums, 0.0)
    assert converged and 0.0 <= achieved <= 1e-9
    assert achieved == pair_sums(delta)[0]
    delta, _, converged, achieved = _calibrate_intercept(pair_sums, float(n_pairs))
    assert converged and abs(achieved - n_pairs) <= 1e-3 * n_pairs
    assert achieved == pair_sums(delta)[0]


def test_pair_sums_derivative_matches_finite_difference(monkeypatch):
    e = Embedding(np.random.default_rng(37).normal(size=(23, 3)))
    monkeypatch.setattr(blocks, "TILE", 4)
    pair_sums = offset_pair_sums(e, -1.5)
    h = 1e-4
    for delta in (-6.0, -0.5, 0.0, 2.0, 7.0):
        central = (pair_sums(delta + h)[0] - pair_sums(delta - h)[0]) / (2 * h)
        assert pair_sums(delta)[1] == pytest.approx(central, rel=1e-6)


def recording(pair_sums):
    """pair_sums that also lists the deltas it is called at."""
    calls = []

    def recorded(delta):
        calls.append(delta)
        return pair_sums(delta)

    return recorded, calls


def test_calibration_doubles_while_the_bracket_is_open():
    # no pair has any probability below delta = 5, so there is no Newton
    # step there: delta doubles away from 0 until the sum is positive
    def sigmoid_sums(delta):
        if delta < 5:
            return 0.0, 0.0
        p = expit(delta - 10.0)
        return 1000.0 * p, 1000.0 * p * (1.0 - p)

    pair_sums, calls = recording(sigmoid_sums)
    delta, _, converged, achieved = _calibrate_intercept(pair_sums, 100.0)
    assert calls[:5] == [0.0, 1.0, 2.0, 4.0, 8.0]
    assert converged and abs(achieved - 100.0) <= 0.1
    assert achieved == sigmoid_sums(delta)[0]


def test_calibration_bisects_when_a_clipped_step_leaves_the_bracket():
    # a derivative a million times too small makes every Newton step clip
    # at 40: from 0 (above the target) to -40 (below), and the step back
    # to 0 leaves the bracket (-40, 0), so the midpoint -20 is taken
    def sums(delta):
        p = expit(delta)
        return 1000.0 * p, 1e-6 * 1000.0 * p * (1.0 - p)

    m = 1000.0 * expit(-1.0)
    pair_sums, calls = recording(sums)
    delta, _, converged, achieved = _calibrate_intercept(pair_sums, m)
    assert calls[:3] == [0.0, -40.0, -20.0]
    assert converged and abs(achieved - m) <= 1e-3 * m


def test_calibration_returns_its_best_delta_when_it_does_not_converge():
    pair_sums, calls = recording(lambda delta: (5.0, 0.0))
    assert _calibrate_intercept(pair_sums, 10.0) == (0.0, 100, False, 5.0)
    assert len(calls) == 100


@pytest.mark.parametrize("d", [10, 50])
def test_calibration_passes_bounded_on_triangle_graph(d):
    # 100 disjoint triangles plus G(n, 1/n) noise, the audit's test construction
    n = 300
    rng = np.random.default_rng(d)
    noise = np.triu(oracles.random_gnp(rng, n, 1.0 / n), 1)
    for t in range(n // 3):
        noise[3 * t, 3 * t + 1] = noise[3 * t + 1, 3 * t + 2] = noise[3 * t, 3 * t + 2] = True
    g = Graph.from_edges(n, np.argwhere(noise))
    e = spectral_embed(g, d)
    for fit in (fit_lrdp, fit_lrhp):
        model, report = fit(e, g, seed=d)
        assert report.converged
        assert report.calibration_evals <= 4
        assert report.iterations > report.calibration_evals
        assert abs(probability_sum(e, model) - report.achieved_expected_edges) < 1e-9


@pytest.mark.parametrize("fit, cls", [(fit_lrdp, LogisticDot), (fit_lrhp, LogisticHadamard)])
def test_calibration_walks_the_models_own_probabilities(fit, cls, monkeypatch):
    # a prob_block whose logits are shifted by +0.7: calibrating any other
    # copy of the logit formula misses m on the probabilities that are sampled
    raw = cls.prob_block
    monkeypatch.setattr(cls, "prob_block", lambda self, e, rows, cols: raw(
        dataclasses.replace(self, intercept=self.intercept + 0.7), e, rows, cols))
    rng = np.random.default_rng(43)
    g = random_graph(rng, 40, 0.2)
    e = Embedding(rng.normal(size=(40, 4)) * 0.4)
    model, report = fit(e, g, seed=7)
    assert report.converged
    assert abs(report.achieved_expected_edges - g.m) <= 1e-3 * g.m
    assert report.achieved_expected_edges == pytest.approx(probability_sum(e, model),
                                                           rel=1e-9)


# ------------------------------------------------------------------ LRHP

def test_lrhp_d1_reduces_to_lrdp():
    rng = np.random.default_rng(21)
    g = random_graph(rng, 25, 0.25)
    e = Embedding(rng.normal(size=(25, 1)))
    m1, _ = fit_lrdp(e, g, seed=9)
    m2, _ = fit_lrhp(e, g, seed=9)
    for i in range(25):
        for j in range(i + 1, 25):
            p1 = pair_probability(m1, e, i, j)
            p2 = pair_probability(m2, e, i, j)
            assert p1 == pytest.approx(p2, abs=1e-6)


def test_lrhp_constant_features_calibrate_to_density():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 20, 0.3)
    e = Embedding(np.zeros((20, 3)))
    model, report = fit_lrhp(e, g, seed=0)
    assert report.converged
    density = g.m / (20 * 19 / 2)
    assert pair_probability(model, e, 0, 1) == pytest.approx(density, rel=2e-3)


def test_lrhp_calibration_on_random_instance():
    rng = np.random.default_rng(29)
    g = random_graph(rng, 30, 0.2)
    e = Embedding(rng.normal(size=(30, 4)) * 0.5)
    model, report = fit_lrhp(e, g, seed=11)
    assert report.converged
    assert abs(probability_sum(e, model) - g.m) <= 1e-3 * g.m


def test_lrhp_spectral_features_match_score_sum():
    # with unit weights and zero intercept the logit equals the pair score
    rng = np.random.default_rng(31)
    g = random_graph(rng, 15, 0.3)
    e = spectral_embed(g, 5)
    model = LogisticHadamard(np.ones(5), 0.0)
    from scipy.special import expit
    for i, j in [(0, 3), (2, 9), (7, 14)]:
        assert pair_probability(model, e, i, j) == pytest.approx(
            expit(e.score_block([i], [j])[0, 0]), abs=1e-12)


# --------------------------------------------------------------- softmax

def test_softmax_uniform_scores_on_k3():
    g = k_complete(3)
    e = Embedding(np.zeros((3, 2)))
    model = build_softmax(e, g)
    # each vertex has degree 2 spread uniformly over 2 partners: q = 1
    assert np.allclose(np.exp(model.log_scale), [1.0, 1.0, 1.0])
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert pair_probability(model, e, i, j) == pytest.approx(1.0, abs=1e-12)


def test_softmax_isolated_vertex_row_is_zero():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])   # vertex 3 isolated
    rng = np.random.default_rng(6)
    e = Embedding(rng.normal(size=(4, 2)))
    model = build_softmax(e, g)
    q = np.exp(model.log_scale[[3], None] + e.score_block(np.array([3]), np.arange(4)))
    assert np.all(q == 0.0)
    assert model.log_scale[3] == -np.inf


def test_softmax_row_sums_match_degrees():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 20, 0.3)
    e = Embedding(rng.normal(size=(20, 3)))
    model = build_softmax(e, g)
    q = np.exp(model.log_scale)[:, None] * np.exp(e.score_block(np.arange(20), np.arange(20)))
    np.fill_diagonal(q, 0.0)
    assert np.allclose(q.sum(axis=1), g.degrees, rtol=1e-9, atol=1e-12)


def test_softmax_large_scores_do_not_overflow():
    g = k_complete(3)
    e = Embedding(np.full((3, 1), 40.0))   # scores of 1600
    model = build_softmax(e, g)
    p = pair_probability(model, e, 0, 1)
    assert np.isfinite(p) and 0 <= p <= 1


def test_softmax_clamp_count():
    g = k_complete(3)
    e = Embedding(np.zeros((3, 2)))
    model = build_softmax(e, g)
    # q values are exactly 1.0, never above it
    assert softmax_clamp_count(model, e) == 0
    boosted = DegreeSoftmax(model.log_scale + 1.0)
    assert softmax_clamp_count(boosted, e) == 3


def test_in_place_probability_tiles_equal_whole_tile_arithmetic(monkeypatch):
    # the softmax intensity is computed in the score tile, 3 rows at a time;
    # every entry is the whole-tile expression's, bit for bit
    rng = np.random.default_rng(12)
    g = random_graph(rng, 40, 0.2)
    e = Embedding(rng.normal(size=(40, 3)))
    model = DegreeSoftmax(build_softmax(e, g).log_scale + 0.5)
    rows, cols = np.arange(5, 30), np.arange(40)
    monkeypatch.setattr(blocks, "CHUNK_ENTRIES", 3 * len(cols))
    s, ls = e.score_block(rows, cols), model.log_scale
    raw = 0.5 * (np.exp(ls[rows][:, None] + s) + np.exp(ls[cols][None, :] + s))
    assert np.array_equal(model._intensity(e, rows, cols), raw)
    assert np.array_equal(model.prob_block(e, rows, cols), np.minimum(1.0, raw))
    assert np.array_equal(TruncatedDot().prob_block(e, rows, cols), np.clip(s, 0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 30), d=st.integers(1, 3), side=st.integers(1, 40),
       boost=st.floats(0.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_softmax_clamp_count_matches_dense_triu(n, d, side, boost, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.3)
    # quarter-integer coordinates make every score exact under any tiling
    e = Embedding(rng.integers(-4, 5, size=(n, d)) / 4.0)
    model = DegreeSoftmax(build_softmax(e, g).log_scale + boost)
    ls, scores = model.log_scale, e.vectors @ e.vectors.T
    raw = 0.5 * (np.exp(ls[:, None] + scores) + np.exp(ls[None, :] + scores))
    expected = int(np.count_nonzero(np.triu(raw > 1.0, 1)))
    with mock.patch.object(blocks, "TILE", side):
        assert softmax_clamp_count(model, e) == expected


def test_lrhp_constant_column_gets_zero_weight():
    # the constant column is left out of the fit; the other weights are
    # those of the fit without it
    rng = np.random.default_rng(41)
    g = random_graph(rng, 30, 0.2)
    v = rng.normal(size=(30, 3)) * 0.5
    model, report = fit_lrhp(Embedding(np.column_stack([v[:, :1], np.ones(30), v[:, 1:]])),
                             g, seed=11)
    ref, _ = fit_lrhp(Embedding(v), g, seed=11)
    assert report.converged
    assert model.weights[1] == 0.0
    np.testing.assert_allclose(np.delete(model.weights, 1), ref.weights, rtol=1e-9)
    assert model.intercept == pytest.approx(ref.intercept, rel=1e-9)


# ------------------------------------------------------ chunked fit stage

def _fit_instance(kind):
    rng = np.random.default_rng(17)
    n = 1600
    g = Graph.from_edges(n, rng.integers(0, n, size=(900, 2)))
    if kind == "spectral":
        return g, spectral_embed(g, 6)
    return g, Embedding(rng.normal(scale=0.3, size=(n, 5)))


@pytest.mark.parametrize("kind", ["plain", "spectral"])
def test_chunked_pair_features_equal_whole_list(kind, monkeypatch):
    g, e = _fit_instance(kind)
    pairs = np.concatenate([g.edge_array(),
                            models._sample_nonedges(g, 10 * g.m, np.random.default_rng(0))])
    monkeypatch.setattr(blocks, "CHUNK_ENTRIES", 7 * e.d)      # 7 rows per chunk
    assert len(pairs) % 7
    out = np.full((len(pairs), e.d + 1), np.nan)
    lrdp, lrhp = models._lrdp_features(e, pairs), models._lrhp_features(e, pairs)
    spans = [(r0, min(r0 + 11, len(pairs))) for r0 in range(0, len(pairs), 11)]
    for r0, r1 in spans:                  # filled in other chunks than computed
        lrdp(r0, r1, out[r0:r1, :1])
    assert np.array_equal(out[:, 0], oracles.lrdp_features_reference(e, pairs))
    for r0, r1 in spans:
        lrhp(r0, r1, out[r0:r1, :e.d])
    assert np.array_equal(out[:, :e.d], oracles.lrhp_features_reference(e, pairs))
    assert np.isnan(out[:, e.d]).all()


@pytest.mark.parametrize("case", ["lrdp", "lrhp-d1", "lrhp", "lrhp-constant", "lrhp-spectral"])
def test_streamed_newton_matches_whole_design(case, monkeypatch):
    # the streamed IRLS sums its objective, gradient and Hessian in row
    # chunks of a few rows; the whole-design Newton takes the same steps
    rng = np.random.default_rng(43)
    n = 40
    g = random_graph(rng, n, 0.15)
    v = rng.normal(size=(n, 4)) * 0.5
    e = {"lrdp": Embedding(v), "lrhp-d1": Embedding(v[:, :1]),
         "lrhp": Embedding(v),
         "lrhp-constant": Embedding(np.column_stack([v[:, :2], np.ones(n), v[:, 2:]])),
         "lrhp-spectral": spectral_embed(g, 4)}[case]
    fit, features, nfeat = ((fit_lrdp, oracles.lrdp_features_reference, 1) if case == "lrdp"
                            else (fit_lrhp, oracles.lrhp_features_reference, e.d))
    pairs, y, w = oracles.fit_sample_reference(g, 11)
    design = np.column_stack([features(e, pairs).reshape(len(pairs), nfeat),
                              np.ones(len(pairs))])
    coef, intercept, iters = oracles.weighted_logistic_reference(design, y, w)

    # no calibration: the model carries the MLE intercept
    monkeypatch.setattr(models, "_calibrate_intercept", lambda pair_sums, m: (0.0, 0, True, m))
    monkeypatch.setattr(blocks, "CHUNK_ENTRIES", 3 * (nfeat + 1))   # 3 rows per chunk
    model, report = fit(e, g, seed=11)
    got = np.atleast_1d(model.slope if case == "lrdp" else model.weights)
    assert report.iterations == iters > 0
    np.testing.assert_allclose(got, coef, rtol=1e-9, atol=0.0)
    assert model.intercept == pytest.approx(intercept, rel=1e-9)
    if case == "lrhp-constant":
        assert got[2] == coef[2] == 0.0


@pytest.mark.parametrize("kind", ["plain", "spectral"])
@pytest.mark.parametrize("side", [16, 1024])
def test_chunked_softmax_normalizers_equal_one_shot(kind, side, monkeypatch):
    g, e = _fit_instance(kind)
    monkeypatch.setattr(blocks, "CHUNK_ENTRIES", 3 * e.n)      # 3-row sub-blocks
    monkeypatch.setattr(blocks, "TILE", side)
    model = build_softmax(e, g)
    assert np.array_equal(model.log_scale, oracles.softmax_log_scale_reference(e, g))


def test_nonedge_sampler_is_bernoulli_over_the_nonedges():
    # 12 vertices, 15 edges: each of the 51 non-edges is kept with
    # probability 20/51, independently of the seed's other draws
    g = Graph.from_edges(12, np.random.default_rng(4).permutation(
        np.column_stack(np.triu_indices(12, 1)))[:15])
    assert g.m == 15
    n_non, count, seeds = 51, 20, 3000
    hits = np.zeros((12, 12), dtype=np.int64)
    for seed in range(seeds):
        got = models._sample_nonedges(g, count, np.random.default_rng(seed))
        keys = got[:, 0] * 12 + got[:, 1]
        assert np.all(got[:, 0] < got[:, 1]) and np.all(np.diff(keys) > 0)
        hits[got[:, 0], got[:, 1]] += 1
    adj = g.adjacency_matrix()
    iu, ju = np.triu_indices(12, 1)
    assert np.all(hits[iu, ju][adj[iu, ju] == 1] == 0)
    counts = hits[iu, ju][adj[iu, ju] == 0]
    rate = count / n_non
    sd = np.sqrt(seeds * rate * (1 - rate))
    assert counts.size == n_non
    assert np.all(np.abs(counts - seeds * rate) <= 4.5 * sd)


def test_nonedge_sampler_and_fit_on_a_dense_graph():
    # K_150 less one edge: the one non-edge is drawn once, and the fit is
    # the full-pair MLE
    g = Graph.from_edges(150, [(i, j) for i in range(150) for j in range(i + 1, 150)
                               if (i, j) != (3, 17)])
    got = models._sample_nonedges(g, 10 * g.m, np.random.default_rng(5))
    assert got.tolist() == [[3, 17]]
    e = Embedding(np.random.default_rng(5).normal(scale=0.3, size=(150, 4)))
    _, report = fit_lrdp(e, g, seed=5)
    assert report.converged
    assert abs(report.achieved_expected_edges - g.m) <= 1e-3 * g.m


def test_fit_stage_memory_is_chunk_bounded(monkeypatch):
    # a design matrix, whole-list gathers, or a score block of more than a
    # quarter tile of rows each break one of these bounds
    rng = np.random.default_rng(3)
    n, d = 1600, 64
    g = Graph.from_edges(n, rng.integers(0, n, size=(8200, 2)))
    e = Embedding(rng.normal(scale=0.15, size=(n, d)))
    fitted = 11 * g.m             # edges plus about 10 sampled non-edges per edge
    # O(m): the pair list, y, w, lrdp's score column and the sampler's draw
    per_fitted, chunk, tile = 64, blocks.CHUNK_ENTRIES * 8, blocks.TILE ** 2 * 8
    for fit in (fit_lrdp, fit_lrhp):
        # the calibration walks pair tiles: one probability tile and its mask,
        # and 1 - p in row chunks, not as a second tile
        assert (oracles.traced_peak(lambda: fit(e, g))
                < fitted * per_fitted + tile + tile // 8 + 4 * chunk)
    # at this size the older bound on lrdp, calibration included, is the tighter
    assert oracles.traced_peak(lambda: fit_lrdp(e, g)) < 0.5 * fitted * d * 8
    monkeypatch.setattr(models, "_calibrate_intercept", lambda pair_sums, m: (0.0, 0, True, m))
    for fit in (fit_lrdp, fit_lrhp):
        assert oracles.traced_peak(lambda: fit(e, g)) < fitted * per_fitted + 4 * chunk
    assert (oracles.traced_peak(lambda: build_softmax(e, g))
            < (blocks.TILE // 4 * n) * 8 + e.vectors.nbytes + 2 * chunk)


# ------------------------------------------------------------- dispatch

def test_sigmoid_matches_expit_without_warnings():
    z = np.concatenate([np.linspace(-800.0, 800.0, 160001), [np.inf, -np.inf]])
    want = expit(z)
    out = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert models._sigmoid_inplace(out) is out
    err = np.abs(out - want)
    normal = want > 1e-300
    assert np.all(err[normal] <= 4 * np.finfo(float).eps * want[normal])
    assert np.all(err[~normal] <= 1e-300)           # the underflow tail
    assert out[-2:].tolist() == [1.0, 0.0]

    e = Embedding(np.random.default_rng(3).normal(size=(9, 2)))
    rows, cols = np.arange(4), np.arange(9)
    s = e.score_block(rows, cols)
    p = LogisticDot(3.0, -1.5).prob_block(e, rows, cols)
    np.testing.assert_allclose(p, expit(3.0 * s - 1.5), rtol=4e-16)


def test_row_logsumexp_matches_scipy_without_warnings():
    from scipy.special import logsumexp
    rng = np.random.default_rng(17)
    x = rng.normal(scale=30.0, size=(6, 50))
    x[np.arange(6), np.arange(6)] = -np.inf          # the excluded self-pair
    x[1, [3, 9, 40]] = x[1].max() + 2.0              # a three-way tie at the max
    x[2] = np.round(x[2])                            # integer scores: ties below the max
    x[3] = 710.0                                     # exp(max) alone would overflow
    x[3, 3] = -np.inf
    x[4] = -np.inf                                   # nothing to sum
    want = logsumexp(x, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = models._logsumexp_rows(x.copy())
    assert got[4] == -np.inf
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_symmetry_sweep_all_models():
    rng = np.random.default_rng(13)
    g = random_graph(rng, 30, 0.25)
    e = spectral_embed(g, 6)
    models = [TruncatedDot(),
              fit_lrdp(e, g, seed=1)[0],
              fit_lrhp(e, g, seed=1)[0],
              build_softmax(e, g)]
    pairs = rng.integers(0, 30, size=(1000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    for model in models:
        for i, j in pairs:
            pij = pair_probability(model, e, int(i), int(j))
            pji = pair_probability(model, e, int(j), int(i))
            assert pij == pytest.approx(pji, abs=1e-12)
            assert 0.0 <= pij <= 1.0


def test_probabilities_within_unit_interval_blockwise():
    rng = np.random.default_rng(19)
    g = random_graph(rng, 25, 0.3)
    e = spectral_embed(g, 10)
    for model in [TruncatedDot(), fit_lrdp(e, g, seed=2)[0],
                  fit_lrhp(e, g, seed=2)[0], build_softmax(e, g)]:
        p = model.prob_block(e, np.arange(25), np.arange(25))
        off = ~np.eye(25, dtype=bool)
        assert np.all(p[off] >= 0.0) and np.all(p[off] <= 1.0)


# -------------------------------------------------------- serialization

def test_model_json_round_trip():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 15, 0.3)
    e = Embedding(rng.normal(size=(15, 3)))
    models = [TruncatedDot(),
              LogisticDot(1.5, -0.25),
              LogisticHadamard(np.array([0.5, -1.0, 2.0]), 0.1),
              build_softmax(e, g)]
    docs = [model_to_json(model) for model in models]
    assert docs[:3] == [{"variant": "tdp"},
                        {"variant": "lrdp", "slope": 1.5, "intercept": -0.25},
                        {"variant": "lrhp", "weights": [0.5, -1.0, 2.0], "intercept": 0.1}]
    assert docs[3] == {"variant": "softmax", "log_scale": models[3].log_scale.tolist()}
    # an isolated vertex's log s_i = -inf is written as null
    docs.append(model_to_json(DegreeSoftmax(np.array([0.5, -np.inf, 996.6]))))
    assert docs[4] == {"variant": "softmax", "log_scale": [0.5, None, 996.6]}
    for doc in docs:
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    # equal parameters give equal digests, and every model its own
    again = [TruncatedDot(), LogisticDot(1.5, -0.25),
             LogisticHadamard(np.array([0.5, -1.0, 2.0]), 0.1),
             DegreeSoftmax(models[3].log_scale.copy())]
    digests = [model_digest(model) for model in models]
    assert digests == [model_digest(model) for model in again]
    assert len(set(digests)) == len(digests)
    assert model_digest(LogisticDot(1.5, -0.5)) not in digests


def test_model_json_rejects_unknown_variant():
    with pytest.raises(TypeError):
        model_to_json({"variant": "euclidean"})
    with pytest.raises(TypeError):
        model_digest("tdp")
