import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from embedaudit.embedding import Embedding
from embedaudit.graph import Graph
from embedaudit.theory import (
    core_rank_certificate,
    greedy_independent_set,
    independent_set_floor,
    negative_dot_mass,
    numeric_rank,
    packing_max_dot,
    rank_lemma_bound,
)


def random_graph(rng, n, p):
    return Graph.from_edges(n, np.argwhere(np.triu(oracles.random_gnp(rng, n, p), 1)))


def random_unit_vectors(rng, count, d):
    v = rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ------------------------------------------------------------ rank bound

def test_rank_bound_identity_is_tight():
    assert rank_lemma_bound(np.eye(5)) == pytest.approx(5.0)


def test_rank_bound_all_ones_is_tight():
    assert rank_lemma_bound(np.ones((4, 4))) == pytest.approx(1.0)


def test_rank_bound_gram_of_low_dim_vectors():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(10, 3))
    gram = v @ v.T
    bound = rank_lemma_bound(gram)
    assert bound <= 3.0 + 1e-9
    assert bound <= oracles.numeric_rank_svd(gram) + 1e-6


def test_rank_bound_rejects_zero_and_nonsquare():
    with pytest.raises(ValueError):
        rank_lemma_bound(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        rank_lemma_bound(np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_bound_never_exceeds_numeric_rank(n, r, seed):
    rng = np.random.default_rng(seed)
    rank = min(n, r)
    m = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
    if np.sum(m * m) == 0:
        return
    true_rank = oracles.numeric_rank_svd(m)
    assert rank_lemma_bound(m) <= true_rank * (1 + 1e-6) + 1e-12


def test_numeric_rank_detects_deficiency():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 8))
    assert numeric_rank(m) == 2
    assert numeric_rank(np.zeros((4, 4))) == 0


# --------------------------------------------------------------- packing

def test_packing_repeated_vectors_in_1d():
    assert packing_max_dot(np.ones((4, 1))) == pytest.approx(1.0)
    assert 1.0 >= 1.0 / 4.0


def test_packing_eight_plane_vectors():
    angles = np.arange(8) * (2 * np.pi / 8)
    u = np.column_stack([np.cos(angles), np.sin(angles)])
    got = packing_max_dot(u)
    assert got == pytest.approx(np.cos(np.pi / 4), abs=1e-12)
    assert got >= 1.0 / 8.0


def test_packing_randomized_sweep_d3():
    rng = np.random.default_rng(5)
    worst = min(packing_max_dot(random_unit_vectors(rng, 12, 3))
                for _ in range(100))
    assert worst >= 1.0 / 12.0 - 1e-12


def test_packing_rejects_non_unit():
    with pytest.raises(ValueError):
        packing_max_dot(np.array([[1.0, 0.0], [0.0, 2.0]]))


# -------------------------------------------------------- independent set

def test_independent_set_empty_graph():
    g = Graph.from_edges(7, [])
    assert len(greedy_independent_set(g)) == 7


def test_independent_set_cycle():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    s = greedy_independent_set(g)
    assert len(s) >= 2
    assert len(s) >= independent_set_floor(6, 2)


def test_independent_set_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_graph(rng, 50, rng.uniform(0.02, 0.4))
        s = greedy_independent_set(g)
        members = set(int(v) for v in s)
        for v in members:
            assert not any(int(w) in members for w in g.neighbors(v))
        b = int(g.degrees.max()) if g.n else 0
        assert len(s) >= independent_set_floor(g.n, b)


# -------------------------------------------------------- signed dot mass

def test_negative_dot_mass_never_exceeds_positive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = int(rng.integers(2, 30))
        d = int(rng.integers(1, 8))
        w = rng.normal(size=(s, d)) * rng.uniform(0.1, 10)
        neg, pos = negative_dot_mass(w)
        assert neg <= pos * (1 + 1e-12) + 1e-12


def test_negative_dot_mass_hand_case():
    w = np.array([[1.0], [-1.0]])
    neg, pos = negative_dot_mass(w)
    # off-diagonal -1 twice; diagonal +1 twice
    assert neg == pytest.approx(2.0)
    assert pos == pytest.approx(2.0)


# ------------------------------------------------------------ certificate

def test_certificate_orthonormal_basis():
    e = Embedding(np.eye(4))
    cert = core_rank_certificate(e, c=100.0)
    assert cert.emptied_at is None
    assert len(cert.core_indices) == 4
    assert cert.bound == pytest.approx(4.0)      # 16/4 on the identity Gram
    assert cert.gram_trace == pytest.approx(4.0)


def test_certificate_prunes_high_degree_vectors():
    n = 50
    v = np.zeros((n, 3))
    v[:, 0] = np.sqrt(2.0 * n)                  # every score is 2n -> p = 1
    cert = core_rank_certificate(Embedding(v), c=10.0)
    assert cert.emptied_at == "degree_cap"
    assert cert.bound == 0.0
    assert len(cert.core_indices) == 0


def test_certificate_random_unit_vectors_bounded_by_dimension():
    rng = np.random.default_rng(17)
    n, d = 200, 8
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    e = Embedding(v)
    cert = core_rank_certificate(e, c=float(n))
    assert cert.emptied_at is None
    gram = v[cert.core_indices] @ v[cert.core_indices].T
    assert cert.bound <= d + 1e-9
    assert cert.bound <= oracles.numeric_rank_svd(gram) * (1 + 1e-6)


def test_certificate_length_window_prunes_tiny_vectors():
    n = 20
    v = np.full((n, 2), 1e-12)                   # lengths far below n^-2
    cert = core_rank_certificate(Embedding(v), c=5.0)
    assert cert.emptied_at == "length_window"


def test_certificate_buckets_partition_kept_vectors():
    rng = np.random.default_rng(19)
    v = rng.normal(size=(60, 4)) * rng.uniform(0.2, 4.0, size=(60, 1))
    cert = core_rank_certificate(Embedding(v), c=1000.0)
    merged = np.sort(np.concatenate(list(cert.buckets.values())))
    assert np.array_equal(merged, np.sort(cert.kept_indices))
    lengths = np.linalg.norm(v, axis=1)
    for r, idx in cert.buckets.items():
        assert np.all(lengths[idx] >= 2.0 ** r)
        assert np.all(lengths[idx] < 2.0 ** (r + 1))
    assert set(cert.core_indices).issubset(set(cert.kept_indices))


def test_certificate_requires_plain_embedding():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    from embedaudit.embedding import spectral_embed
    with pytest.raises(ValueError):
        core_rank_certificate(spectral_embed(g, 2), c=5.0)
