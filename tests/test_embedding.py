import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from embedaudit.embedding import (
    EigensolverError,
    Embedding,
    EmbeddingFormatError,
    load_embedding,
    save_embedding,
    spectral_embed,
)
from embedaudit import blocks, embedding
from embedaudit.embedding import _BLOCK, _Adjacency, _power, _spectrum_bounds
from embedaudit.graph import Graph
from perfbench import gen


def k_complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng, n, p):
    return Graph.from_edges(n, np.argwhere(np.triu(oracles.random_gnp(rng, n, p), 1)))


def reconstruction(e):
    """Full score matrix: the rank-d adjacency reconstruction of a spectral e."""
    return e.score_block(np.arange(e.n), np.arange(e.n))


# ------------------------------------------------------------- spectral

def test_k3_full_spectrum():
    e = spectral_embed(k_complete(3), 3)
    assert np.allclose(sorted(e.eigenvalues), [-1, -1, 2])
    assert np.abs(e.eigenvalues[0] - 2) < 1e-12   # largest magnitude first
    a_d = reconstruction(e)
    assert np.max(np.abs(a_d - k_complete(3).adjacency_matrix())) <= 1e-8


def test_full_rank_reconstruction_identity():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 17, 0.3)
    e = spectral_embed(g, g.n)
    assert np.max(np.abs(reconstruction(e) - g.adjacency_matrix())) <= 1e-8


def test_star_top2_eigenvalues():
    # independent dense oracle on the explicit 5x5 adjacency matrix
    g = star(4)
    w = np.linalg.eigvalsh(g.adjacency_matrix())
    top2 = sorted(w, key=abs, reverse=True)[:2]
    e = spectral_embed(g, 2)
    assert np.allclose(sorted(e.eigenvalues), sorted(top2), atol=1e-12)
    assert np.allclose(sorted(np.abs(e.eigenvalues)), [2.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("solver, cutoff", [(np.linalg, 2000), (embedding, 5)])
def test_eigenpair_residuals_checked_on_both_paths(monkeypatch, solver, cutoff):
    name = "eigh" if solver is np.linalg else "_block_lanczos"
    exact = getattr(solver, name)

    def corrupted(*args, **kwargs):
        if solver is np.linalg:
            w, u = exact(*args, **kwargs)
            return w + 1e-3, u
        u, *rest = exact(*args, **kwargs)
        u[:, 0] = np.roll(u[:, 0], 1)
        return u, *rest

    g = random_graph(np.random.default_rng(3), 30, 0.3)
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", cutoff)
    spectral_embed(g, 4)
    monkeypatch.setattr(solver, name, corrupted)
    with pytest.raises(EigensolverError, match="residual"):
        spectral_embed(g, 4)


def test_eigenvalues_sorted_by_magnitude_and_columns_orthonormal():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 30, 0.3)
    e = spectral_embed(g, 12)
    mags = np.abs(e.eigenvalues)
    assert np.all(mags[:-1] >= mags[1:] - 1e-12)
    gram = e.vectors.T @ e.vectors
    assert np.max(np.abs(gram - np.eye(12))) <= 1e-8


def test_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 20, 0.4)
    e1 = spectral_embed(g, 5)
    e2 = spectral_embed(g, 5)
    assert np.array_equal(e1.vectors, e2.vectors)
    for c in range(5):
        col = e1.vectors[:, c]
        assert col[np.argmax(np.abs(col))] > 0


def bipartite_graph(rng, n1, n2, p):
    i, j = np.nonzero(rng.random((n1, n2)) < p)
    return Graph.from_edges(n1 + n2, np.column_stack([i, n1 + j]))


def triangles_plus_noise(rng, t):
    n = 3 * t
    base = 3 * np.arange(t)
    triangles = [np.column_stack([base + a, base + b]) for a, b in ((0, 1), (1, 2), (0, 2))]
    noise = np.argwhere(np.triu(rng.random((n, n)) < 1.0 / n, 1))
    return Graph.from_edges(n, np.concatenate(triangles + [noise]))


def with_edges(g, edges, n=None):
    """g plus the given edges, on n >= g.n vertices (the new ones isolated)."""
    return Graph.from_edges(n or g.n, np.concatenate(
        [np.argwhere(np.triu(g.adjacency_matrix())), edges]))


def hub_graph():
    # one vertex joined to 400 of the 600: lambda_1^2 is 80 times lambda_100^2
    g = triangles_plus_noise(np.random.default_rng(8), 200)
    return with_edges(g, np.column_stack([np.zeros(400, int), np.arange(1, 401)]))


def twins_graph():
    # vertices 150 and 151 share their 30 neighbours, and both are among the
    # 10 highest degrees, so A^2 restricted to the top rows is singular
    g = random_graph(np.random.default_rng(5), 150, 0.05)
    return with_edges(g, np.concatenate([np.column_stack([np.full(30, v), np.arange(30)])
                                         for v in (150, 151)]), n=160)


@pytest.mark.parametrize("g, d, pairs", [
    (random_graph(np.random.default_rng(14), 120, 0.08), 6, 0),
    (bipartite_graph(np.random.default_rng(21), 70, 50, 0.1), 10, 5),   # lambda, -lambda pairs
    (triangles_plus_noise(np.random.default_rng(8), 200), 100, 0),      # n = 600
], ids=["gnp", "bipartite", "triangles_plus_noise"])
def test_iterative_solver_matches_dense(g, d, pairs, monkeypatch):
    mags = np.sort(np.abs(np.linalg.eigvalsh(g.adjacency_matrix())))[::-1]
    assert mags[d - 1] - mags[d] > 1e-3        # the top d are unique
    dense = spectral_embed(g, d)
    report = {}
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    sparse = spectral_embed(g, d, report=report)
    assert report["path"] == "folded" and report["power"] > 1   # the solve ran on (A^2)^p
    assert np.max(np.abs(dense.eigenvalues - sparse.eigenvalues)) <= 1e-10
    assert np.max(np.abs(reconstruction(dense) - reconstruction(sparse))) <= 1e-8
    # each +lambda/-lambda pair comes out as (+, -) on both paths
    ev = sparse.eigenvalues
    first = np.flatnonzero(np.isclose(ev[:-1], -ev[1:], rtol=0, atol=1e-10))
    assert first.size == pairs and np.all(ev[first] > 0)


def test_hub_graph_solves_unpowered_and_matches_dense(monkeypatch):
    g = hub_graph()
    dense = spectral_embed(g, 100)
    report = {}
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    sparse = spectral_embed(g, 100, report=report)
    assert report["path"] == "folded" and report["power"] == 1
    assert report["max_relative_residual"] <= 1e-10
    assert np.max(np.abs(dense.eigenvalues - sparse.eigenvalues)) <= 1e-10
    assert np.max(np.abs(reconstruction(dense) - reconstruction(sparse))) <= 1e-8


@pytest.mark.parametrize("d", [40, 80])
def test_folded_solve_finds_every_copy_of_a_repeated_eigenvalue(d, monkeypatch):
    # _BLOCK disjoint K4s: lambda = 3 has multiplicity _BLOCK, at 0-based
    # positions 17-20 of 466; a single-vector Krylov solve sees one copy,
    # finds others only through rounding, and fills the top d with smaller
    # |lambda| (ARPACK returned 2 of the 4)
    g = triangles_plus_noise(np.random.default_rng(8), 150)
    k4 = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)])
    g = with_edges(g, np.concatenate([k4 + g.n + 4 * c for c in range(_BLOCK)]),
                   n=g.n + 4 * _BLOCK)
    w = np.linalg.eigvalsh(g.adjacency_matrix())
    assert np.sum(np.abs(w - 3) <= 1e-10) == _BLOCK
    mags = np.sort(np.abs(w))[::-1]
    assert mags[d - 1] - mags[d] > 1e-3        # the top d are unique
    dense = spectral_embed(g, d)
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    sparse = spectral_embed(g, d)
    assert np.max(np.abs(np.abs(sparse.eigenvalues) - mags[:d])) <= 1e-10
    assert np.max(np.abs(reconstruction(dense) - reconstruction(sparse))) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the folded solve returns 8 of the 9 copies of lambda = 4, "
                          "and nothing in its report warns of it")
def test_folded_solve_finds_nine_copies_of_a_repeated_eigenvalue():
    # the benchmark's graph at n = 2100 plus 9 disjoint K5: lambda = 4 nine
    # times at the top of the spectrum, more copies than one Lanczos block
    # holds, on the path that n = 2145 > _DENSE_CUTOFF takes by itself
    base = gen.triangles_plus_noise(2100, 5)
    k5 = np.array([(i, j) for i in range(5) for j in range(i + 1, 5)])
    g = Graph.from_edges(base.n + 45, np.concatenate(
        [base.edges] + [k5 + base.n + 5 * c for c in range(9)]))
    mags = np.sort(np.abs(np.linalg.eigvalsh(g.adjacency_matrix())))[::-1]
    if (g.n <= embedding._DENSE_CUTOFF or np.sum(np.abs(mags - 4) <= 1e-10) != 9
            or mags[14] - mags[15] <= 1e-3):
        pytest.fail("the input no longer puts 9 copies of lambda = 4 in a unique "
                    "top 15 on the folded path")
    got = np.abs(spectral_embed(g, 15).eigenvalues)
    assert np.max(np.abs(got - mags[:15])) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_folded_solve_goes_on_past_a_closed_krylov_space(monkeypatch):
    # 30 disjoint K_{3,3}: lambda = +3 and -3, 30 times each, and 0; the
    # Krylov space of A^2 closes after one block, and the other copies come
    # from the random directions that replace the lost ones; the test
    # schedule reads the log of residuals that are exactly 0 here, and must
    # not warn
    k33 = np.array([(i, j) for i in range(3) for j in range(3, 6)])
    g = Graph.from_edges(180, np.concatenate([k33 + 6 * c for c in range(30)]))
    report = {}
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    e = spectral_embed(g, 60, report=report)
    assert report["path"] == "folded"
    assert np.max(np.abs(np.abs(e.eigenvalues) - 3)) <= 1e-10
    assert np.all(e.eigenvalues[:30] > 0) and np.all(e.eigenvalues[30:] < 0)
    assert np.max(np.abs(reconstruction(e) - g.adjacency_matrix())) <= 1e-8
    assert report["eigengap"] == pytest.approx(3.0, abs=1e-12)     # |lambda_61| = 0


def test_folded_eigengap_is_accurate_when_the_next_eigenvalue_is_zero(monkeypatch):
    # 100 disjoint K_{3,3} at d = 250: lambda_1..200 = +-3, the rest 0, so
    # the top 250 hold 50 zeros and the gap at d is exactly 0; the (d+1)-th
    # Ritz value of (A^2)^p carries rounding of about eps * 3^(2p), which
    # its (2p)-th root would blow up to about 1e-8
    k33 = np.array([(i, j) for i in range(3) for j in range(3, 6)])
    g = Graph.from_edges(600, np.concatenate([k33 + 6 * c for c in range(100)]))
    report = {}
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    spectral_embed(g, 250, report=report)
    assert report["path"] == "folded"
    assert abs(report["eigengap"]) <= 1e-12


def test_folded_solve_holds_the_krylov_basis_and_two_results(monkeypatch):
    # the Ritz vectors are filled in row chunks: an (n, d) product of each
    # basis chunk beside the (n, d) result breaks the bound
    monkeypatch.setattr(blocks, "CHUNK_ENTRIES", 1 << 12)
    base = gen.triangles_plus_noise(6600, 5)
    g = Graph.from_edges(base.n, base.edges)
    d, report = 100, {}
    peak = oracles.traced_peak(lambda: spectral_embed(g, d, report=report))
    assert report["path"] == "folded"
    basis = report["operator_applications"] * report["block_size"] * g.n * 8
    assert peak < basis + 2 * g.n * d * 8


def test_folded_solve_writes_its_ritz_vectors_over_the_basis(monkeypatch):
    # the top d Ritz vectors go over the first chunk of the basis, whose
    # other chunks are dropped before the (n, d) result is copied out, so
    # nothing n x d sits beside the whole basis (0.63 n d above it); a
    # separate result next to the basis takes it to 1.67 n d
    monkeypatch.setattr(blocks, "CHUNK_ENTRIES", 1 << 12)
    base = gen.triangles_plus_noise(6600, 5)
    g = Graph.from_edges(base.n, base.edges)
    d, report = 100, {}
    peak = oracles.traced_peak(lambda: spectral_embed(g, d, report=report))
    assert report["path"] == "folded"
    basis = report["operator_applications"] * report["block_size"] * g.n * 8
    assert peak < basis + 0.8 * g.n * d * 8


@pytest.fixture(scope="module")
def high_rank_solve():
    """The folded solve of the benchmark's graph at (3000, 300): the graph,
    d, the solve's report and the traced peak of _block_lanczos above what
    was traced when it was called."""
    solve, peaks = embedding._block_lanczos, []

    def traced_solve(op, n, d):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = solve(op, n, d)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    base = gen.triangles_plus_noise(3000, 5)
    g = Graph.from_edges(base.n, base.edges)
    report = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "_block_lanczos", traced_solve)
        oracles.traced_peak(lambda: spectral_embed(g, 300, report=report))
    assert report["path"] == "folded"
    return g, 300, report, peaks[0]


def test_block_lanczos_holds_one_convergence_test_beside_its_basis(high_rank_solve):
    # the basis counts as allocated: one first chunk of 2d + b rows, of
    # which the k filled rows are read.  Beside it the solve holds one
    # test's T and eigenvectors (2 k^2), or at the end the (n, d) copy of
    # its Ritz vectors, and the iteration's few n x b blocks; two tests at
    # once take 4 k^2, and a copy beside a test or a second result n d more
    g, d, report, peak = high_rank_solve
    n, k, b = g.n, report["krylov_dimension"], report["block_size"]
    allocated = 2 * d + b
    assert k <= allocated
    assert peak < allocated * n * 8 + max(2 * k * k, n * d) * 8 + 4 * n * b * 8


def test_folded_solve_stops_inside_its_first_chunk_at_high_rank(high_rank_solve):
    # L from the 2d highest-degree vertices raises the power from 4 to 7,
    # and the tests at 1.5d + b and then where the residuals predict stop
    # the solve at k = 548; testing at chunk ends took it to k = 680 = 2.27d,
    # two chunks, and a traced peak of 24.2 MB.  One first chunk and the
    # result are (3d + b) n doubles, 21.7 MB
    g, d, report, peak = high_rank_solve
    assert report["krylov_dimension"] <= 1.9 * d
    assert peak < 23e6


@pytest.mark.filterwarnings("error")
def test_folded_solve_at_d_equal_n_minus_2(monkeypatch):
    # the largest d the folded path takes: its first chunk of V^T holds n
    # rows, fewer than 2d + b, and the Krylov space fills before 1.5d + b;
    # the residuals at k = n are exact, and their test must not warn
    g = random_graph(np.random.default_rng(0), 30, 0.3)
    d = g.n - 2
    dense = spectral_embed(g, d)
    report = {}
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    sparse = spectral_embed(g, d, report=report)
    assert report["path"] == "folded"
    assert report["operator_applications"] == -(-g.n // report["block_size"])
    assert report["krylov_dimension"] == g.n and report["convergence_tests"] == 1
    assert np.max(np.abs(dense.eigenvalues - sparse.eigenvalues)) <= 1e-10
    assert np.max(np.abs(reconstruction(dense) - reconstruction(sparse))) <= 1e-8


@pytest.mark.parametrize("g, d", [
    (random_graph(np.random.default_rng(14), 120, 0.08), 6),
    (bipartite_graph(np.random.default_rng(21), 70, 50, 0.1), 10),
    (triangles_plus_noise(np.random.default_rng(8), 200), 100),
    (hub_graph(), 100),
    (with_edges(random_graph(np.random.default_rng(5), 150, 0.05),
                np.empty((0, 2), int), n=200), 10),                # 50 isolated vertices
    (twins_graph(), 10),
], ids=["gnp", "bipartite", "triangles_plus_noise", "hub", "isolated", "twins"])
def test_spectrum_bounds_bracket_the_folded_spectrum(g, d):
    mu = np.sort(np.linalg.eigvalsh(g.adjacency_matrix()) ** 2)[::-1]
    upper, lower = _spectrum_bounds(_Adjacency(g), d)
    # Collatz-Wielandt and Cauchy interlacing are exact; allow the rounding
    assert upper >= mu[0] * (1 - 1e-12)
    assert lower <= mu[d - 1] * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 40), p=st.floats(0.05, 0.6), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_spectrum_bounds_bracket_the_spectrum_of_random_graphs(n, p, seed, data):
    # every d the folded path takes, 2d > n among them, where all n rows
    # form the Gram and L is its d-th largest eigenvalue
    d = data.draw(st.integers(1, n - 2), label="d")
    g = random_graph(np.random.default_rng(seed), n, p)
    mu = np.sort(np.linalg.eigvalsh(g.adjacency_matrix()) ** 2)[::-1]
    upper, lower = _spectrum_bounds(_Adjacency(g), d)
    # an exact mu_d = 0 comes out of either solve as rounding of mu_1's size
    slack = 1e-12 * mu[0]
    assert upper >= mu[0] * (1 - 1e-12) - slack
    assert lower <= mu[d - 1] * (1 + 1e-12) + slack


def test_zero_mu_d_forces_power_one():
    # 30 disjoint K_{3,3}: A^2 has 60 eigenvalues 9 and the rest 0, so at
    # d = 70 mu_d = 0, and so is L, which the Gram of the 140 highest
    # degrees (23 whole K_{3,3} and two vertices of one side of the next)
    # puts at its 70th eigenvalue
    k33 = np.array([(i, j) for i in range(3) for j in range(3, 6)])
    g = Graph.from_edges(180, np.concatenate([k33 + 6 * c for c in range(30)]))
    upper, lower = _spectrum_bounds(_Adjacency(g), 70)
    assert upper >= 9 * (1 - 1e-12)
    assert abs(lower) <= 1e-12 * upper
    assert _power(upper, lower) == 1


def csr(g):
    return scipy.sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                                   shape=(g.n, g.n))


ADJACENCY_GRAPHS = {
    "isolated": lambda: with_edges(random_graph(np.random.default_rng(5), 150, 0.05),
                                   np.empty((0, 2), int), n=200),
    "hub": hub_graph,
    "no_edges": lambda: Graph.from_edges(30, np.empty((0, 2), int)),
}


@pytest.mark.parametrize("graph", ADJACENCY_GRAPHS.values(), ids=ADJACENCY_GRAPHS.keys())
@pytest.mark.parametrize("shape", [(), (_BLOCK,), (100,)], ids=["1d", "n_by_block", "n_by_d"])
def test_adjacency_product_equals_the_csr_product_bit_for_bit(graph, shape):
    # the folded solve must not move when the product leaves scipy.sparse:
    # each row sums its neighbours left to right, as CSR matvecs do
    g = graph()
    x = np.random.default_rng(1).standard_normal((g.n, *shape))
    a, reference = _Adjacency(g), csr(g)
    assert np.array_equal(a @ x, reference @ x)
    if shape:
        wide = np.random.default_rng(2).standard_normal((g.n, shape[0] + 3))
        for view in (wide[:, :shape[0]], np.asfortranarray(x)):   # strided, Fortran order
            assert np.array_equal(a @ view, reference @ view)


@pytest.mark.parametrize("graph", [*ADJACENCY_GRAPHS.values(), twins_graph],
                         ids=[*ADJACENCY_GRAPHS.keys(), "twins"])
def test_spectrum_bounds_equal_the_csr_bounds(graph):
    # the Gram of the 2d top rows holds integer counts, so it equals the
    # CSR product's, and so does its d-th largest eigenvalue
    g, d = graph(), 10
    a = csr(g)
    x = np.ones(g.n)
    for _ in range(embedding._BOUND_STEPS):
        x = a @ (a @ x) + x
        x /= x.max()
    top = a[np.argsort(-np.diff(a.indptr), kind="stable")[:2 * d]]
    expected = (float(np.max((a @ (a @ x) + x) / x)) - 1.0,
                float(np.linalg.eigvalsh((top @ top.T).toarray())[-d]))
    assert _spectrum_bounds(_Adjacency(g), d) == expected


@pytest.mark.parametrize("upper, lower, power", [
    (100.0, 1.0, 2), (10.0, 1.0, 4), (1.0, 1.0, 8), (1.5, 1.0, 8),
    (1e5, 1.0, 1), (10.0, 0.0, 1), (10.0, -1e-15, 1),
])
def test_power_keeps_the_powered_spread_within_1e4(upper, lower, power):
    assert _power(upper, lower) == power


def test_sparse_path_splits_a_folded_pair(monkeypatch):
    # star(4) has eigenvalues +2 and -2, which share the eigenvalue 4 of A^2;
    # the folded solve may return any unit vector of that plane
    g = star(4)
    a = g.adjacency_matrix()
    w, u = np.linalg.eigh(a)
    mixed = (u[:, np.argmax(w)] + u[:, np.argmin(w)]) / np.sqrt(2)
    other = (u[:, np.argmax(w)] - u[:, np.argmin(w)]) / np.sqrt(2)
    assert np.allclose(a @ (a @ mixed), 4 * mixed, atol=1e-12)
    calls = []

    def mixed_solve(op, n, d):
        calls.append((n, d))
        # Ritz vector d + 1 is the other mixture of the plane, with ||A y|| = 2
        return mixed[:, None].copy(), other, 2, 1

    monkeypatch.setattr(embedding, "_block_lanczos", mixed_solve)
    report = {}
    monkeypatch.setattr(embedding, "_DENSE_CUTOFF", 1)
    e = spectral_embed(g, 1, report=report)
    assert calls == [(5, 1)]
    assert abs(abs(e.eigenvalues[0]) - 2) <= 1e-12
    psi = e.vectors[:, 0]
    assert np.max(np.abs(a @ psi - e.eigenvalues[0] * psi)) <= 1e-12
    assert abs(report["eigengap"]) <= 1e-12        # |lambda_1| = |lambda_2| = 2


def test_dense_prefix_equals_lower_rank_solve():
    # ranksweep samples rank d from the d-column prefix of one solve at D
    rng = np.random.default_rng(12)
    g = random_graph(rng, 60, 0.15)
    full = spectral_embed(g, 40)
    for d in (1, 7, 20, 40):
        e = spectral_embed(g, d)
        assert np.array_equal(full.vectors[:, :d], e.vectors)
        assert np.array_equal(full.eigenvalues[:d], e.eigenvalues)


def test_frobenius_error_monotone_in_d():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 24, 0.3)
    a = g.adjacency_matrix()
    errs = [np.linalg.norm(reconstruction(spectral_embed(g, d)) - a)
            for d in range(1, g.n + 1, 3)]
    assert all(e1 >= e2 - 1e-9 for e1, e2 in zip(errs, errs[1:]))


def test_dimension_bounds_rejected():
    g = k_complete(4)
    with pytest.raises(ValueError):
        spectral_embed(g, 0)
    with pytest.raises(ValueError):
        spectral_embed(g, 5)


# ------------------------------------------------------------ pair score

def test_pair_score_plain():
    e = Embedding.plain([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert e.score_block([0], [1, 2]).tolist() == [[1.0, 0.0]]


def test_pair_score_spectral_reconstructs_adjacency():
    e = spectral_embed(k_complete(3), 3)
    block = e.score_block([0, 1], [1, 2])
    assert block[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert block[1, 1] == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_score_symmetric(n, d, seed):
    rng = np.random.default_rng(seed)
    e = Embedding.plain(rng.normal(size=(n, d)))
    i, j = rng.integers(0, n, size=2)
    assert e.score_block([i], [j])[0, 0] == pytest.approx(e.score_block([j], [i])[0, 0],
                                                           abs=1e-12)


def test_score_block_matches_scalar():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 15, 0.3)
    e = spectral_embed(g, 6)
    rows, cols = np.arange(5), np.arange(7, 12)
    block = e.score_block(rows, cols)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert block[a, b] == pytest.approx(oracles.pair_score(e, i, j), abs=1e-12)


# ----------------------------------------------------------------- files

def test_plain_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    e = Embedding.plain(rng.normal(size=(5, 3)))
    p = tmp_path / "emb.txt"
    save_embedding(e, p)
    back = load_embedding(p)
    assert back.kind == "plain"
    assert np.max(np.abs(back.vectors - e.vectors)) <= 1e-12


def test_spectral_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    g = random_graph(rng, 18, 0.3)
    e = spectral_embed(g, 4)
    p = tmp_path / "emb.txt"
    save_embedding(e, p)
    back = load_embedding(p)
    assert back.kind == "spectral"
    assert np.max(np.abs(back.vectors - e.vectors)) <= 1e-12
    assert np.max(np.abs(back.eigenvalues - e.eigenvalues)) <= 1e-12


def test_load_dimension_mismatch(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 4 plain\n0 1.0 2.0 3.0\n1 1.0 2.0 3.0 4.0\n")
    with pytest.raises(EmbeddingFormatError, match="expected 4"):
        load_embedding(p)


def test_load_missing_vertex(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 1 plain\n0 1.0\n2 1.0\n")
    with pytest.raises(EmbeddingFormatError, match="missing vertex id 1"):
        load_embedding(p)


def test_load_non_finite_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 plain\n0 1.0 nan\n")
    with pytest.raises(EmbeddingFormatError, match="non-finite"):
        load_embedding(p)
    with pytest.raises(ValueError, match="finite"):
        Embedding.plain([[np.nan]])


def test_load_external_plain_file_with_comments(tmp_path):
    # hand-written file: rows out of order, comments before header
    p = tmp_path / "external.txt"
    p.write_text("# produced elsewhere\n# more provenance\n3 2 plain\n2 0.5 0.5\n0 1 0\n1 0 1\n")
    e = load_embedding(p)
    assert e.n == 3 and e.d == 2
    assert e.score_block([0], [1, 2]).tolist() == [[0.0, 0.5]]
