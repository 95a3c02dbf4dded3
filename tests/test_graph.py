import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from embedaudit.graph import (
    EdgeListParseError,
    Graph,
    TriangleFoundationCurve,
    load_curve,
    load_edge_list,
    save_curve,
    save_degree_distribution,
    save_edge_list,
    triangle_foundation_curve,
)


def k_complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def graph_from_matrix(a):
    n = a.shape[0]
    return Graph.from_edges(n, np.argwhere(np.triu(a, 1)))


# ---------------------------------------------------------------- loading

def test_load_triangle(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    loaded = load_edge_list(p)
    assert loaded.graph.n == 3
    assert loaded.graph.m == 3
    assert loaded.dropped_self_loops + loaded.dropped_duplicates == 0
    assert triangle_foundation_curve(loaded.graph).total_triangles() == 1


def test_load_drops_duplicates_and_loops(tmp_path):
    p = tmp_path / "dups.txt"
    p.write_text("0 1\n0 1\n1 1\n")
    loaded = load_edge_list(p)
    assert loaded.graph.n == 2
    assert loaded.graph.m == 1
    assert loaded.dropped_self_loops + loaded.dropped_duplicates == 2
    assert loaded.dropped_self_loops == 1
    assert loaded.dropped_duplicates == 1


def test_load_relabels_and_keeps_mapping(tmp_path):
    p = tmp_path / "sparse_ids.txt"
    p.write_text("# comment line\n10 30\n30 700\n\n10 700\n")
    loaded = load_edge_list(p)
    assert loaded.graph.n == 3
    assert list(loaded.original_ids) == [10, 30, 700]
    assert triangle_foundation_curve(loaded.graph).total_triangles() == 1


def test_load_reversed_duplicate_detected(tmp_path):
    p = tmp_path / "rev.txt"
    p.write_text("0 1\n1 0\n")
    loaded = load_edge_list(p)
    assert loaded.graph.m == 1
    assert loaded.dropped_duplicates == 1


@pytest.mark.parametrize("body", ["0 x\n", "0\n", "0 1 2\n", "0 -1\n"])
def test_load_malformed_line_names_line_number(tmp_path, body):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n" + body)
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(p)


def test_load_missing_file():
    with pytest.raises(OSError):
        load_edge_list("/nonexistent/edges.txt")


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    g = graph_from_matrix(oracles.random_gnp(rng, 25, 0.2))
    p = tmp_path / "rt.txt"
    save_edge_list(g, p, header_lines=["seed=7"])
    loaded = load_edge_list(p)
    # isolated vertices cannot survive an edge-list round trip
    assert loaded.graph.m == g.m
    assert p.read_text().startswith("# seed=7\n")


# ------------------------------------------------------- degree histogram

def written_histogram(tmp_path, degrees):
    """The degree -> count rows that save_degree_distribution writes."""
    p = tmp_path / "degdist.csv"
    save_degree_distribution(degrees, p)
    header, *rows = p.read_text().splitlines()
    assert header == "degree,count"
    return {int(d): int(c) for d, c in (row.split(",") for row in rows)}


def test_degree_distribution_k3(tmp_path):
    assert written_histogram(tmp_path, k_complete(3).degrees) == {2: 3}


def test_degree_distribution_star(tmp_path):
    g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert written_histogram(tmp_path, g.degrees) == {1: 5, 5: 1}


def test_degree_distribution_matches_recount(tmp_path):
    rng = np.random.default_rng(11)
    a = oracles.random_gnp(rng, 50, 0.2)
    g = graph_from_matrix(a)
    dist = written_histogram(tmp_path, g.degrees)
    recount = oracles.recount_degrees(g)
    expected = {}
    for d in recount:
        expected[int(d)] = expected.get(int(d), 0) + 1
    assert dist == expected
    assert sum(dist.values()) == 50


def test_expected_degree_distribution_bins_to_integers(tmp_path):
    assert written_histogram(tmp_path, np.array([0.2, 1.9, 2.1, 2.4])) == {0: 1, 2: 3}
    # counts are written as plain integers, rows in ascending degree
    assert (tmp_path / "degdist.csv").read_text() == "degree,count\n0,1\n2,3\n"


# ----------------------------------------------------------------- curves

def test_curve_k3():
    curve = triangle_foundation_curve(k_complete(3))
    oracles.assert_curve_is(curve, [(2, 1.0 / 3.0)])


def test_curve_k4():
    curve = triangle_foundation_curve(k_complete(4))
    oracles.assert_curve_is(curve, [(3, 1.0)])
    assert curve.value_at(2) == 0.0
    assert curve.value_at(10) == 1.0


def test_value_at_on_an_array_grid_equals_scalar_lookups():
    curve = TriangleFoundationCurve([2, 3, 7], [0.125, 0.25, 0.5], n_ref=8)
    grid = np.array([-1, 0, 1, 2, 3, 4, 6, 7, 8, 100])
    got = curve.value_at(grid)
    assert got.shape == grid.shape
    assert got.tolist() == [curve.value_at(int(c)) for c in grid]
    assert got.tolist() == [0.0, 0.0, 0.0, 0.125, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5]
    empty = TriangleFoundationCurve([], [], n_ref=1)
    assert empty.value_at(grid).tolist() == [0.0] * grid.size
    with pytest.raises(ValueError):
        curve.deltas[0] = 1.0


def test_curve_csv_writer_and_reader(tmp_path):
    curve = TriangleFoundationCurve([0, 2], [0.0, 1.0 / 3.0], n_ref=3)
    path = tmp_path / "curve.csv"
    save_curve(curve, path)
    stream = io.StringIO()
    save_curve(curve, stream)
    text = "c,delta\n0,0\n2,0.333333333333333\n"
    assert path.read_bytes() == stream.getvalue().encode() == text.encode()
    back = load_curve(path, n_ref=3)
    assert back.thresholds.tolist() == [0, 2]
    assert back.deltas.tolist() == [0.0, 0.333333333333333]
    path.write_text("degree,count\n2,1\n")
    with pytest.raises(ValueError, match="c,delta"):
        load_curve(path, n_ref=3)


def test_curve_uses_full_graph_degrees():
    # path 0-1-2 plus triangle pendant degrees: max endpoint degree keys the curve
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    curve = triangle_foundation_curve(g)
    # degrees: [2, 2, 3, 2, 1]; the single triangle has max degree 3
    assert curve.value_at(2) == 0.0
    assert curve.value_at(3) == pytest.approx(1 / 5)


def test_curve_matches_bruteforce_oracle():
    rng = np.random.default_rng(23)
    a = oracles.random_gnp(rng, 40, 0.3)
    g = graph_from_matrix(a)
    curve = triangle_foundation_curve(g)
    oracles.assert_curve_is(curve, oracles.brute_force_curve(a, g.n))


def test_curve_matches_networkx_on_tdp_sample():
    nx = pytest.importorskip("networkx")
    from embedaudit.embedding import Embedding
    from embedaudit.models import TruncatedDot
    from embedaudit.sampling import sample_graph

    rng = np.random.default_rng(8)
    n, k = 1000, 25
    vectors = 0.55 * np.eye(k)[np.arange(n) % k] + rng.normal(0.0, 0.08, size=(n, k))
    g = sample_graph(Embedding(vectors), TruncatedDot(), seed=4, sample_index=0)
    curve = triangle_foundation_curve(g)
    h = nx.Graph(g.edge_array().tolist())
    h.add_nodes_from(range(n))
    deg = g.degrees
    expected = []
    for c in np.unique(deg):
        sub = h.subgraph(np.flatnonzero(deg <= c).tolist())
        expected.append((int(c), sum(nx.triangles(sub).values()) // 3 / n))
    oracles.assert_curve_is(curve, expected)
    assert curve.total_triangles() == sum(nx.triangles(h).values()) // 3 > 1000


def test_triangle_count_examples():
    assert triangle_foundation_curve(k_complete(4)).total_triangles() == 4
    assert triangle_foundation_curve(cycle(5)).total_triangles() == 0


def test_triangle_count_matches_bruteforce():
    rng = np.random.default_rng(31)
    a = oracles.random_gnp(rng, 30, 0.5)
    g = graph_from_matrix(a)
    total, _ = oracles.brute_force_triangle_maxdeg(a)
    assert triangle_foundation_curve(g).total_triangles() == total


def test_blocked_triangle_count_matches_bruteforce(monkeypatch):
    # a dense graph holds about 8x more two-step paths than edges, so a budget
    # of m paths splits the product into several row blocks
    from embedaudit import graph

    monkeypatch.setattr(graph, "_PATH_BLOCK", 1)
    rng = np.random.default_rng(12)
    for n, p in ((40, 0.6), (25, 0.9), (30, 0.1)):
        a = oracles.random_gnp(rng, n, p)
        g = graph_from_matrix(a)
        oracles.assert_curve_is(triangle_foundation_curve(g),
                                oracles.brute_force_curve(a, n))


def test_curve_consistency_invariants():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = oracles.random_gnp(rng, 30, rng.uniform(0.05, 0.5))
        g = graph_from_matrix(a)
        curve = triangle_foundation_curve(g)
        deltas = curve.deltas
        assert np.all(np.diff(deltas) >= 0)
        assert curve.total_triangles() == oracles.brute_force_triangle_maxdeg(a)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_relabeling_leaves_curve_unchanged(n, seed):
    rng = np.random.default_rng(seed)
    a = oracles.random_gnp(rng, n, 0.4)
    g = graph_from_matrix(a)
    perm = rng.permutation(n)
    e = g.edge_array()
    g2 = Graph.from_edges(n, np.column_stack([perm[e[:, 0]], perm[e[:, 1]]]) if e.size else [])
    c1 = triangle_foundation_curve(g)
    c2 = triangle_foundation_curve(g2)
    assert np.array_equal(c1.thresholds, c2.thresholds)
    assert np.array_equal(c1.deltas, c2.deltas)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))))
@example((4, []))
@example((3, [(0, 1), (1, 0), (2, 2), (0, 1), (2, 1)]))
def test_from_edges_matches_lexsort_reference(case):
    # duplicates, reversed pairs and self-loops are all common at n <= 12
    n, edges = case
    g = Graph.from_edges(n, edges)
    indptr, indices = oracles.csr_from_edges_reference(n, edges)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)


def test_graph_structural_invariants():
    rng = np.random.default_rng(3)
    g = graph_from_matrix(oracles.random_gnp(rng, 40, 0.15))
    deg = g.degrees
    assert deg.sum() == 2 * g.m
    for u in range(g.n):
        nb = g.neighbors(u)
        assert np.all(np.diff(nb) > 0)        # sorted, no duplicates
        assert u not in nb                     # no self-loops
        for v in nb:
            assert u in g.neighbors(v)         # symmetry


def test_graph_is_immutable():
    g = k_complete(3)
    with pytest.raises(ValueError):
        g.indices[0] = 2
