"""End-to-end acceptance checks for the audit pipeline.

One test per criterion, each asserting at its frozen tolerance and printing
a single pass line (visible under ``pytest -s`` or in captured output).
Criteria with randomized content run on frozen seeds so outcomes are
reproducible.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import embedaudit
import oracles
from embedaudit.cli import AuditConfig, cmd_audit
from embedaudit.embedding import Embedding, spectral_embed
from embedaudit.graph import (
    Graph,
    save_edge_list,
    triangle_foundation_curve,
)
from embedaudit.models import TruncatedDot, build_softmax, fit_lrdp, fit_lrhp
from embedaudit.sampling import (
    curve_over_samples,
    expected_degree_second_moment,
    expected_triangles_exact,
    sample_graph,
)
from embedaudit.sampling import _pair_walk, _store_edges
from embedaudit.theory import (
    greedy_independent_set,
    independent_set_floor,
    negative_dot_mass,
    packing_max_dot,
    rank_lemma_bound,
)
from perfbench import gen

TDP = TruncatedDot()


def _ok(num, label):
    print(f"[ACCEPTANCE {num:2d}] {label}: PASS")


def _gnp_graph(rng, n, p):
    return Graph.from_edges(n, np.argwhere(np.triu(oracles.random_gnp(rng, n, p), 1)))


def test_01_triangle_curves_match_bruteforce_oracle():
    rng = np.random.default_rng(101)
    triples = oracles.all_triples(40)
    matrices = [oracles.random_gnp(rng, 40, 0.3) for _ in range(50)]
    t0 = time.perf_counter()
    for a in matrices:
        g = Graph.from_edges(40, np.argwhere(np.triu(a, 1)))
        curve = triangle_foundation_curve(g)
        expected = oracles.brute_force_curve_vectorized(a, 40, triples)
        oracles.assert_curve_is(curve, expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"50-graph oracle sweep took {elapsed:.2f}s"
    _ok(1, "triangle curves equal O(n^3) oracle on 50 graphs in "
           f"{elapsed * 1000:.0f}ms")


def test_02_rank_lemma_sweep():
    rng = np.random.default_rng(202)
    for t in range(1000):
        n = int(rng.integers(1, 21))
        kind = t % 4
        if kind == 0:
            m = rng.normal(size=(n, n))
        elif kind == 1:
            r = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
        elif kind == 2:
            r = int(rng.integers(1, n + 1))
            v = rng.normal(size=(n, r))
            m = v @ v.T
        else:
            d = rng.normal(size=n)
            d[rng.random(n) < 0.4] = 0.0
            m = np.diag(d)
        if np.sum(m * m) == 0.0:
            m = np.eye(n)
        bound = rank_lemma_bound(m)
        rank = oracles.numeric_rank_svd(m)
        assert bound <= rank * (1 + 1e-6), f"trial {t}: bound {bound} > rank {rank}"
    _ok(2, "rank bound below numeric rank on 1000 mixed-rank matrices")


def test_03_packing_lemma_sweep():
    rng = np.random.default_rng(303)
    for d in range(1, 7):
        floor = 1.0 / (4 * d) - 1e-12
        for t in range(100):
            u = rng.normal(size=(4 * d, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            got = packing_max_dot(u)
            assert got >= floor, f"d={d} trial {t}: {got} < {floor}"
    _ok(3, "4d unit vectors always contain a pair with dot >= 1/(4d), d=1..6")


def test_04_independent_set_floor():
    rng = np.random.default_rng(404)
    for t in range(100):
        g = _gnp_graph(rng, 50, float(rng.uniform(0.01, 0.5)))
        s = greedy_independent_set(g)
        members = set(int(v) for v in s)
        for v in members:
            assert not any(int(w) in members for w in g.neighbors(v)), \
                f"trial {t}: set not independent"
        b = int(g.degrees.max())
        assert len(s) >= independent_set_floor(50, b), f"trial {t}: floor missed"
    _ok(4, "greedy independent sets verified and above h/(b+1) on 100 graphs")


def test_05_negative_dot_mass_sweep():
    rng = np.random.default_rng(505)
    for t in range(1000):
        s = int(rng.integers(2, 30))
        d = int(rng.integers(1, 9))
        w = rng.normal(size=(s, d)) * float(rng.uniform(0.1, 10.0))
        neg, pos = negative_dot_mass(w)
        assert neg <= pos * (1 + 1e-12) + 1e-12, f"trial {t}: {neg} > {pos}"
    _ok(5, "negative pairwise dot mass bounded by positive mass on 1000 sets")


def test_06_degree_second_moment_every_model():
    rng = np.random.default_rng(606)
    for t in range(50):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(1, 7))
        e = Embedding(rng.normal(size=(n, d)) * float(rng.uniform(0.1, 0.8)))
        g = _gnp_graph(rng, n, 2.5 / n)
        fit_seed = int(rng.integers(0, 2 ** 32))
        models = [TDP, fit_lrdp(e, g, seed=fit_seed)[0],
                  fit_lrhp(e, g, seed=fit_seed)[0], build_softmax(e, g)]
        for model in models:
            ed, ed2 = expected_degree_second_moment(e, model)
            assert np.all(ed2 <= ed + ed * ed + 1e-9 * (1 + np.abs(ed2))), \
                f"trial {t}, model {model.variant}"
    _ok(6, "exact E[D^2] <= E[D] + E[D]^2 on 50 embeddings x 4 models")


def test_07_sampler_calibration():
    # one pair at p = 0.5, 10^4 draws; sample s of one pair walk is
    # sample_graph(e2, TDP, 707, s)
    e2 = Embedding(np.array([[1.0, 0.0], [0.5, 0.0]]))
    stores, _, _ = _pair_walk(e2, TDP, seed=707, sample_indices=range(10_000))
    hits = sum(len(_store_edges(store)) for store in stores)
    freq = hits / 10_000
    assert 0.485 <= freq <= 0.515, f"pair frequency {freq}"

    # exact expected triangles vs Monte Carlo mean, 3 sigma, n=30 instances
    rng = np.random.default_rng(717)
    for t in range(3):
        e = Embedding(rng.normal(size=(30, 3)) * 0.45)
        exact = expected_triangles_exact(e, TDP)
        draws = 3000
        # each sample's curve ends at its triangle count over n
        curves = curve_over_samples(e, TDP, 718 + t, draws)
        counts = np.rint(curves.deltas[:, -1] * e.n)
        sigma_of_mean = counts.std(ddof=1) / np.sqrt(draws)
        assert abs(counts.mean() - exact) <= 3.0 * sigma_of_mean, \
            f"instance {t}: mean {counts.mean()} vs exact {exact}"
    _ok(7, f"pair frequency {freq:.4f} in [0.485, 0.515]; "
           "triangle MC within 3 sigma on 3 instances")


def test_08_full_rank_reconstruction(tmp_path):
    rng = np.random.default_rng(808)
    cases = [_gnp_graph(rng, 200, 0.04),
             _gnp_graph(rng, 60, 0.2),
             Graph.from_edges(12, [(3 * t + a, 3 * t + b) for t in range(4)
                                   for a, b in ((0, 1), (1, 2), (0, 2))])]
    for g in cases:
        e = spectral_embed(g, g.n)
        for s in range(3):
            sampled = sample_graph(e, TDP, seed=809, sample_index=s)
            assert np.array_equal(sampled.edge_array(), g.edge_array()), \
                f"n={g.n}: d=n TDP sample differs from input"

    # audit curve equals the original curve at d = n
    g = cases[1]
    gpath = tmp_path / "g.txt"
    save_edge_list(g, gpath)
    out = tmp_path / "out"
    cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(out), dim=g.n,
                          models=("tdp",), num_samples=5, seed=810))
    assert (out / "curve_tdp.csv").read_bytes() == \
        (out / "curve_original.csv").read_bytes()
    _ok(8, "d=n TDP sampling reproduces inputs exactly (n up to 200); "
           "audit curve equals original")


def test_09_model_calibration_exact_sums():
    rng = np.random.default_rng(909)
    instances = []
    for n, p, d in [(300, 0.05, 16), (120, 0.15, 12)]:
        g = _gnp_graph(rng, n, p)
        instances.append((spectral_embed(g, d), g))
    g = _gnp_graph(rng, 200, 0.06)
    instances.append((Embedding(rng.normal(size=(200, 8)) * 0.25), g))
    g = _gnp_graph(rng, 2000, 0.004)
    instances.append((Embedding(rng.normal(size=(2000, 6)) * 0.15), g))

    for e, g in instances:
        for name, fit in [("lrdp", fit_lrdp), ("lrhp", fit_lrhp)]:
            model, report = fit(e, g, seed=910)
            assert report.converged, f"{name} did not converge on n={g.n}"
            achieved = oracles.probability_sum(e, model)
            assert abs(achieved - g.m) <= 1e-3 * g.m, \
                f"{name} n={g.n}: sum p = {achieved} vs m = {g.m}"
        sm = build_softmax(e, g)
        achieved = oracles.probability_sum(e, sm)
        assert abs(achieved - g.m) <= 1e-3 * g.m, \
            f"softmax n={g.n}: sum p = {achieved} vs m = {g.m}"
    _ok(9, "LRDP/LRHP/softmax match expected edge counts within 1e-3 relative")


def test_10_headline_low_degree_triangle_gap():
    # Thresholds frozen from a pilot run: the construction caps the original
    # delta at 1/3 (1000 triangles over n=3000) and Poisson(1) noise degrees
    # leave ~0.26 of that at c=4, so the floor is 0.2; the model ceiling 0.1
    # and the 10x gap hold with orders of magnitude to spare (pilot observed
    # ~0.00033 against 0.26).
    t0 = time.perf_counter()
    headline = gen.triangles_plus_noise(3000, 5)     # the benchmark's input
    g = Graph.from_edges(headline.n, headline.edges)
    assert g.n == 3000
    original = triangle_foundation_curve(g)
    orig_delta = original.value_at(4)
    assert orig_delta >= 0.2, f"original delta(4) = {orig_delta}"

    e = spectral_embed(g, 100)
    model_max = curve_over_samples(e, TDP, 2025, 100).max_curve
    model_delta = model_max.value_at(4)
    assert model_delta <= 0.1, f"model max delta(4) = {model_delta}"
    assert orig_delta >= 10.0 * model_delta, \
        f"gap below 10x: {orig_delta} vs {model_delta}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"headline experiment took {elapsed:.0f}s"
    gap = float("inf") if model_delta == 0 else orig_delta / model_delta
    _ok(10, f"low-degree delta gap {gap:.0f}x (original {orig_delta:.3f}, "
            f"model max {model_delta:.5f}) in {elapsed:.0f}s")


def _report_without_run_facts(out):
    doc = json.loads((out / "report.json").read_text())
    del doc["wall_time_s"], doc["config"]["output_dir"]
    return doc


def test_12_audit_byte_determinism_across_processes(tmp_path):
    rng = np.random.default_rng(1212)
    g = _gnp_graph(rng, 60, 0.12)
    gpath = tmp_path / "g.txt"
    save_edge_list(g, gpath)
    a, b = tmp_path / "in_process", tmp_path / "subprocess"
    cmd_audit(AuditConfig(graph_path=str(gpath), output_dir=str(a),
                          dim=10, num_samples=6, seed=1213))
    src = str(Path(embedaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-m", "embedaudit", "audit", "--graph", str(gpath),
                    "--out", str(b), "--dim", "10", "--samples", "6", "--seed", "1213"],
                   env=env, check=True, capture_output=True)
    names = sorted(p.name for p in a.glob("*.csv"))
    assert len(names) >= 10          # 5 curves + 5 degree distributions
    assert names == sorted(p.name for p in b.glob("*.csv"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), \
            f"{name} differs between the in-process and the subprocess run"
    assert _report_without_run_facts(a) == _report_without_run_facts(b)
    _ok(12, f"{len(names)} CSVs byte-identical between an in-process and a CLI "
            "subprocess run")
