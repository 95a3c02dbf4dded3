"""Randomized numeric sweeps over the theory toolbox.

Each sweep hammers one inequality with seeded random instances and reports
the worst margin observed (amount by which the inequality held; negative
means a violation).  A violating instance is serialized as a counterexample
so failures are reproducible.  The sweeps drive the `verify-theory` CLI
subcommand and the acceptance suite.

A sweep is a generator over its own instances that yields one
``(margin, witness)`` per check; ``_sweep`` turns it into a function of
the seed.  ``witness()`` builds the counterexample and is called only for
the first negative margin, before the generator resumes, so a passing
check never serializes its instance.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import theory
from .embedding import Embedding
from .graph import Graph
from .models import MODEL_NAMES, TruncatedDot, fit_model
from .sampling import (bernoulli_pairs, expected_degree_second_moment, expected_degrees,
                       expected_triangles_exact)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    description: str
    trials: int
    passed: bool
    worst_margin: float
    counterexample: dict | None = None


def _sweep(tag: int, name: str, description: str):
    """Make ``checks(rng)`` a sweep ``(seed) -> PropertyResult`` whose rng is
    seeded from (seed, tag); trials counts the checks."""
    def wrap(checks):
        @functools.wraps(checks)
        def sweep(seed: int) -> PropertyResult:
            rng = np.random.default_rng(np.random.SeedSequence((seed, tag)))
            margins, counterexample = [], None
            for margin, witness in checks(rng):
                margins.append(margin)
                if margin < 0 and counterexample is None:
                    counterexample = witness()
            worst = float(min(margins)) if margins else float("inf")
            return PropertyResult(name, description, len(margins), counterexample is None,
                                  worst, counterexample)
        return sweep
    return wrap


def _random_gnp(rng, n, p) -> Graph:
    return Graph.from_edges(n, np.column_stack(bernoulli_pairs(rng, n, p)))


@_sweep(1, "rank_lemma_bound", "trace^2/sum-of-squares never exceeds numeric rank")
def sweep_rank_lemma(rng):
    """Trace-squared bound never exceeds the numeric rank (1e-6 relative)."""
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
        bound = theory.rank_lemma_bound(m)
        rank = theory.numeric_rank(m)
        yield rank * (1 + 1e-6) - bound, lambda: {
            "matrix": m.tolist(), "bound": bound, "numeric_rank": rank}


@_sweep(2, "packing_max_dot", "4d unit vectors always contain a pair with dot >= 1/(4d)")
def sweep_packing(rng):
    """Any 4d unit vectors in R^d contain a pair with dot >= 1/(4d)."""
    for d in range(1, 7):
        floor = 1.0 / (4 * d) - 1e-12
        for _ in range(100):
            u = rng.normal(size=(4 * d, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            got = theory.packing_max_dot(u)
            yield got - floor, lambda: {"d": d, "vectors": u.tolist(), "max_dot": got}


@_sweep(3, "greedy_independent_set", "greedy set independent and of size >= ceil(h/(b+1))")
def sweep_independent_set(rng):
    """Greedy set is independent and meets the h/(max degree + 1) floor."""
    for _ in range(100):
        g = _random_gnp(rng, 50, float(rng.uniform(0.01, 0.5)))
        s = theory.greedy_independent_set(g)
        members = set(int(v) for v in s)
        independent = all(int(w) not in members
                          for v in members for w in g.neighbors(v))
        b = int(g.degrees.max()) if g.n else 0
        floor = theory.independent_set_floor(g.n, b)
        yield (len(s) - floor) if independent else -1.0, lambda: {
            "edges": g.edge_array().tolist(), "set": s.tolist(),
            "floor": floor, "independent": independent}


@_sweep(4, "negative_dot_mass", "negative pairwise dot mass bounded by positive mass")
def sweep_negative_dot_mass(rng):
    """Ordered-pair negative dot mass never exceeds the positive mass."""
    for _ in range(1000):
        s = int(rng.integers(2, 30))
        d = int(rng.integers(1, 9))
        w = rng.normal(size=(s, d)) * float(rng.uniform(0.1, 10.0))
        neg, pos = theory.negative_dot_mass(w)
        yield pos * (1 + 1e-12) + 1e-12 - neg, lambda: {
            "vectors": w.tolist(), "neg": neg, "pos": pos}


@_sweep(5, "degree_second_moment", "exact E[D^2] <= E[D] + E[D]^2 for every vertex and model")
def sweep_degree_second_moment(rng):
    """E[D^2] <= E[D] + E[D]^2 per vertex, for every model variant."""
    for t in range(50):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(1, 7))
        e = Embedding(rng.normal(size=(n, d)) * float(rng.uniform(0.1, 0.8)))
        g = _random_gnp(rng, n, 2.5 / n)
        fit_seed = int(rng.integers(0, 2 ** 32))
        for name in MODEL_NAMES:
            ed, ed2 = expected_degree_second_moment(e, fit_model(name, e, g, fit_seed)[0])
            slack = ed + ed * ed - ed2
            worst = int(np.argmin(slack))
            yield float(slack.min() + 1e-9 * (1.0 + np.abs(ed2).max())), lambda: {
                "trial": t, "model": name, "vertex": worst,
                "ed": float(ed[worst]), "ed2": float(ed2[worst])}


@_sweep(6, "triangle_expectation_bound",
        "expected triangles bounded by the largest squared norm times "
        "the sum of squared expected degrees")
def sweep_triangle_expectation_bound(rng):
    """Expected triangles <= L^2 * sum_i E[D_i]^2 when all scores stay <= 1."""
    tdp = TruncatedDot()
    for t in range(100):
        n = int(rng.integers(10, 61))
        d = int(rng.integers(1, 7))
        v = rng.normal(size=(n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= rng.uniform(0.05, 1.0, size=(n, 1))
        e = Embedding(v)
        l_sq = float(np.max(np.sum(v * v, axis=1)))
        ed = expected_degrees(e, tdp)
        tri = expected_triangles_exact(e, tdp)
        rhs = l_sq * float(np.sum(ed * ed))
        yield rhs - tri + 1e-9 * (1.0 + rhs), lambda: {
            "trial": t, "vectors": v.tolist(), "triangles": tri, "rhs": rhs}


@_sweep(7, "core_rank_certificate", "certificate bound below numeric rank and dimension of the core")
def sweep_core_certificate(rng):
    """Certified bound never exceeds numeric rank (nor the dimension)."""
    for t in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 9))
        v = rng.normal(size=(n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= rng.uniform(0.3, 1.5, size=(n, 1))
        e = Embedding(v)
        cert = theory.core_rank_certificate(e, c=float(n))
        if cert.emptied_at is not None:
            yield float("inf"), None
            continue
        gram = v[cert.core_indices] @ v[cert.core_indices].T
        rank = theory.numeric_rank(gram)
        yield min(rank * (1 + 1e-6) - cert.bound, d + 1e-9 - cert.bound), lambda: {
            "trial": t, "bound": cert.bound, "rank": rank, "d": d}


ALL_SWEEPS = (
    sweep_rank_lemma,
    sweep_packing,
    sweep_independent_set,
    sweep_negative_dot_mass,
    sweep_degree_second_moment,
    sweep_triangle_expectation_bound,
    sweep_core_certificate,
)


def sweep_report(seed: int = 0) -> dict:
    """Run every sweep at ``seed``; the report that ``verify-theory`` writes."""
    results = [sweep(seed) for sweep in ALL_SWEEPS]
    return {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "properties": [asdict(r) for r in results],
    }
