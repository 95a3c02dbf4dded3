"""Edge-probability models over pair scores.

Four variants map the score of a vertex pair to an edge probability:

* truncated dot product: clamp the score to [0, 1];
* logistic regression on the dot product (one slope, one intercept);
* logistic regression on the coordinatewise (Hadamard) product features;
* degree-scaled softmax: per-vertex exponential weights normalized so each
  vertex's expected degree matches its observed degree, then symmetrized.

The logistic models are fitted by weighted maximum likelihood on all edges
plus importance-weighted non-edges, each kept independently with the
same probability by ``sampling.bernoulli_pairs``, then their intercept is
recalibrated by a safeguarded Newton solve so the exact sum of pair
probabilities matches the observed edge count.  All models are immutable and
evaluate pure, symmetric probabilities in [0, 1].  Every sigmoid, in the
logistic tiles of sampling and calibration and in the fits, goes through
``_sigmoid_inplace``: one exp and one reciprocal, in place in the logits.

Memory of the fits: no fit holds a design matrix.  A logistic fit keeps
the fitted pairs, labels and weights, O(m) each, and streams its features
through a per-chunk filler in the row chunks of ``blocks.row_chunks``: one
pass per Newton iterate returns the objective, gradient and Hessian.  lrdp
holds one precomputed score column; lrhp recomputes its Hadamard features
per chunk.  The softmax normalizers score ``blocks.TILE // 4`` rows x n at
a time and reduce them in the same row chunks, and the softmax intensity
is computed in place.  Chunking changes no logit or score, only the order
of the objective's, gradient's and Hessian's sums.  The intercept
calibration, the softmax clamp count and the sampler all walk the same
``blocks.TILE`` pair tiles; the calibration forms 1 - p in row chunks,
so it holds one tile and its mask at a time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import row_chunks, upper_tiles
from .embedding import Embedding
from .graph import Graph, InputError
from .sampling import bernoulli_pairs

# the model names; each model's sampling seed comes from its index here
MODEL_NAMES = ("tdp", "lrdp", "lrhp", "softmax")

# longest Newton step of the intercept calibration: when most pairs sit at
# p = 1, sum p(1-p) is nearly 0 and the raw step overshoots by orders of
# magnitude, while the sigmoid already rounds to 1 in double precision
# beyond z = 37
_MAX_NEWTON_STEP = 40.0

# expected sampled non-edges per edge in a logistic fit
_NEGATIVE_RATIO = 10

# damped-Newton logistic MLE: iteration cap, and the gradient's largest
# entry, relative to the total weight, at which it stops
_MLE_MAX_ITER = 100
_MLE_GRAD_TOL = 1e-8

# intercept calibration: relative tolerance on sum p, and its pass cap
_CALIBRATION_RTOL = 1e-3
_CALIBRATION_MAX_EVALS = 100


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) computed in place in z, which is returned.

    Below z = -709.78, exp(-z) overflows to inf and the result is 0, where
    the exact value is below 6e-309; that overflow is expected.
    """
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x), axis=1)) of the 2-d x, which it overwrites.

    The arithmetic is that of scipy.special.logsumexp (1.17): the terms equal
    to the row max M are set apart and counted as m, the rest sum to
    s = sum exp(x - M), and the result is log1p(s / m) + log(m) + M.  A row
    of -inf only gives -inf.
    """
    top = x.max(axis=1, keepdims=True)
    at_top = x == top
    count = at_top.sum(axis=1, keepdims=True, dtype=x.dtype)
    x[at_top] = -np.inf
    x -= np.where(np.isfinite(top), top, 0.0)
    np.exp(x, out=x)
    s = x.sum(axis=1, keepdims=True) / count
    return (np.log1p(s) + np.log(count) + top)[:, 0]


@dataclass(frozen=True)
class TruncatedDot:
    """p = max(0, min(score, 1))."""

    variant = "tdp"

    def prob_block(self, e: Embedding, rows, cols) -> np.ndarray:
        s = e.score_block(rows, cols)
        return np.clip(s, 0.0, 1.0, out=s)


@dataclass(frozen=True)
class LogisticDot:
    """p = sigmoid(slope * score + intercept).

    Stored in slope/intercept form so a zero slope can still carry a
    calibrated constant probability.
    """

    slope: float
    intercept: float

    variant = "lrdp"

    def prob_block(self, e: Embedding, rows, cols) -> np.ndarray:
        p = e.score_block(rows, cols)
        p *= self.slope
        p += self.intercept
        return _sigmoid_inplace(p)


@dataclass(frozen=True)
class LogisticHadamard:
    """p = sigmoid(w . (v_i ⊙ v_j) + b).

    Coordinate r of the pair feature is v_i[r] v_j[r] times the
    embedding's ``scale[r]`` (lambda_r for a spectral embedding), so unit
    weights recover the pair score.
    """

    weights: np.ndarray
    intercept: float

    variant = "lrhp"

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a finite 1-d array")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def prob_block(self, e: Embedding, rows, cols) -> np.ndarray:
        z = (e.vectors[rows] * (self.weights * e.scale)) @ e.vectors[cols].T
        z += self.intercept
        return _sigmoid_inplace(z)


@dataclass(frozen=True)
class DegreeSoftmax:
    """Directed intensity q_ij = s_i exp(score_ij) with s_i chosen so that
    sum_{j != i} q_ij equals vertex i's observed degree; the symmetric edge
    probability is min(1, (q_ij + q_ji) / 2).

    ``log_scale[i]`` is log s_i (-inf for isolated vertices).
    """

    log_scale: np.ndarray

    variant = "softmax"

    def __post_init__(self):
        ls = np.ascontiguousarray(self.log_scale, dtype=np.float64)
        if ls.ndim != 1 or np.any(np.isnan(ls)) or np.any(ls == np.inf):
            raise ValueError("log_scale must be 1-d and bounded above")
        ls.flags.writeable = False
        object.__setattr__(self, "log_scale", ls)

    def _intensity(self, e: Embedding, rows, cols) -> np.ndarray:
        """Unclamped symmetrized intensity (q_ij + q_ji) / 2, computed in
        place in the score tile, row chunk by row chunk.  An intensity that
        overflows is inf, which clamps to p = 1; that overflow is expected,
        also at a self-pair, whose entry the tile walk masks."""
        s = e.score_block(rows, cols)
        ls_rows = self.log_scale[np.asarray(rows)][:, None]
        ls_cols = self.log_scale[np.asarray(cols)][None, :]
        with np.errstate(over="ignore"):
            for r0, r1 in row_chunks(s.shape[0], s.shape[1]):
                q = s[r0:r1]
                q_ij = ls_rows[r0:r1] + q
                np.exp(q_ij, out=q_ij)
                q += ls_cols
                np.exp(q, out=q)           # q_ji
                q += q_ij
                q *= 0.5
        return s

    def prob_block(self, e: Embedding, rows, cols) -> np.ndarray:
        q = self._intensity(e, rows, cols)
        return np.minimum(q, 1.0, out=q)


@dataclass(frozen=True)
class FitReport:
    target_edges: float
    achieved_expected_edges: float
    iterations: int            # MLE iterations plus calibration_evals
    converged: bool
    calibration_evals: int     # pair passes of the intercept calibration


def build_softmax(e: Embedding, g: Graph) -> DegreeSoftmax:
    """Degree-calibrated softmax model for e against g's degree sequence.

    Normalizers are computed with max-subtraction (logsumexp) so large
    scores cannot overflow.  Isolated vertices get a zero intensity row.
    """
    if e.n != g.n:
        raise InputError("embedding and graph must agree on n")
    n = e.n
    deg = g.degrees.astype(np.float64)
    log_z = np.empty(n)
    # a quarter tile of rows per score block: at n=15000 it scores as fast
    # as a whole tile in a quarter of the memory
    side = max(1, blocks.TILE // 4)
    for i0 in range(0, n, side):
        i1 = min(i0 + side, n)
        s = e.score_block(np.arange(i0, i1), np.arange(n))
        s[np.arange(i1 - i0), np.arange(i0, i1)] = -np.inf   # exclude the self-pair
        # row sub-blocks keep the max mask and the sums small
        for r0, r1 in row_chunks(i1 - i0, n):
            log_z[i0 + r0:i0 + r1] = _logsumexp_rows(s[r0:r1])
        del s                          # before the next block is scored
    with np.errstate(divide="ignore"):
        log_scale = np.where(deg > 0, np.log(np.maximum(deg, 1e-300)) - log_z, -np.inf)
    return DegreeSoftmax(log_scale)


def softmax_clamp_count(model: DegreeSoftmax, e: Embedding) -> int:
    """Number of unordered pairs whose symmetrized intensity was clamped at 1."""
    count = 0
    for *_, raw in upper_tiles(e.n, lambda r, c: model._intensity(e, r, c)):
        count += int(np.count_nonzero(raw > 1.0))
        del raw                        # before the next tile is built
    return count


# ------------------------------------------------------------------ fitting

def _sample_nonedges(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending non-edge pairs i < j, each kept independently with
    probability min(1, count / #non-edges): one ``bernoulli_pairs`` draw
    over all pairs, less the edges it hits."""
    n = g.n
    n_non = n * (n - 1) // 2 - g.m
    if count == 0 or n_non == 0:
        return np.empty((0, 2), dtype=np.int64)
    i, j = bernoulli_pairs(rng, n, min(1.0, count / n_non))
    e = g.edge_array()
    keep = np.isin(i * n + j, e[:, 0] * n + e[:, 1], assume_unique=True, invert=True)
    out = np.empty((np.count_nonzero(keep), 2), dtype=np.int64)
    out[:, 0] = i[keep]
    out[:, 1] = j[keep]
    return out


def _weighted_logistic(fill, nfeat: int, y: np.ndarray, w: np.ndarray):
    """Damped-Newton weighted logistic MLE; returns (coef, intercept, iters).

    There is no design matrix: ``fill(r0, r1, out)`` writes the ``nfeat``
    features of fitted rows r0..r1 into ``out``, and each Newton iterate
    takes one pass over the row chunks of ``blocks.row_chunks`` that
    returns the objective, gradient and Hessian together.  The line
    search's pass at the accepted candidate is the next iterate's pass.
    A chunk's rows carry the features and a one for the intercept, and the
    Hessian sums the products of those rows scaled by the square root of
    their curvature.  Exactly-constant feature columns, found by a column
    min/max in the first pass, are excluded (their coefficient stays 0),
    so degenerate inputs reduce to an intercept-only fit.
    """
    npts = len(y)
    keep = np.arange(nfeat + 1)        # the fitted columns, the intercept last

    def newton_pass(beta, bounds=None):
        value, grad, hess = 0.0, np.zeros(keep.size), np.zeros((keep.size, keep.size))
        buf = None
        for r0, r1 in row_chunks(npts, nfeat + 1):
            if buf is None:
                buf = np.empty((r1 - r0, nfeat + 1))
            x = buf[:r1 - r0]
            fill(r0, r1, x[:, :nfeat])
            x[:, nfeat] = 1.0
            if bounds is not None:
                np.minimum(bounds[0], x[:, :nfeat].min(axis=0), out=bounds[0])
                np.maximum(bounds[1], x[:, :nfeat].max(axis=0), out=bounds[1])
            if keep.size <= nfeat:         # a constant column is left out
                x = x[:, keep]
            yc, wc = y[r0:r1], w[r0:r1]
            z = x @ beta
            value += float(np.sum(wc * (np.logaddexp(0.0, z) - yc * z)))
            p = _sigmoid_inplace(z)
            grad += x.T @ (wc * (p - yc))
            curv = wc * p * (1.0 - p) + 1e-12
            x *= np.sqrt(curv)[:, None]
            hess += x.T @ x
        return value, grad, hess

    bounds = np.array([[np.inf], [-np.inf]]).repeat(nfeat, axis=1)   # column min, max
    current, grad, hess = newton_pass(np.zeros(keep.size), bounds)
    active = bounds[1] > bounds[0]
    if not active.all():
        keep = np.append(np.flatnonzero(active), nfeat)
        grad, hess = grad[keep], hess[np.ix_(keep, keep)]
    beta = np.zeros(keep.size)
    scale = max(1.0, float(w.sum()))

    iters = 0
    for iters in range(1, _MLE_MAX_ITER + 1):
        if np.max(np.abs(grad)) <= _MLE_GRAD_TOL * scale:
            iters -= 1
            break
        hess[np.diag_indices_from(hess)] += 1e-10 * (1.0 + np.trace(hess))
        step = np.linalg.solve(hess, grad)
        # backtrack until the objective stops increasing
        t = 1.0
        for _ in range(50):
            candidate = beta - t * step
            value, cand_grad, cand_hess = newton_pass(candidate)
            if value <= current + 1e-12:
                beta, current, grad, hess = candidate, value, cand_grad, cand_hess
                break
            t *= 0.5
        else:
            break

    coef = np.zeros(nfeat)
    coef[active] = beta[:-1]
    return coef, float(beta[-1]), iters


def _calibrate_intercept(pair_sums, m_target: float):
    """Shift delta such that sum_p(delta) matches m_target.

    pair_sums(delta) returns sum_p(delta) = sum p and its derivative
    sum p(1-p) from one pass over the pairs.  Newton steps solve
    log sum_p(delta) = log m_target, which is nearly linear in delta around
    the MLE intercept.  A bracket [lo, hi] around the root guards every step:
    one that leaves it is replaced by bisection, or by doubling away from
    delta while that side is still open.  sum_p strictly increases in delta
    (a sum of sigmoids does), so the bracket is valid.
    Returns (delta, evals, converged, achieved) with achieved = sum_p(delta).
    """
    tol = _CALIBRATION_RTOL * m_target if m_target > 0 else 1e-9
    log_target = np.log(max(m_target, 0.5 * tol))
    lo, hi = -np.inf, np.inf
    delta = best_delta = 0.0
    best = np.inf
    for evals in range(1, _CALIBRATION_MAX_EVALS + 1):
        s, ds = pair_sums(delta)
        if abs(s - m_target) < abs(best - m_target):
            best_delta, best = delta, s
        if abs(s - m_target) <= tol:
            return delta, evals, True, s
        if s < m_target:
            lo = delta
        else:
            hi = delta
        step = np.nan
        if s > 0 and ds > 0:
            step = np.clip((log_target - np.log(s)) * s / ds,
                           -_MAX_NEWTON_STEP, _MAX_NEWTON_STEP)
        if lo < delta + step < hi:
            delta += step
        elif np.isfinite(lo) and np.isfinite(hi):
            delta = 0.5 * (lo + hi)
        else:
            delta += np.copysign(max(1.0, abs(delta)), m_target - s)
    return best_delta, _CALIBRATION_MAX_EVALS, False, best


def _make_pair_sums(e: Embedding, model_at):
    """Return pair_sums(delta) = (sum p, sum p(1-p)) over pairs i<j, with p
    the probabilities of the model ``model_at(delta)``; each call is one walk
    over that model's own ``prob_block`` tiles."""
    def pair_sums(delta):
        model = model_at(delta)
        s = ds = 0.0
        for *_, p in upper_tiles(e.n, lambda r, c: model.prob_block(e, r, c)):
            p = p.ravel()              # entries outside i < j are 0 and add nothing
            s += p.sum()
            # 1 - p in chunks, not as a second tile; sum p - p.p would cancel
            # to nothing where p is near 1
            for a, b in row_chunks(p.size, 1):
                ds += p[a:b] @ (1.0 - p[a:b])
            del p                      # before the next tile is built
        return float(s), float(ds)

    return pair_sums


def _lrdp_features(e: Embedding, pairs: np.ndarray):
    """Feature filler of the pair score: the scores of all fitted pairs are
    computed once, over row chunks, into one column that it copies from."""
    scaled = e.vectors * e.scale
    scores = np.empty(len(pairs))
    for r0, r1 in row_chunks(len(pairs), e.d):
        scores[r0:r1] = np.einsum("ij,ij->i", scaled[pairs[r0:r1, 0]],
                                  e.vectors[pairs[r0:r1, 1]])

    def fill(r0, r1, out):
        out[:, 0] = scores[r0:r1]

    return fill


def _lrhp_features(e: Embedding, pairs: np.ndarray):
    """Feature filler of the Hadamard features: rows r0..r1 get
    (v_i ⊙ e.scale) ⊙ v_j for pairs[k] = (i, j), from V scaled once."""
    scaled = e.vectors * e.scale

    def fill(r0, r1, out):
        np.multiply(scaled[pairs[r0:r1, 0]], e.vectors[pairs[r0:r1, 1]], out=out)

    return fill


def _fit_logistic_model(e, g, seed, nfeat, features, build):
    if e.n != g.n:
        raise InputError("embedding and graph must agree on n")
    n, m = g.n, g.m
    n_pairs = n * (n - 1) // 2
    n_non = n_pairs - m

    rng = np.random.default_rng(seed)
    pos = g.edge_array()
    neg = _sample_nonedges(g, _NEGATIVE_RATIO * m, rng)
    pairs = np.concatenate([pos, neg]) if neg.size else pos
    y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    # subsampled non-edges stand in for all of them: weight them such that
    # the weighted likelihood is unbiased for the full pair set
    w_neg = n_non / len(neg) if len(neg) else 0.0
    w = np.concatenate([np.ones(len(pos)), np.full(len(neg), w_neg)])

    if len(pairs):
        coef, intercept, newton_iters = _weighted_logistic(features(e, pairs), nfeat, y, w)
    else:
        coef, intercept, newton_iters = np.zeros(nfeat), 0.0, 0

    pair_sums = _make_pair_sums(e, lambda delta: build(coef, intercept + delta))
    delta, evals, converged, achieved = _calibrate_intercept(pair_sums, float(m))
    model = build(coef, intercept + delta)
    return model, FitReport(float(m), achieved, newton_iters + evals, converged, evals)


def fit_lrdp(e: Embedding, g: Graph, seed: int = 0) -> tuple[LogisticDot, FitReport]:
    """Logistic regression on the pair score, edge-count calibrated.

    Positives are all m edges; negatives are a Bernoulli sample of the
    non-edges, _NEGATIVE_RATIO * m of them in expectation (all of them when
    there are fewer), carrying importance weight (#non-edges)/(#sampled).
    After the MLE fit the intercept is shifted by a safeguarded Newton solve
    until the exact sum of all pair probabilities matches m within relative
    1e-3; each Newton step costs one pass over the pairs.
    """
    def build(coef, intercept):
        return LogisticDot(float(coef[0]), float(intercept))

    return _fit_logistic_model(e, g, seed, 1, _lrdp_features, build)


def fit_lrhp(e: Embedding, g: Graph, seed: int = 0) -> tuple[LogisticHadamard, FitReport]:
    """Logistic regression on Hadamard-product features, edge-count calibrated.

    Same sampling, weighting, and calibration scheme as fit_lrdp; one weight
    per embedding coordinate instead of a single slope.
    """
    def build(coef, intercept):
        return LogisticHadamard(coef, float(intercept))

    return _fit_logistic_model(e, g, seed, e.d, _lrhp_features, build)


def fit_model(name: str, e: Embedding, g: Graph | None, seed: int):
    """The model ``name``, one of MODEL_NAMES, for e against g (unused by
    tdp); returns (model, FitReport of a logistic fit, else None).

    The builders are looked up as module globals at each call, so a
    rebinding of ``fit_lrdp``, ``fit_lrhp`` or ``build_softmax`` takes
    effect.
    """
    if name == "tdp":
        return TruncatedDot(), None
    if name == "softmax":
        return build_softmax(e, g), None
    return {"lrdp": fit_lrdp, "lrhp": fit_lrhp}[name](e, g, seed)


# -------------------------------------------------------------- serialization

def model_to_json(model) -> dict:
    """JSON-safe parameter document (see README for the schema)."""
    if isinstance(model, TruncatedDot):
        return {"variant": "tdp"}
    if isinstance(model, LogisticDot):
        return {"variant": "lrdp", "slope": model.slope, "intercept": model.intercept}
    if isinstance(model, LogisticHadamard):
        return {"variant": "lrhp", "weights": model.weights.tolist(),
                "intercept": model.intercept}
    if isinstance(model, DegreeSoftmax):
        # log s_i, not s_i, which overflows for valid embeddings; null
        # (-inf) for isolated vertices keeps the document strict JSON
        return {"variant": "softmax",
                "log_scale": [x if x > -np.inf else None for x in model.log_scale.tolist()]}
    raise TypeError(f"not an edge model: {model!r}")


def model_digest(model) -> str:
    """Stable sha256 digest of the serialized model, for provenance headers."""
    doc = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()
