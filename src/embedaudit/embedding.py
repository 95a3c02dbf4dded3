"""Vertex embeddings and the pair score they induce.

Two kinds are supported.  A *spectral* embedding holds eigenvectors of the
adjacency matrix (rows) together with their eigenvalues, and the pair score
is the indefinite form sum_r lambda_r psi_i[r] psi_j[r], i.e. an entry of
the rank-d reconstruction of the adjacency matrix.  A *plain* embedding is
any real vector per vertex and the pair score is the ordinary dot product.
Negative eigenvalues keep their sign; eigenpairs are selected by magnitude.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .blocks import row_chunks
from .graph import Graph, InputError

logger = logging.getLogger(__name__)

_ORTHO_TOL = 1e-8
_RESIDUAL_TOL = 1e-6
# an eigengap |lambda_d| - |lambda_{d+1}| below this fraction of |lambda_1|
# is logged: the truncated embedding then hinges on a near-tie
_GAP_WARN = 1e-6
# largest n that spectral_embed solves densely; read at call time
_DENSE_CUTOFF = 2000
# |lambda| that agree within this fraction of |lambda_1| are tied
_TIE_RTOL = 1e-10
# the powered solve keeps (mu_1 / mu_d)^p below _POWER_SPREAD, so rounding in
# the operator, about eps * mu_1^p, stays far below _LANCZOS_TOL * mu_d^p
_POWER_SPREAD = 1e4
_MAX_POWER = 8
# steps of the power iteration behind the Collatz-Wielandt bound on mu_1
_BOUND_STEPS = 20
# block Lanczos: block size, relative Ritz residual, the singular value
# (relative to the operator's norm) at which a new direction counts as lost,
# and the start block's seed
_BLOCK = 4
_LANCZOS_TOL = 1e-10
_BREAKDOWN = 1e-12
_LANCZOS_SEED = 0


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge to the requested residual."""


class EmbeddingFormatError(InputError):
    """Malformed embedding file."""


@dataclass(frozen=True)
class Embedding:
    """Per-vertex vectors; immutable.  Spectral exactly when it carries
    eigenvalues, plain otherwise."""

    vectors: np.ndarray          # (n, d), row i is vertex i's vector
    eigenvalues: np.ndarray | None = None   # (d,), spectral only

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors must be finite")
        if self.eigenvalues is not None:
            ev = np.ascontiguousarray(self.eigenvalues, dtype=np.float64)
            if ev.shape != (vectors.shape[1],):
                raise ValueError("eigenvalues must match dimension")
            mags = np.abs(ev)
            # within a tie (see _canonical_order) a +lambda precedes a larger -lambda
            slack = max(1e-12, _TIE_RTOL * float(mags.max(initial=0.0)))
            if np.any(mags[:-1] < mags[1:] - slack):
                raise ValueError("eigenvalues must be sorted by descending magnitude")
            gram = vectors.T @ vectors
            if np.max(np.abs(gram - np.eye(vectors.shape[1]))) > _ORTHO_TOL:
                raise ValueError("spectral columns must be orthonormal")
            ev.flags.writeable = False
            object.__setattr__(self, "eigenvalues", ev)
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)

    @property
    def kind(self) -> str:
        """The file header's word for it: "spectral" or "plain"."""
        return "plain" if self.eigenvalues is None else "spectral"

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    @property
    def scale(self) -> np.ndarray:
        """Weight of each coordinate in the pair score: the eigenvalues of a
        spectral embedding, ones for a plain one."""
        return np.ones(self.d) if self.eigenvalues is None else self.eigenvalues

    def score_block(self, rows, cols) -> np.ndarray:
        """Pair scores for the index block rows x cols."""
        return (self.vectors[rows] * self.scale) @ self.vectors[cols].T


def _canonical_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting by descending |value|, positive first on ties.

    A tie is a run of |values| that lie within _TIE_RTOL * max|value| below
    the run's largest one, so that an exact +lambda/-lambda pair, whose two
    magnitudes differ in rounding only, comes out as (+, -) on both solver
    paths.  Within a tie the positives go first, each sign by descending
    |value|.
    """
    mags = np.abs(values)
    order = np.argsort(-mags, kind="stable")
    tol = _TIE_RTOL * float(mags.max(initial=0.0))
    tie = np.empty(order.size, dtype=np.int64)
    k, top = -1, np.inf
    for pos, m in enumerate(mags[order]):
        if m < top - tol:
            k, top = k + 1, m
        tie[pos] = k
    return order[np.lexsort((-mags[order], values[order] < 0, tie))]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for c in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, c])))
        if out[k, c] < 0:
            out[:, c] = -out[:, c]
    return out


def spectral_embed(g: Graph, d: int, *, report: dict | None = None) -> Embedding:
    """Eigenpairs of the adjacency matrix for the d largest-|lambda| values.

    Uses a dense symmetric solver for n <= _DENSE_CUTOFF (and whenever d is
    too close to n for an iterative solver), otherwise the folded sparse
    solve of ``_folded_eigsh``: block Lanczos on (A^2)^p, with the power p
    set by two bounds on the spectrum of A^2, then Rayleigh-Ritz on A.
    Residuals ||A psi - lambda psi|| are checked against 1e-6 ||A||; failure
    to meet them raises EigensolverError rather than silently truncating.
    An eigengap |lambda_d| - |lambda_{d+1}| below 1e-6 |lambda_1| is logged
    as a warning: the truncated embedding then hinges on a near-tie.

    A ``report`` dict, when given, is filled with how the pairs were found:
    ``path`` ("dense" or "folded"); the ``power`` p, the Lanczos
    ``block_size``, the ``operator_applications`` to a block, the
    ``krylov_dimension`` k at which the solve stopped and the
    ``convergence_tests`` it ran (each None on the dense path); the
    ``max_relative_residual``
    max ||A psi - lambda psi|| / ||A||; and the ``eigengap``, exact on the
    dense path and an upper bound on the folded one (None when d = n).
    """
    n = g.n
    if not 1 <= d <= n:
        raise InputError(f"need 1 <= d <= n, got d={d}, n={n}")

    if n <= _DENSE_CUTOFF or d > n - 2:
        a = g.adjacency_matrix()
        w, u = np.linalg.eigh(a)
        order = _canonical_order(w)
        vals, vecs = w[order[:d]], u[:, order[:d]]
        next_magnitude = float(abs(w[order[d]])) if d < n else None
        path, power, block, applications, krylov, tests = "dense", None, None, None, None, None
    else:
        a = _Adjacency(g)
        vals, vecs, power, applications, krylov, tests, next_magnitude = _folded_eigsh(a, d)
        path, block = "folded", min(_BLOCK, n)

    # vals[0] has the largest magnitude of all eigenvalues, which is ||A||_2
    norm_a = float(abs(vals[0]))
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    if norm_a > 0 and np.any(residuals > _RESIDUAL_TOL * norm_a):
        raise EigensolverError(
            f"eigenpair residual {residuals.max():.3e} exceeds "
            f"{_RESIDUAL_TOL:.0e} * ||A|| = {_RESIDUAL_TOL * norm_a:.3e}")
    gap = None if next_magnitude is None else float(abs(vals[-1])) - next_magnitude
    if gap is not None and gap < _GAP_WARN * norm_a:
        logger.warning(
            "eigengap |lambda_%d| - |lambda_%d| = %.3g is below %.0e * |lambda_1|: "
            "the rank-%d spectral embedding is not unique", d, d + 1, gap, _GAP_WARN, d)
    if report is not None:
        report.update(path=path, power=power, block_size=block,
                      operator_applications=applications,
                      krylov_dimension=krylov, convergence_tests=tests,
                      max_relative_residual=float(residuals.max() / norm_a)
                      if norm_a > 0 else 0.0,
                      eigengap=gap)

    return Embedding(_fix_signs(vecs), vals)


class _Adjacency:
    """The adjacency matrix A of a Graph as an operator: ``a @ x`` for x of
    shape (n,) or (n, k).

    Row i of A x sums x over the neighbours of i, left to right in CSR
    order, with ``np.bincount``: one per column, or for a Lanczos block of
    _BLOCK columns one over the (row, column) bins of all its entries.
    That is the order of a CSR sparse matrix-vector product, so the result
    matches one bit for bit.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._rows = np.repeat(np.arange(g.n), g.degrees)
        self._block_bins = (self._rows[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()

    def __matmul__(self, x):
        n, indices = self.graph.n, self.graph.indices
        if x.ndim == 1:
            return np.bincount(self._rows, weights=x[indices], minlength=n)
        if x.shape[1] == _BLOCK:
            entries = np.take(x, indices, axis=0).ravel()
            return np.bincount(self._block_bins, weights=entries,
                               minlength=n * _BLOCK).reshape(n, _BLOCK)
        out = np.empty((n, x.shape[1]))
        for c in range(x.shape[1]):
            column = np.ascontiguousarray(x[:, c])    # one column, not a copy of x
            out[:, c] = np.bincount(self._rows, weights=column[indices], minlength=n)
        return out


def _spectrum_bounds(a: _Adjacency, d: int) -> tuple:
    """(U, L) with U >= mu_1 and L <= mu_d, mu the eigenvalues of A^2.

    U is the Collatz-Wielandt bound of the nonnegative B = A^2 + I:
    rho(B) <= max_i (Bx)_i / x_i for every positive x, here x = B^t 1, which
    stays positive because B >= I.  L is the d-th largest eigenvalue of the
    principal submatrix A^2[S, S] on the min(2d, n) highest-degree vertices
    S, which Cauchy interlacing puts at or below mu_d: the d-th largest
    eigenvalue of a principal submatrix is at most the d-th largest of the
    whole.  Over d vertices L would be the smallest eigenvalue, which two
    vertices with one neighbourhood already make 0; over 2d it sits well
    inside the spectrum of S, so p rises at high d.  A^2[S, S] holds the
    common neighbour counts of S, formed exactly from the 0/1 rows of S
    over the union of their neighbours.
    """
    g = a.graph
    x = np.ones(g.n)
    for _ in range(_BOUND_STEPS):
        x = a @ (a @ x) + x
        x /= x.max()
    upper = float(np.max((a @ (a @ x) + x) / x)) - 1.0
    top = [g.neighbors(v) for v in np.argsort(-g.degrees, kind="stable")[:2 * d]]
    union = np.unique(np.concatenate(top))
    rows = np.zeros((len(top), union.size))
    for r, nbrs in enumerate(top):
        rows[r, np.searchsorted(union, nbrs)] = 1.0
    lower = float(np.linalg.eigvalsh(rows @ rows.T)[-d])
    return upper, lower


def _power(upper: float, lower: float) -> int:
    """The largest p <= _MAX_POWER with (upper / lower)^p <= _POWER_SPREAD,
    and 1 when there is none or lower <= 0."""
    if lower <= 0:
        return 1
    spread = math.log(upper / lower)
    if spread * _MAX_POWER <= math.log(_POWER_SPREAD):
        return _MAX_POWER
    return max(1, int(math.log(_POWER_SPREAD) / spread))


def _folded_eigsh(a, d: int):
    """The d largest-|lambda| eigenpairs of the sparse symmetric A, in
    canonical order; the power p, the block applications of (A^2)^p, the
    Krylov dimension and the number of convergence tests; and the estimate
    ||A y|| of |lambda_{d+1}|, with y the unit Ritz vector
    d + 1 of (A^2)^p.  With theta its Ritz value, the power mean inequality
    and Cauchy interlacing give ||A y||^2 = y^T A^2 y <= (y^T (A^2)^p y)^(1/p)
    = theta^(1/p) <= lambda_{d+1}^2, so the estimate is at or below the true
    |lambda_{d+1}|; unlike theta^(1/(2p)), it is accurate to about
    eps ||A|| when |lambda_{d+1}| is near 0.

    ``_block_lanczos`` finds the top d eigenvectors U of (A^2)^p, where every
    wanted eigenvalue lambda^2 sits at one end of the spectrum; on the
    indefinite A itself, "largest magnitude" asks for both ends at once and
    takes about twice the Krylov work.  mu -> mu^p is increasing on mu >= 0,
    so (A^2)^p has the same top-d eigenvectors as A^2, and its relative gaps
    are wider: fewer Krylov steps, each paying 2p cheap sparse products.  p
    comes from the bounds U >= mu_1 and L <= mu_d of ``_spectrum_bounds``,
    L taken over the 2d highest-degree vertices: the largest p <= 8 with
    (U / L)^p <= 1e4, and 1 when L <= 0.  p = 1 is the plain folded solve.

    Rayleigh-Ritz on A over span(U) then splits +lambda from -lambda.
    span(U) is A^2-invariant, so span(U, AU) is A-invariant; U alone is
    A-invariant unless a +lambda/-lambda pair shares one A^2 eigenspace and
    the solve returned a mixture of the two.  The Gram of R = AU - UH,
    H = U^T A U, is diag(mu) - H^2 with mu_i = ||A u_i||^2, the Rayleigh
    quotients of A^2, so that case is seen at no cost and U is then
    augmented with the range of R.
    """
    n = a.graph.n
    power = _power(*_spectrum_bounds(a, d))
    applications = 0

    def powered(x):
        nonlocal applications
        applications += 1
        for _ in range(2 * power):
            x = a @ x
        return x

    u, y, krylov, tests = _block_lanczos(powered, n, d)
    next_magnitude = float(np.linalg.norm(a @ y))
    au = a @ u
    mu = np.einsum("ij,ij->j", au, au)
    h = u.T @ au
    del au
    s, w = np.linalg.eigh(np.diag(mu) - h @ h)
    # a column of R longer than 1e-6 ||A|| would fail the residual check
    grow = s > _RESIDUAL_TOL ** 2 * mu.max()
    if grow.any():
        r = (a @ u - u @ h) @ (w[:, grow] / np.sqrt(s[grow]))
        u = np.linalg.qr(np.hstack([u, r]))[0]
        h = u.T @ (a @ u)
    theta, v = np.linalg.eigh(h)
    order = _canonical_order(theta)[:d]
    v = v[:, order]
    # rotate in place, in row chunks: a rotated copy of the basis stays in
    # the heap glibc keeps and raises the audit's peak RSS
    for r0, r1 in row_chunks(n, u.shape[1]):
        u[r0:r1, :d] = u[r0:r1] @ v
    return theta[order], u[:, :d], power, applications, krylov, tests, next_magnitude


def _block_lanczos(op, n: int, d: int):
    """Top-d eigenvectors (n, d) of the positive semidefinite operator
    ``op`` on (n, b) blocks, its Ritz vector d + 1 (n,), the Krylov
    dimension k at which they converged and the number of convergence
    tests run, for d <= n - 2.

    Block Lanczos with full reorthogonalisation (Golub & Underwood 1977).
    The Krylov basis V grows by one block of b = _BLOCK vectors per
    application of op, so a repeated eigenvalue shows up to b copies, and
    every product is a GEMM.  Each image op(Q) loses its components on the
    previous block (through the last coupling) and on Q, whose coefficients
    give the block's Rayleigh quotient, and is then reorthogonalised against
    all of V by one classical Gram-Schmidt pass.  The QR of the remainder,
    turned by the SVD of its small R factor, gives the next block and its
    coupling B.  A direction whose singular value is below _BREAKDOWN times
    the largest image norm seen lies in span(V): it is replaced by a seeded
    random direction orthogonal to V, with zero coupling.  V^T op V is then
    the block-tridiagonal T of those quotients and couplings.

    The Ritz pair (theta_i, V s_i) of T has the residual
    ||B s_i[last block]||, which must be at most _LANCZOS_TOL * |theta_i|
    for each of the top d.  The first test runs at Krylov dimension
    k = 1.5d + b, rounded up to whole blocks.  A failed test misses by
    m = max_i log(||B s_i[last block]|| / (_LANCZOS_TOL |theta_i|)) > 0,
    and the next runs where the line through the last two (k, m) reaches
    m = 0: that step is clamped to [b, max(b, d / 2)], is max(b, d / 4)
    when there is no falling line (after the first test, or when m did not
    fall), and is rounded up to whole blocks.  At k = n the projection is
    exact.  V is kept as row chunks of V^T, so it grows without a copy:
    the first holds 2d + b rows and each later one max(b, d / 4), rounded
    up to whole blocks and at most n in all, whatever the tests do.  A
    failed test's T, eigenvectors and Ritz values go before the next T is
    built.  Ritz vector d + 1, then the top d, are formed from the filled
    rows of each chunk in the vertex ranges of ``blocks.row_chunks`` with
    k entries a row: one GEMM per chunk of V^T and range, so beside V there
    is one range's product.  The top d are written, transposed, over the
    first chunk of V^T; the other chunks and the iteration's blocks are
    then dropped, and the result is a fresh C-ordered copy, so the (n, d)
    array exists only beside the first chunk (2d + b rows, at most n),
    never beside all of V.
    """
    rng = np.random.default_rng(_LANCZOS_SEED)
    b = min(_BLOCK, n)
    start = np.empty((n, b))
    start[:, 0] = 1.0 / math.sqrt(n)
    start[:, 1:] = rng.standard_normal((n, b - 1))
    q = np.linalg.qr(start)[0]
    chunks = []                 # [rows of V^T, rows filled]
    alphas, betas = [], []
    k, scale, span = 0, 0.0, 2 * d + b
    tests, last, test_at = 0, None, b * math.ceil((1.5 * d + b) / b)

    def orthogonalise(w):
        """One CGS pass of w against V, in place; the coefficients on the
        last chunk of V."""
        for rows, filled in chunks:
            h = rows[:filled] @ w
            w -= (h.T @ rows[:filled]).T   # a wide GEMM, not a transposed skinny one
        return h

    while True:
        if not chunks or chunks[-1][1] == len(chunks[-1][0]):
            chunks.append([np.empty((min(n - k, -(-span // b) * b), n)), 0])
            span = max(b, d // 4)
        chunk = chunks[-1]
        chunk[0][chunk[1]:chunk[1] + q.shape[1]] = q.T
        chunk[1] += q.shape[1]
        k += q.shape[1]
        w = op(q)
        scale = max(scale, float(np.linalg.norm(w, axis=0).max()))
        if betas:
            w -= q_prev @ betas[-1].T
        coef = q.T @ w
        w -= q @ coef
        coef += orthogonalise(w)[-len(coef):]
        alphas.append((coef + coef.T) / 2)
        q_prev = q
        beta = np.zeros((0, q.shape[1]))
        if k < n:
            q, r = np.linalg.qr(w)
            x, sv, yt = np.linalg.svd(r)
            keep = min(b, n - k)        # k + keep <= n: the rest is rounding
            q, beta = q @ x[:, :keep], sv[:keep, None] * yt[:keep]
            lost = sv[:keep] <= _BREAKDOWN * scale
            if lost.any():
                fresh = rng.standard_normal((n, int(lost.sum())))
                for _ in range(2):
                    orthogonalise(fresh)
                    fresh -= q[:, ~lost] @ (q[:, ~lost].T @ fresh)
                q[:, lost] = np.linalg.qr(fresh)[0]
                beta[lost] = 0.0
        if k >= test_at or k == n:
            tests += 1
            t = np.zeros((k, k))
            at = 0
            for alpha, coupling in zip(alphas, betas + [beta[:0]]):
                below = at + len(alpha)
                t[at:below, at:below] = alpha
                t[below:below + len(coupling), at:below] = coupling
                t[at:below, below:below + len(coupling)] = coupling.T
                at = below
            theta, s = np.linalg.eigh(t)
            del t
            top = slice(k - 1, k - d - 1, -1)
            residual = np.linalg.norm(beta @ s[k - beta.shape[1]:, top], axis=0)
            target = _LANCZOS_TOL * np.abs(theta[top])
            if k == n or np.all(residual <= target):
                break
            del theta, s                # one test's k x k arrays at a time
            # the log of the worst residual over its target; a residual
            # above a zero target, or a NaN, misses it by infinitely much
            miss = max((math.log(r / t) if t > 0 else math.inf
                        for r, t in zip(residual, target) if r > t), default=math.inf)
            step = max(b, d // 4)
            if last is not None and math.isfinite(last[1]) and last[1] > miss:
                step = min(max(miss * (k - last[0]) / (last[1] - miss), b), max(b, d // 2))
            last = (k, miss)
            test_at = k + b * math.ceil(step / b)
        betas.append(beta)

    coef, y_coef = np.ascontiguousarray(s[:, top]), s[:, k - d - 1].copy()
    del theta, s

    # at most CHUNK_ENTRIES entries of V^T per GEMM: a product over all n
    # rows is an (n, d) temporary, and a threaded BLAS packs all of its rows
    def ritz(c):
        """Yield (r0, r1, rows r0..r1 of V c) over the vertex ranges."""
        for r0, r1 in row_chunks(n, k):
            at = 0
            for rows, filled in chunks:
                part = rows[:filled, r0:r1].T @ c[at:at + filled]
                if at:
                    out += part
                else:
                    out = part
                at += filled
            yield r0, r1, out

    y = np.empty(n)
    for r0, r1, out in ritz(y_coef):
        y[r0:r1] = out
    # the top d go over the first chunk's leading rows, of which it has
    # 2d + b (at most n) >= d, once y has read them: range r0..r1 reads
    # only columns r0..r1
    first = chunks[0][0]
    for r0, r1, out in ritz(coef):
        first[:d, r0:r1] = out.T
    # the rest of V, the top d's coefficients and the iteration's blocks go
    # before the (n, d) copy is made, and the first chunk when the solve
    # returns
    del chunks, chunk, coef, out, start, w, q, q_prev
    return np.ascontiguousarray(first[:d].T), y, k, tests


# ------------------------------------------------------------------ files
#
# Text format:
#   # optional comment lines (before the header only)
#   n d {spectral|plain}
#   lambda: l_1 ... l_d          (spectral only)
#   vertex_id f_1 ... f_d        (one row per vertex, any order)

def save_embedding(e: Embedding, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{e.n} {e.d} {e.kind}\n")
        if e.eigenvalues is not None:
            fh.write("lambda: " + " ".join(f"{v:.17g}" for v in e.eigenvalues) + "\n")
        for i in range(e.n):
            row = " ".join(f"{v:.17g}" for v in e.vectors[i])
            fh.write(f"{i} {row}\n")


def _parse_floats(tokens, count, where):
    if len(tokens) != count:
        raise EmbeddingFormatError(
            f"{where}: expected {count} values, got {len(tokens)}")
    try:
        vals = np.array([float(t) for t in tokens])
    except ValueError:
        raise EmbeddingFormatError(f"{where}: non-numeric value") from None
    if not np.all(np.isfinite(vals)):
        raise EmbeddingFormatError(f"{where}: non-finite value")
    return vals


def load_embedding(path) -> Embedding:
    """Load an embedding file; inverse of save_embedding to 1e-12."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    k = 0
    while k < len(lines) and (not lines[k].strip() or lines[k].lstrip().startswith("#")):
        k += 1
    if k >= len(lines):
        raise EmbeddingFormatError(f"{path}: missing header")
    header = lines[k].split()
    if len(header) != 3 or header[2] not in ("spectral", "plain"):
        raise EmbeddingFormatError(
            f"{path}: header must be 'n d spectral|plain', got {lines[k]!r}")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError(f"{path}: non-integer n or d in header") from None
    if n < 0 or d < 1:
        raise EmbeddingFormatError(f"{path}: invalid sizes n={n}, d={d}")
    k += 1

    eigenvalues = None
    if header[2] == "spectral":
        if k >= len(lines) or not lines[k].startswith("lambda:"):
            raise EmbeddingFormatError(f"{path}: spectral file needs a lambda line")
        eigenvalues = _parse_floats(lines[k].split()[1:], d, f"{path}: lambda line")
        k += 1

    # rows first: the header's n x d is allocated only once rows back it
    rows = {}
    for lineno in range(k, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        tokens = line.split()
        where = f"{path}: line {lineno + 1}"
        try:
            vid = int(tokens[0])
        except ValueError:
            raise EmbeddingFormatError(f"{where}: non-integer vertex id") from None
        if not 0 <= vid < n:
            raise EmbeddingFormatError(f"{where}: vertex id {vid} out of range")
        if vid in rows:
            raise EmbeddingFormatError(f"{where}: duplicate vertex id {vid}")
        rows[vid] = _parse_floats(tokens[1:], d, where)
    if len(rows) < n:
        missing = next(vid for vid in range(n) if vid not in rows)
        raise EmbeddingFormatError(f"{path}: missing vertex id {missing}")
    vectors = np.empty((n, d))
    for vid, vals in rows.items():
        vectors[vid] = vals
    try:
        return Embedding(vectors, eigenvalues)
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from exc
