"""Immutable undirected simple graphs and exact triangle-foundation statistics.

A triangle-foundation curve maps a degree threshold c to the number of
triangles whose three endpoints all have degree at most c, divided by n,
the vertex count of the graph that holds them.  A sampled graph keeps every
vertex of its embedding, isolated ones too, so its curve divides by the
same n as the original's and the two are directly comparable.  An empty
graph (n = 0) has no curve.  Triangles are counted exactly by closing the
wedges of the degree-oriented edge set, built straight from an (m, 2) edge
array, so a sampled edge set needs no Graph.  ``save_curve``
and ``load_curve`` are the one writer and reader of the "c,delta" curve
CSV, and ``save_degree_distribution`` is the one writer of the
"degree,count" histogram CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """The input cannot be audited: a malformed file, an empty graph, a
    dimension above the graph's n, or a missing graph or one whose n differs
    from the embedding's."""


class EdgeListParseError(InputError):
    """Malformed edge-list input (names the offending line)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph over vertices 0..n-1 in CSR-like form.

    ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of v.
    Each edge is stored once per endpoint, so ``indices`` has length 2m.
    Instances are immutable (arrays are marked read-only).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if indptr.shape != (self.n + 1,):
            raise ValueError(f"indptr must have length n+1={self.n + 1}")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("neighbor index out of range")
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of v (read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = rows < self.indices
        return np.column_stack([rows[keep], self.indices[keep]])

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float64)."""
        a = np.zeros((self.n, self.n))
        e = self.edge_array()
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
        return a

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a Graph from an iterable/array of (u, v) pairs.

        Self-loops are discarded and duplicate edges collapsed; use
        :func:`load_edge_list` when drop counts matter.
        """
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        e = e.reshape(-1, 2)
        if e.min() < 0 or e.max() >= n:
            raise ValueError("edge endpoint out of range")
        e = e[e[:, 0] != e[:, 1]]
        # each edge once per direction as the key u*n + v: sorted distinct
        # keys are the CSR entries in (row, column) order
        keys = np.unique(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, keys % n)


@dataclass(frozen=True)
class LoadedEdgeList:
    """Result of parsing an edge-list file.

    ``original_ids[k]`` is the vertex label in the input file that was
    relabeled to index k (labels are assigned in ascending order).
    """

    graph: Graph
    original_ids: np.ndarray
    dropped_self_loops: int
    dropped_duplicates: int


def load_edge_list(path) -> LoadedEdgeList:
    """Parse a whitespace-separated "u v" edge list into a Graph.

    Lines starting with '#' and blank lines are ignored.  Vertex labels are
    arbitrary integers in [0, 2^63) and get relabeled to a contiguous
    0..n-1 space.  Duplicate edges and self-loops are dropped (counted, not
    errors).  Malformed lines raise EdgeListParseError naming the line, and a
    file with no edges raises InputError.
    """
    raw_edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"{path}: line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    f"{path}: line {lineno}: non-integer token in {line!r}") from None
            if u < 0 or v < 0:
                raise EdgeListParseError(
                    f"{path}: line {lineno}: negative vertex id in {line!r}")
            if max(u, v) >= 2 ** 63:
                raise EdgeListParseError(
                    f"{path}: line {lineno}: vertex id above 2^63 - 1 in {line!r}")
            raw_edges.append((u, v))

    if not raw_edges:
        raise InputError(f"{path}: the graph is empty (no edges)")

    arr = np.asarray(raw_edges, dtype=np.int64)
    labels = np.unique(arr)                     # ascending original ids
    relabeled = np.searchsorted(labels, arr)
    n = labels.size

    loops = relabeled[:, 0] == relabeled[:, 1]
    n_loops = int(loops.sum())
    kept = relabeled[~loops]
    g = Graph.from_edges(n, kept)
    return LoadedEdgeList(g, labels, n_loops, len(kept) - g.m)


def save_edge_list(g: Graph, path, header_lines=()) -> None:
    """Write g in the "u v" text format, one edge per line, u < v.

    ``header_lines`` are emitted first as '#' comments (provenance).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for u, v in g.edge_array():
            fh.write(f"{u} {v}\n")


@dataclass(frozen=True)
class TriangleFoundationCurve:
    """Step curve c -> (# triangles with max endpoint degree <= c) / n_ref,
    where n_ref is the vertex count of the graph that holds the triangles.

    ``thresholds`` (int64) holds the distinct thresholds, ascending, and
    ``deltas`` (float64) the curve at each; delta is non-decreasing.  Both
    are read-only copies.  Between thresholds the curve is constant (step
    interpolation); below the smallest threshold it is 0.
    """

    thresholds: np.ndarray
    deltas: np.ndarray
    n_ref: int

    def __post_init__(self):
        if self.n_ref < 1:
            raise ValueError("n_ref must be >= 1")
        cs = np.array(self.thresholds, dtype=np.int64)
        ds = np.array(self.deltas, dtype=np.float64)
        if cs.ndim != 1 or cs.shape != ds.shape:
            raise ValueError("thresholds and deltas must be 1-d and of one length")
        cs.flags.writeable = False
        ds.flags.writeable = False
        object.__setattr__(self, "thresholds", cs)
        object.__setattr__(self, "deltas", ds)

    def value_at(self, c):
        """Step-interpolated delta at threshold c, a scalar or an array."""
        steps = np.concatenate(([0.0], self.deltas))
        return steps[np.searchsorted(self.thresholds, c, side="right")]

    def total_triangles(self) -> int:
        if not self.deltas.size:
            return 0
        return int(round(self.deltas[-1] * self.n_ref))


def union_grid(curves) -> np.ndarray:
    """Sorted union of the thresholds of the given curves."""
    return np.unique(np.concatenate([curve.thresholds for curve in curves]))


def save_curve(curve: TriangleFoundationCurve, out) -> None:
    """Write curve as CSV: a "c,delta" header, then one row per threshold
    with delta to 15 significant digits.  ``out`` is a path or an open text
    stream."""
    text = "c,delta\n" + "".join(f"{c},{d:.15g}\n" for c, d in
                                 zip(curve.thresholds.tolist(), curve.deltas.tolist()))
    if hasattr(out, "write"):
        out.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_curve(path, n_ref: int) -> TriangleFoundationCurve:
    """Read a curve CSV written by :func:`save_curve`."""
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "c,delta":
            raise ValueError(f"{path}: expected a 'c,delta' header")
        rows = [line.split(",") for line in fh if line.strip()]
    return TriangleFoundationCurve([int(c) for c, _ in rows],
                                   [float(d) for _, d in rows], n_ref)


def save_degree_distribution(degrees, path) -> None:
    """Write the histogram of ``degrees`` as CSV: a "degree,count" header,
    then one row per degree that occurs, ascending.  Real-valued (expected)
    degrees are binned to the nearest integer; integer degrees are exact."""
    counts = np.bincount(np.rint(np.asarray(degrees, dtype=float)).astype(np.int64))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("degree,count\n")
        for degree in np.flatnonzero(counts).tolist():
            fh.write(f"{degree},{counts[degree]}\n")


# Wedges one block of the triangle count may hold.  A graph can hold
# O(m^1.5) wedges; blocks of edges keep the working set near O(m) entries.
_PATH_BLOCK = 1 << 20


def _triangle_counts_by_max_degree(n: int, edges: np.ndarray):
    """(deg, counts) of the graph on vertices 0..n-1, n >= 1, whose (m, 2)
    array ``edges`` holds each edge once with i < j: deg[v] is the degree of
    v and counts[c] the number of triangles whose max endpoint degree equals
    c.

    Vertices are relabeled by their position in the (degree, index) order and
    each edge x - y, x < y, is kept once as the key x * n + y; the sorted
    keys list each vertex's later neighbours in order.  A triangle x < y < z
    is then the wedge y - x - z at its first vertex x, closed by the key
    y * n + z, which ``searchsorted`` finds; it is counted once, at its last
    vertex z, which has the largest endpoint degree (Latapy, TCS 407, 2008).
    Edge x - y opens one wedge with each later neighbour of x listed after
    y, and the edges are taken in contiguous blocks of at most
    max(m, _PATH_BLOCK) wedges, plus those of the edge that crosses the
    limit; the counts are integers, so any blocking gives the same result.
    """
    m = len(edges)
    deg = np.bincount(np.ravel(edges), minlength=n)
    size = int(deg.max()) + 1
    counts = np.zeros(size)
    if m == 0:
        return deg, counts
    order = np.lexsort((np.arange(n), deg))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    u, v = pos[edges[:, 0]], pos[edges[:, 1]]
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    first, last = np.divmod(keys, n)
    later = np.bincount(first, minlength=n)
    opens = np.cumsum(later)[first] - np.arange(1, m + 1)
    wedges = np.cumsum(opens)
    budget = max(m, _PATH_BLOCK)
    cuts = np.searchsorted(wedges, np.arange(budget, wedges[-1], budget), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [m])))
    degree_at = deg[order]
    for a, b in zip(bounds[:-1], bounds[1:]):
        k = opens[a:b]
        near = np.repeat(np.arange(a, b), k)
        far = near + 1 + np.arange(near.size) - np.repeat(np.cumsum(k) - k, k)
        wedge = last[near] * n + last[far]
        hit = keys[np.minimum(np.searchsorted(keys, wedge), m - 1)] == wedge
        counts += np.bincount(degree_at[last[far[hit]]], minlength=size)
    return deg, counts


def edge_curve(n: int, edges: np.ndarray) -> TriangleFoundationCurve:
    """Exact triangle-foundation curve of the graph on vertices 0..n-1 with
    the (m, 2) edge array ``edges`` (i < j, no repeats), normalized by n.

    A triangle lies in the subgraph induced by the vertices of degree <= c
    exactly when all three of its endpoint degrees are <= c, so the curve is
    the cumulative count of triangles keyed by max endpoint degree.
    Thresholds are the distinct degrees of the graph.
    """
    if n < 1:
        raise InputError("the graph is empty (no vertices), so it has no curve")
    deg, counts = _triangle_counts_by_max_degree(n, edges)
    cs = np.unique(deg)
    cum = np.cumsum(counts)
    return TriangleFoundationCurve(cs, cum[cs] / n, n)


def triangle_foundation_curve(g: Graph) -> TriangleFoundationCurve:
    """Exact triangle-foundation curve of g, normalized by g.n."""
    return edge_curve(g.n, g.edge_array())
