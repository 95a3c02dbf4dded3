"""Deterministic tiling of the unordered-pair space {(i, j): i < j}.

All O(n^2) pair passes (sampling, expectation sums, calibration, the
softmax clamp count) walk the upper triangle in square tiles of side
``TILE`` through ``upper_tiles``, the one tile loop of the package.  Tile
indices are assigned in a fixed row-major order over the tile grid, so
per-tile randomness and every tile-order reduction depend only on n and
the tile side, which is fixed here and nowhere else; the softmax
normalizers score ``TILE // 4`` rows at a time.  Work arrays that are not
pair tiles (fit feature chunks, softmax score blocks, the eigensolver's
Ritz vectors and basis rotation) are taken in row chunks by
``row_chunks``.  Both sizes are read at call time, so a test can patch
them on this module.
"""

from __future__ import annotations

import numpy as np

# side of a square pair tile: the unit of work and of randomness
TILE = 1024

# float64 entries (1 MiB) in one row chunk of a work array
CHUNK_ENTRIES = 1 << 17


def row_chunks(n_rows: int, row_len: int):
    """Yield (r0, r1) covering range(n_rows) in chunks of at most
    CHUNK_ENTRIES entries, but at least one row."""
    step = max(1, CHUNK_ENTRIES // max(row_len, 1))
    for r0 in range(0, n_rows, step):
        yield r0, min(r0 + step, n_rows)


def iter_pair_tiles(n: int, side: int):
    """Yield (tile_index, (i0, i1), (j0, j1)) covering every pair i < j once,
    in tiles of side ``side``."""
    starts = list(range(0, n, side))
    t = 0
    for bi, i0 in enumerate(starts):
        i1 = min(i0 + side, n)
        for j0 in starts[bi:]:
            j1 = min(j0 + side, n)
            yield t, (i0, i1), (j0, j1)
            t += 1


def upper_tiles(n: int, block):
    """Yield (tile_index, rows, cols, tile) over the ``TILE``-side tiles, in
    tile order.

    ``rows`` and ``cols`` are the tile's index arrays and ``tile`` is
    ``block(rows, cols)``, a fresh array that is overwritten here: every
    entry outside i < j is set to 0.  Only tiles straddling the diagonal
    have such entries.  No reference to a yielded tile is kept here, so a
    caller that drops its own before the next step holds one tile at a
    time.
    """
    for t, (i0, i1), (j0, j1) in iter_pair_tiles(n, TILE):
        rows, cols = np.arange(i0, i1), np.arange(j0, j1)
        tile = block(rows, cols)
        if j0 < i1:
            tile[cols[None, :] <= rows[:, None]] = 0.0
        yield t, rows, cols, tile
        del tile
