"""Deterministic tiling of the unordered-pair space {(i, j): i < j}.

All O(n^2) pair passes (sampling, expectation sums, calibration, the
softmax clamp count) walk the upper triangle in fixed square tiles through
``upper_tiles``, the one tile loop of the package.  Tile indices are
assigned in a fixed row-major order over the tile grid, so per-tile
randomness and every tile-order reduction depend only on the block size.
Work arrays that are not pair tiles (fit designs, softmax score blocks,
the eigensolver's basis rotation) are taken in row chunks by
``row_chunks``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BLOCK_SIZE = 1024

# float64 entries (1 MiB) in one row chunk of a work array
CHUNK_ENTRIES = 1 << 17


def row_chunks(n_rows: int, row_len: int):
    """Yield (r0, r1) covering range(n_rows) in chunks of at most
    CHUNK_ENTRIES entries, but at least one row."""
    step = max(1, CHUNK_ENTRIES // max(row_len, 1))
    for r0 in range(0, n_rows, step):
        yield r0, min(r0 + step, n_rows)


def iter_pair_tiles(n: int, block_size: int = DEFAULT_BLOCK_SIZE):
    """Yield (tile_index, (i0, i1), (j0, j1)) covering every pair i < j once."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    starts = list(range(0, n, block_size))
    t = 0
    for bi, i0 in enumerate(starts):
        i1 = min(i0 + block_size, n)
        for j0 in starts[bi:]:
            j1 = min(j0 + block_size, n)
            yield t, (i0, i1), (j0, j1)
            t += 1


def upper_tiles(n: int, block_size: int, block):
    """Yield (tile_index, rows, cols, tile) in tile order.

    ``rows`` and ``cols`` are the tile's index arrays and ``tile`` is
    ``block(rows, cols)``, a fresh array that is overwritten here: every
    entry outside i < j is set to 0.  Only tiles straddling the diagonal
    have such entries.  No reference to a yielded tile is kept here, so a
    caller that drops its own before the next step holds one tile at a
    time.
    """
    for t, (i0, i1), (j0, j1) in iter_pair_tiles(n, block_size):
        rows, cols = np.arange(i0, i1), np.arange(j0, j1)
        tile = block(rows, cols)
        if j0 < i1:
            tile[cols[None, :] <= rows[:, None]] = 0.0
        yield t, rows, cols, tile
        del tile
