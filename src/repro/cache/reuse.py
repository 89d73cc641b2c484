"""Exact LRU reuse-distance computation.

The reuse distance (stack distance) of an access is the number of distinct
blocks touched since the previous access to the same block; an LRU cache of
capacity C hits exactly the accesses with reuse distance < C (Mattson's
stack property), so one pass gives the LRU miss ratio at every size.

Let ``p_i`` be the index of the previous access to access *i*'s block.  The
window ``(p_i, i)`` holds ``i - p_i - 1`` accesses; each one whose own
previous access also lies inside the window repeats a block already counted,
so ``d_i = (i - p_i - 1) - #{j < i : p_j > p_i}`` (for ``j <= p_i`` the
condition cannot hold).  The count is a per-element inversion count over
``p``, computed in O(n log n) by a bottom-up merge sort in numpy.
"""

from __future__ import annotations

import numpy as np

from ..trace.blocks import adjacent_pairs

__all__ = ["reuse_distances", "distances_from_previous", "INFINITE_DISTANCE"]

#: Sentinel distance for first-touch (cold) accesses.
INFINITE_DISTANCE = -1

#: Width of the runs counted by brute force before the merge levels start.
_TILE = 16

#: Elements per brute-force chunk; bounds the (chunk, TILE, TILE) temporary.
_TILE_CHUNK = 1 << 14

#: Elements per bookkeeping chunk of a merge level.
_MERGE_CHUNK = 1 << 16

#: ``_EARLIER[i, j]`` is true when ``j < i``.
_EARLIER = np.tril(np.ones((_TILE, _TILE), dtype=bool), -1)


def _count_run(p: np.ndarray) -> np.ndarray:
    """``#{j < i : p_j > p_i}`` within each row of ``p``, by brute force."""
    n = p.shape[-1]
    greater = p[..., None, :] > p[..., :, None]
    greater &= _EARLIER[:n, :n]
    return greater.sum(axis=-1)


def _count_merged(rows: np.ndarray, width: int, mask: int, counts: np.ndarray) -> None:
    """Credit the right run of each merged row with the left-run keys above it.

    Each row of ``rows`` is the sorted merge of a full left run of
    ``width`` keys (positions with bit ``width`` clear) and the right run
    after it; a right-run key preceded by ``k`` left-run keys has
    ``width - k`` greater left-run keys, all at earlier positions.
    """
    pos = rows & mask
    left = (pos & width) == 0
    seen_left = np.cumsum(left, axis=-1, dtype=np.int64)
    right = ~left
    counts[pos[right]] += width - seen_left[right]


def _greater_before(p: np.ndarray) -> np.ndarray:
    """``#{j < i : p_j > p_i}`` for every *i*, for ``p >= 0``."""
    n = len(p)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    bits = (n - 1).bit_length()
    mask = (1 << bits) - 1
    # Key order is value order; the low bits keep each key's position.
    keys = p << bits
    keys |= np.arange(n, dtype=np.int64)

    tiled = n - n % _TILE
    for lo in range(0, tiled, _TILE_CHUNK):
        hi = min(lo + _TILE_CHUNK, tiled)
        counts[lo:hi] = _count_run(p[lo:hi].reshape(-1, _TILE)).ravel()
    counts[tiled:] = _count_run(p[tiled:])
    keys[:tiled].reshape(-1, _TILE).sort(axis=1, kind="stable")
    keys[tiled:].sort(kind="stable")

    width = _TILE
    while width < n:
        span = 2 * width
        merged = n - n % span
        rows = keys[:merged].reshape(-1, span)
        # Each row holds two sorted runs; the stable sort detects them and
        # merges in linear time.
        rows.sort(axis=1, kind="stable")
        step = max(1, _MERGE_CHUNK // span)
        for lo in range(0, len(rows), step):
            _count_merged(rows[lo : lo + step], width, mask, counts)
        tail = keys[merged:]
        if len(tail) > width:
            tail.sort(kind="stable")
            _count_merged(tail, width, mask, counts)
        width = span
    return counts


def reuse_distances(blocks: np.ndarray) -> np.ndarray:
    """Per-access LRU reuse distances of a block-id stream.

    Returns an int64 array where entry *i* is the number of distinct blocks
    accessed strictly between access *i* and the previous access to the
    same block, or :data:`INFINITE_DISTANCE` for a first touch.
    """
    blocks = np.asarray(blocks)
    previous = np.full(len(blocks), -1, dtype=np.int64)
    earlier, later = adjacent_pairs(blocks, np.argsort(blocks, kind="stable"))
    previous[later] = earlier
    return distances_from_previous(previous)


def distances_from_previous(previous: np.ndarray) -> np.ndarray:
    """:func:`reuse_distances` of the stream whose access *i* last touched
    its block at position ``previous[i]`` (-1 for a first touch), as
    :attr:`repro.trace.blocks.BlockView.previous` gives it."""
    # First touches never count towards a later access (p_j = -1 < p_i), so
    # the inversion count runs over the re-accesses alone, in stream order.
    reuse = np.flatnonzero(previous >= 0)
    gap = previous[reuse]
    counts = _greater_before(gap)
    np.subtract(reuse, gap, out=gap)
    gap -= counts
    gap -= 1
    out = np.full(len(previous), INFINITE_DISTANCE, dtype=np.int64)
    out[reuse] = gap
    return out
