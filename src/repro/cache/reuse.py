"""Exact LRU reuse-distance computation.

The reuse distance (stack distance) of an access is the number of distinct
blocks touched since the previous access to the same block; an LRU cache of
capacity C hits exactly the accesses with reuse distance < C (Mattson's
stack property), so one pass gives the LRU miss ratio at every size.

Let ``p_i`` be the index of the previous access to access *i*'s block.  The
window ``(p_i, i)`` holds ``i - p_i - 1`` accesses; each one whose own
previous access also lies inside the window repeats a block already counted,
so ``d_i = (i - p_i - 1) - #{j < i : p_j > p_i}`` (for ``j <= p_i`` the
condition cannot hold).  The count runs over the re-accesses alone, whose
``p`` values are distinct.

**Run lemma.**  Split ``p`` into maximal runs ``[s, e)`` with
``p_{k+1} = p_k + 1``, as a multi-block request re-reading a recent extent
makes them.  (a) Every element of a run has the count of its head: the
earlier run elements are all smaller, and an element before ``s`` is
greater than ``p_k`` exactly when it is greater than ``p_s``, since no
other value lies in ``[p_s, p_{e-1}]``.  (b) For a later element, the run
is one key of weight ``e - s``: its values fill ``[p_s, p_{e-1}]``, which
holds no other value, so all of them are greater or none is.

So when the runs at least halve the input, the count is a weighted count
over the run heads, repeated over each run.  It is a bottom-up merge sort
in numpy: tiles of :data:`_TILE` keys counted by shifted compares, then
levels that merge pairs of sorted runs.  Each key packs
``value | position | count``: key order is value order, the position
finds the key's weight and side, and each level adds the left-run weight
above a right-run key into its count field in place.  Before a level
whose counts could overflow that field, the fields move into a counts
array by position, and that level and every later one add there instead;
only volumes of millions of accesses get there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..trace.blocks import adjacent_pairs, stable_order

__all__ = ["reuse_distances", "distances_from_previous", "INFINITE_DISTANCE"]

#: Sentinel distance for first-touch (cold) accesses.
INFINITE_DISTANCE = -1

#: Width of the tiles counted by shifted compares before the merge levels.
_TILE = 16

#: Keys per chunk of the tile stage, of a merge level and of a flush.
_CHUNK = 1 << 16

#: Bits a key may use: values, positions and counts stay non-negative.
_KEY_BITS = 63


def _count_tiles(p: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """Weighted ``#{j < i : p_j > p_i}`` within each row of ``p``.

    Works on the transpose, so that comparing every row with itself
    shifted by 1 to width - 1 runs along long contiguous columns.
    """
    p = np.ascontiguousarray(p.T)
    if weights is not None:
        weights = np.ascontiguousarray(weights.T)
    counts = np.zeros(p.shape, dtype=np.int64)
    for shift in range(1, len(p)):
        greater = p[:-shift] > p[shift:]
        if weights is None:
            counts[shift:] += greater
        else:
            counts[shift:] += greater * weights[:-shift]
    return counts.T


def _count_merged(
    rows: np.ndarray,
    width: int,
    fields: int,
    pmask: int,
    weights: Optional[np.ndarray],
    counts: Optional[np.ndarray],
) -> None:
    """Credit the right run of each merged row with the left-run weight above it.

    Each row of ``rows`` is the sorted merge of a full left run of
    ``width`` keys (positions with bit ``width`` clear) and the right run
    after it; a right-run key is below the left-run keys that follow it in
    the row.  The credit goes into each key's count field, or into
    ``counts`` by position when given.
    """
    pos = rows >> fields
    pos &= pmask
    left = (pos & width) == 0
    # Left weight up to each key; the sum runs on across rows, but its
    # difference within one row is that row's alone.
    if weights is None:
        credit = np.cumsum(left, dtype=np.int64).reshape(rows.shape)
    else:
        credit = weights[pos]
        credit *= left
        np.cumsum(credit, out=credit.reshape(-1))
    np.subtract(credit[:, -1:], credit, out=credit)
    credit *= ~left
    if counts is None:
        rows += credit
    else:
        counts[pos] += credit


def _flush(keys: np.ndarray, fields: int, pmask: int, counts: np.ndarray) -> None:
    """Add every key's count field into ``counts`` by position."""
    fmask = (1 << fields) - 1
    for lo in range(0, len(keys), _CHUNK):
        chunk = keys[lo : lo + _CHUNK]
        counts[(chunk >> fields) & pmask] += chunk & fmask


def _greater_before(p: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """``sum(weights[j] for j < i if p_j > p_i)`` for every *i*, for distinct
    ``p >= 0``; unit weights when ``weights`` is None."""
    n = len(p)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    pbits = (n - 1).bit_length()
    fields = _KEY_BITS - int(p.max()).bit_length() - pbits
    if fields < 0:
        raise OverflowError(f"{n} previous positions up to {int(p.max())} do not fit in a key")
    pmask, limit = (1 << pbits) - 1, 1 << fields
    total = n if weights is None else int(weights.sum())

    def fits(span: int) -> bool:
        """Whether no count within an aligned block of ``span`` keys can
        overflow the field: a count is below the block's total weight."""
        if total <= limit or weights is None:
            return min(span, total) <= limit
        bounds = np.concatenate(([0], np.cumsum(weights)))
        return np.diff(bounds[::span], append=total).max() <= limit

    # Key order is value order; the position and the count field follow.
    keys = p << (pbits + fields)
    keys |= np.arange(n, dtype=np.int64) << fields

    tiled = n - n % _TILE
    for lo in range(0, tiled, _CHUNK):
        hi = min(lo + _CHUNK, tiled)
        tile_w = None if weights is None else weights[lo:hi].reshape(-1, _TILE)
        counts[lo:hi] = _count_tiles(p[lo:hi].reshape(-1, _TILE), tile_w).ravel()
    tail_w = None if weights is None else weights[None, tiled:]
    counts[tiled:] = _count_tiles(p[None, tiled:], tail_w).ravel()
    keys[:tiled].reshape(-1, _TILE).sort(axis=1)
    keys[tiled:].sort()

    width, in_keys = _TILE, True
    while width < n:
        span = 2 * width
        if in_keys and not fits(span):
            # A count in this level could overflow its field.
            _flush(keys, fields, pmask, counts)
            in_keys = False
        into = None if in_keys else counts
        merged = n - n % span
        all_rows = keys[:merged].reshape(-1, span)
        step = max(1, _CHUNK // span)
        for lo in range(0, len(all_rows), step):
            rows = all_rows[lo : lo + step]
            # Each row holds two sorted runs; the stable sort detects them
            # and merges in linear time.
            rows.sort(axis=1, kind="stable")
            _count_merged(rows, width, fields, pmask, weights, into)
        tail = keys[merged:]
        if len(tail) > width:
            tail.sort(kind="stable")
            _count_merged(tail[None], width, fields, pmask, weights, into)
        width = span
    if in_keys:
        _flush(keys, fields, pmask, counts)
    return counts


def reuse_distances(blocks: np.ndarray) -> np.ndarray:
    """Per-access LRU reuse distances of a block-id stream.

    Returns an int64 array where entry *i* is the number of distinct blocks
    accessed strictly between access *i* and the previous access to the
    same block, or :data:`INFINITE_DISTANCE` for a first touch.
    """
    blocks = np.asarray(blocks)
    previous = np.full(len(blocks), -1, dtype=np.int64)
    earlier, later = adjacent_pairs(blocks, stable_order(blocks))
    previous[later] = earlier
    return distances_from_previous(previous)


def distances_from_previous(previous: np.ndarray) -> np.ndarray:
    """:func:`reuse_distances` of the stream whose access *i* last touched
    its block at position ``previous[i]`` (-1 for a first touch), as
    :attr:`repro.trace.blocks.BlockView.previous` gives it."""
    # First touches never count towards a later access (p_j = -1 < p_i), so
    # the count runs over the re-accesses alone, in stream order.
    reuse = np.flatnonzero(previous >= 0)
    gap = previous[reuse]
    breaks = np.flatnonzero(np.diff(gap) != 1)
    breaks += 1
    if 2 * (len(breaks) + 1) <= len(gap):
        # The runs at least halve the keys: count over the run heads.
        heads = np.concatenate(([0], breaks))
        weights = np.diff(heads, append=len(gap))
        counts = np.repeat(_greater_before(gap[heads], weights), weights)
    else:
        del breaks  # before the kernel's own working arrays
        counts = _greater_before(gap)
    np.subtract(reuse, gap, out=gap)
    gap -= counts
    gap -= 1
    out = np.full(len(previous), INFINITE_DISTANCE, dtype=np.int64)
    out[reuse] = gap
    return out
