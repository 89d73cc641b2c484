"""Request-to-block mapping and the per-volume block view.

The paper's spatial and temporal metrics operate at block granularity
(default 4 KiB): working sets, read-/write-mostly classification,
RAW/WAW/RAR/WAR transitions, update intervals and cache simulation all
reason about the fixed-size blocks a request touches.  :func:`block_view`
expands a volume once, fully vectorized, into a :class:`BlockView`; every
block metric is a reduction over that one view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from ..obs import metrics
from .dataset import VolumeTrace
from .record import DEFAULT_BLOCK_SIZE

__all__ = [
    "block_range",
    "expand_to_blocks",
    "stable_order",
    "adjacent_pairs",
    "BlockView",
    "block_view",
]


def block_range(offset: int, size: int, block_size: int = DEFAULT_BLOCK_SIZE) -> Tuple[int, int]:
    """First block index and number of blocks touched by a request."""
    if size <= 0:
        raise ValueError("size must be positive")
    first = offset // block_size
    last = (offset + size - 1) // block_size
    return first, last - first + 1


def expand_to_blocks(
    offsets: np.ndarray,
    sizes: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand requests into per-block touches.

    Returns ``(req_index, block_id, nbytes)`` arrays where row *k* says
    request ``req_index[k]`` touches block ``block_id[k]`` with
    ``nbytes[k]`` bytes (partial at the first/last block of an unaligned
    request).  Rows are ordered by request then ascending block.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(offsets)
    if n == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    # The one place a block stream is built: tests count these per command.
    metrics.counter("trace.blocks.expansions").inc()
    first = offsets // block_size
    last = (offsets + sizes - 1) // block_size
    counts = last - first + 1
    total = int(counts.sum())
    req_index = np.repeat(np.arange(n, dtype=np.int64), counts)
    # Concatenated per-request aranges: position within each request's span.
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    block_id = np.repeat(first, counts) + within
    # Byte attribution: intersection of [offset, offset+size) with each block.
    block_lo = block_id * block_size
    block_hi = block_lo + block_size
    req_lo = np.repeat(offsets, counts)
    req_hi = req_lo + np.repeat(sizes, counts)
    nbytes = np.minimum(block_hi, req_hi) - np.maximum(block_lo, req_lo)
    return req_index, block_id, nbytes


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, from one sort of packed keys.

    Each key is ``(value - min) << bits | position``, so sorting the keys
    by value orders by value, then by position.  Values whose span leaves
    no room for the position bits, and non-integer values, take the
    stable argsort itself.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0 or not np.can_cast(values.dtype, np.int64):
        return np.argsort(values, kind="stable")
    bits = (n - 1).bit_length()
    lo = int(values.min())
    if (int(values.max()) - lo) >> (63 - bits):
        return np.argsort(values, kind="stable")
    keys = values.astype(np.int64)
    keys -= lo
    keys <<= bits
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


def adjacent_pairs(block_id: np.ndarray, order: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Consecutive accesses to one block, as ``(earlier, later)`` positions.

    ``order`` lists positions of ``block_id`` grouped by block, each
    block's positions in stream order (a stable sort by block, or a
    subsequence of one).  Pairs come out in that order.
    """
    ordered = block_id[order]
    same = ordered[1:] == ordered[:-1]
    return order[:-1][same], order[1:][same]


@dataclass(frozen=True, eq=False)
class BlockView:
    """One volume's per-(request, block) accesses, in stream order.

    Stream order is request order, then ascending block within a request.
    :attr:`order` is one stable sort of the accesses by block
    (:func:`stable_order`), so each block's accesses keep stream order:
    by time, and by request index among equal timestamps
    (``VolumeTrace`` timestamps never decrease).
    Every grouped derivation comes from that one sort, on first use.

    Attributes:
        block_id: block index touched.
        timestamps: arrival time of the owning request.
        is_write: op type of the owning request.
        nbytes: bytes of the request falling inside the block.
        req_index: row index of the owning request in the source trace.
        block_size: block granularity used for the expansion.
    """

    block_id: np.ndarray
    timestamps: np.ndarray
    is_write: np.ndarray
    nbytes: np.ndarray
    req_index: np.ndarray
    block_size: int

    def __len__(self) -> int:
        return len(self.block_id)

    @cached_property
    def order(self) -> np.ndarray:
        """Access positions sorted by block, stream order within a block."""
        return stable_order(self.block_id)

    @cached_property
    def run_starts(self) -> np.ndarray:
        """Where each distinct block's run of :attr:`order` starts."""
        ordered = self.block_id[self.order]
        first = np.ones(len(self), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        return np.flatnonzero(first)

    def _per_block(self, values: np.ndarray) -> np.ndarray:
        """Int64 sums of a per-access column over each block, ascending by block."""
        return np.add.reduceat(values[self.order], self.run_starts, dtype=np.int64)

    @cached_property
    def traffic(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block ``(read_bytes, write_bytes)``."""
        write_bytes = self._per_block(np.where(self.is_write, self.nbytes, 0))
        return self._per_block(self.nbytes) - write_bytes, write_bytes

    @cached_property
    def access_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block ``(reads, writes)`` access counts."""
        writes = self._per_block(self.is_write)
        return np.diff(self.run_starts, append=len(self)) - writes, writes

    @cached_property
    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every two consecutive accesses to one block (see :func:`adjacent_pairs`)."""
        return adjacent_pairs(self.block_id, self.order)

    @cached_property
    def write_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every two consecutive writes to one block, reads in between ignored."""
        return adjacent_pairs(self.block_id, self.order[self.is_write[self.order]])

    @cached_property
    def previous(self) -> np.ndarray:
        """Position of each access's previous access to its block; -1 for a first touch."""
        previous = np.full(len(self), -1, dtype=np.int64)
        earlier, later = self.pairs
        previous[later] = earlier
        return previous


def block_view(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> BlockView:
    """Expand a volume trace into its :class:`BlockView`."""
    req_index, block_id, nbytes = expand_to_blocks(trace.offsets, trace.sizes, block_size)
    return BlockView(
        block_id=block_id,
        timestamps=trace.timestamps[req_index],
        is_write=trace.is_write[req_index],
        nbytes=nbytes,
        req_index=req_index,
        block_size=block_size,
    )
