"""Spatial-pattern metrics (paper Section IV-B, Findings 8-11).

Covers request randomness (minimum offset distance over a sliding window of
recent requests), traffic aggregation in the hottest blocks,
read-mostly/write-mostly block classification, and update coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from ..trace.blocks import BlockView, block_view
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "DEFAULT_RANDOMNESS_WINDOW",
    "DEFAULT_RANDOMNESS_THRESHOLD",
    "random_request_mask",
    "randomness_ratio",
    "topk_block_traffic_fraction",
    "MostlyTraffic",
    "mostly_traffic",
    "dataset_mostly_traffic",
    "WorkingSets",
    "working_sets",
    "update_coverage",
]

#: Number of preceding requests compared against (paper / DiskAccel: 32).
DEFAULT_RANDOMNESS_WINDOW = 32

#: Offset-distance threshold beyond which a request is random (128 KiB).
DEFAULT_RANDOMNESS_THRESHOLD = 128 * 1024

#: Fraction of a block's traffic that must be reads (writes) for the block
#: to be read-mostly (write-mostly); the paper uses 95%.
MOSTLY_THRESHOLD = 0.95


def random_request_mask(
    trace: VolumeTrace,
    window: int = DEFAULT_RANDOMNESS_WINDOW,
    threshold: int = DEFAULT_RANDOMNESS_THRESHOLD,
) -> np.ndarray:
    """Boolean mask marking the random requests of a volume.

    A request is *random* when the minimum absolute distance between its
    offset and the offsets of the previous ``window`` requests exceeds
    ``threshold`` bytes.  The first request has no predecessors and is
    counted as random (it cannot be near any recent request).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    offsets = trace.offsets.astype(np.float64)
    n = len(offsets)
    if n == 0:
        return np.array([], dtype=bool)
    min_dist = np.full(n, np.inf)
    buf = np.empty(max(n - 1, 0))
    # One vectorized pass per lag: distance to the request `lag` positions
    # earlier; the running minimum over lags 1..window gives the metric.
    for lag in range(1, min(window, n - 1) + 1):
        d = buf[: n - lag]
        np.subtract(offsets[lag:], offsets[:-lag], out=d)
        np.abs(d, out=d)
        np.minimum(min_dist[lag:], d, out=min_dist[lag:])
    return min_dist > threshold


def randomness_ratio(
    trace: VolumeTrace,
    window: int = DEFAULT_RANDOMNESS_WINDOW,
    threshold: int = DEFAULT_RANDOMNESS_THRESHOLD,
) -> float:
    """Fraction of a volume's requests classified as random (Finding 8)."""
    if len(trace) == 0:
        return float("nan")
    return float(random_request_mask(trace, window, threshold).mean())


def topk_block_traffic_fraction(
    trace: VolumeTrace,
    top_fraction: float,
    op: str,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> float:
    """Fraction of read (or write) traffic landing in the hottest blocks.

    ``top_fraction`` selects the top-N% of the op's distinct blocks ranked
    by that op's per-block traffic (Finding 9: top-1% and top-10%).  At
    least one block is always selected.  NaN when the volume has no traffic
    of the requested op.
    """
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    if op not in ("read", "write"):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    read_bytes, write_bytes = block_view(trace, block_size).traffic
    return _topk_fraction(read_bytes if op == "read" else write_bytes, top_fraction)


def _topk_fraction(traffic: np.ndarray, top_fraction: float) -> float:
    """Share of the total in the top ``top_fraction`` of the nonzero
    per-block ``traffic``; NaN when there is none."""
    traffic = traffic[traffic > 0]
    if len(traffic) == 0:
        return float("nan")
    total = traffic.sum()
    k = max(1, int(len(traffic) * top_fraction))
    top = np.partition(traffic, len(traffic) - k)[-k:]
    return float(top.sum() / total)


@dataclass(frozen=True)
class MostlyTraffic:
    """Traffic going to read-mostly / write-mostly blocks (Finding 10)."""

    read_to_read_mostly: float
    write_to_write_mostly: float


def _mostly_bytes(view: BlockView, threshold: float) -> Tuple[int, int, int, int]:
    """``(read bytes to read-mostly blocks, write bytes to write-mostly
    blocks, read bytes, write bytes)`` of one volume."""
    read_bytes, write_bytes = view.traffic
    cutoff = threshold * (read_bytes + write_bytes)
    return (
        read_bytes[read_bytes >= cutoff].sum(),
        write_bytes[write_bytes >= cutoff].sum(),
        read_bytes.sum(),
        write_bytes.sum(),
    )


def _pool_mostly(parts: Iterable[Tuple[int, int, int, int]]) -> MostlyTraffic:
    """Fractions from per-volume :func:`_mostly_bytes`, summed as floats in
    volume order."""
    parts = list(parts)
    to_rm, to_wm, read, write = (sum(float(p[i]) for p in parts) for i in range(4))
    return MostlyTraffic(
        read_to_read_mostly=to_rm / read if read > 0 else float("nan"),
        write_to_write_mostly=to_wm / write if write > 0 else float("nan"),
    )


def mostly_traffic(
    trace: VolumeTrace,
    threshold: float = MOSTLY_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MostlyTraffic:
    """Per-volume fractions of read traffic to read-mostly blocks and write
    traffic to write-mostly blocks."""
    return _pool_mostly([_mostly_bytes(block_view(trace, block_size), threshold)])


def dataset_mostly_traffic(
    dataset: TraceDataset,
    threshold: float = MOSTLY_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MostlyTraffic:
    """Fleet-level Finding 10 numbers (paper Table III).

    Block classification happens per volume (block ids are per-volume
    address spaces), then traffic is summed across the fleet.
    """
    return _pool_mostly(
        _mostly_bytes(block_view(v, block_size), threshold) for v in dataset.non_empty_volumes()
    )


@dataclass(frozen=True)
class WorkingSets:
    """Working set sizes in bytes (Table I rows).

    ``update`` counts blocks written more than once; ``total`` counts all
    blocks touched by any request.
    """

    total: int
    read: int
    write: int
    update: int

    @property
    def update_coverage(self) -> float:
        """Update WSS / total WSS (Finding 11); NaN when nothing is touched."""
        return self.update / self.total if self.total else float("nan")


def _working_sets(view: BlockView) -> WorkingSets:
    reads, writes = view.access_counts
    return WorkingSets(
        total=len(reads) * view.block_size,
        read=int(np.count_nonzero(reads)) * view.block_size,
        write=int(np.count_nonzero(writes)) * view.block_size,
        update=int(np.count_nonzero(writes > 1)) * view.block_size,
    )


def working_sets(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> WorkingSets:
    """Total/read/write/update working set sizes of one volume."""
    return _working_sets(block_view(trace, block_size))


def update_coverage(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """Update WSS / total WSS of the volume (Finding 11); NaN when empty."""
    return working_sets(trace, block_size).update_coverage
