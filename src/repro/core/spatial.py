"""Spatial-pattern metrics (paper Section IV-B, Findings 8-11).

Covers request randomness (minimum offset distance over a sliding window of
recent requests), traffic aggregation in the hottest blocks,
read-mostly/write-mostly block classification, and update coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..trace.blocks import block_events, block_traffic
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
    # One vectorized pass per lag: distance to the request `lag` positions
    # earlier; the running minimum over lags 1..window gives the metric.
    for lag in range(1, min(window, n - 1) + 1):
        d = np.abs(offsets[lag:] - offsets[:-lag])
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
    _, read_bytes, write_bytes = block_traffic(trace, block_size)
    return _topk_fraction(read_bytes if op == "read" else write_bytes, top_fraction)


def _topk_fraction(traffic: np.ndarray, top_fraction: float) -> float:
    """Share of the total in the top ``top_fraction`` of the nonzero
    per-block ``traffic``; NaN when there is none."""
    traffic = traffic[traffic > 0]
    if len(traffic) == 0:
        return float("nan")
    total = traffic.sum()
    k = max(1, int(len(traffic) * top_fraction))
    top = np.sort(traffic)[-k:]
    return float(top.sum() / total)


@dataclass(frozen=True)
class MostlyTraffic:
    """Traffic going to read-mostly / write-mostly blocks (Finding 10)."""

    read_to_read_mostly: float
    write_to_write_mostly: float


def _mostly_fractions(
    read_bytes: np.ndarray, write_bytes: np.ndarray, threshold: float
) -> MostlyTraffic:
    total = read_bytes + write_bytes
    touched = total > 0
    read_bytes = read_bytes[touched]
    write_bytes = write_bytes[touched]
    total = total[touched]
    read_mostly = read_bytes >= threshold * total
    write_mostly = write_bytes >= threshold * total
    total_read = read_bytes.sum()
    total_write = write_bytes.sum()
    r = float(read_bytes[read_mostly].sum() / total_read) if total_read > 0 else float("nan")
    w = float(write_bytes[write_mostly].sum() / total_write) if total_write > 0 else float("nan")
    return MostlyTraffic(read_to_read_mostly=r, write_to_write_mostly=w)


def mostly_traffic(
    trace: VolumeTrace,
    threshold: float = MOSTLY_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MostlyTraffic:
    """Per-volume fractions of read traffic to read-mostly blocks and write
    traffic to write-mostly blocks."""
    _, read_bytes, write_bytes = block_traffic(trace, block_size)
    return _mostly_fractions(read_bytes, write_bytes, threshold)


def dataset_mostly_traffic(
    dataset: TraceDataset,
    threshold: float = MOSTLY_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> MostlyTraffic:
    """Fleet-level Finding 10 numbers (paper Table III).

    Block classification happens per volume (block ids are per-volume
    address spaces), then traffic is summed across the fleet.
    """
    read_to_rm = 0.0
    write_to_wm = 0.0
    total_read = 0.0
    total_write = 0.0
    for trace in dataset.volumes():
        _, read_bytes, write_bytes = block_traffic(trace, block_size)
        if len(read_bytes) == 0:
            continue
        total = read_bytes + write_bytes
        touched = total > 0
        rb, wb, tot = read_bytes[touched], write_bytes[touched], total[touched]
        read_mostly = rb >= threshold * tot
        write_mostly = wb >= threshold * tot
        read_to_rm += float(rb[read_mostly].sum())
        write_to_wm += float(wb[write_mostly].sum())
        total_read += float(rb.sum())
        total_write += float(wb.sum())
    return MostlyTraffic(
        read_to_read_mostly=read_to_rm / total_read if total_read > 0 else float("nan"),
        write_to_write_mostly=write_to_wm / total_write if total_write > 0 else float("nan"),
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


def working_sets(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> WorkingSets:
    """Total/read/write/update working set sizes of one volume."""
    ev = block_events(trace, block_size)
    if len(ev) == 0:
        return WorkingSets(0, 0, 0, 0)
    total = len(np.unique(ev.block_id))
    read = len(np.unique(ev.block_id[~ev.is_write]))
    write_blocks = ev.block_id[ev.is_write]
    if len(write_blocks):
        uniq, counts = np.unique(write_blocks, return_counts=True)
        write = len(uniq)
        update = int(np.count_nonzero(counts > 1))
    else:
        write = update = 0
    return WorkingSets(
        total=total * block_size,
        read=read * block_size,
        write=write * block_size,
        update=update * block_size,
    )


def update_coverage(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
    """Update WSS / total WSS of the volume (Finding 11); NaN when empty."""
    ws = working_sets(trace, block_size)
    if ws.total == 0:
        return float("nan")
    return ws.update / ws.total
