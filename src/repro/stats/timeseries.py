"""Interval bucketing of event timestamps.

Load-intensity metrics (peak intensity, active-volume counts) reduce a
request stream to counts per fixed-width interval; this module provides the
shared bucketing primitives.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["bucket_counts", "bucket_edges", "interval_activity", "max_interval_count"]


def bucket_edges(t0: float, t1: float, interval: float) -> np.ndarray:
    """Edges of consecutive ``interval``-second buckets covering ``[t0, t1]``.

    An event at exactly ``t1`` belongs to the last bucket (bucketing
    functions clamp the final index), so a span that is an exact multiple
    of the interval gets exactly ``span/interval`` buckets.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    n = max(1, int(np.ceil((t1 - t0) / interval)))
    return t0 + np.arange(n + 1) * interval


def bucket_counts(
    timestamps: np.ndarray,
    interval: float,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Count events per ``interval``-second bucket.

    Returns ``(edges, counts)`` with ``len(counts) == len(edges) - 1``.
    ``t0``/``t1`` default to the timestamp extremes.  Events outside
    ``[t0, t1]`` are ignored.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    if len(ts) == 0:
        raise ValueError("cannot bucket an empty timestamp array")
    lo = float(ts.min()) if t0 is None else t0
    hi = float(ts.max()) if t1 is None else t1
    edges = bucket_edges(lo, hi, interval)
    in_range = ts[(ts >= lo) & (ts <= hi)]
    idx = np.minimum(((in_range - lo) / interval).astype(np.int64), len(edges) - 2)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    return edges, counts


def max_interval_count(timestamps: np.ndarray, interval: float) -> int:
    """Maximum number of events in any ``interval``-second bucket."""
    _, counts = bucket_counts(timestamps, interval)
    return int(counts.max())


def interval_activity(
    timestamps: np.ndarray, interval: float, t0: float, t1: float
) -> np.ndarray:
    """Boolean per-bucket activity: True where the bucket holds >=1 event."""
    ts = np.asarray(timestamps, dtype=np.float64)
    edges = bucket_edges(t0, t1, interval)
    active = np.zeros(len(edges) - 1, dtype=bool)
    if len(ts) == 0:
        return active
    in_range = ts[(ts >= t0) & (ts <= t1)]
    if len(in_range) == 0:
        return active
    idx = np.minimum(((in_range - t0) / interval).astype(np.int64), len(active) - 1)
    active[idx] = True
    return active
