"""Interval bucketing of event timestamps.

Load-intensity metrics (peak intensity, active-volume counts) reduce a
request stream to counts per fixed-width interval; this module provides the
shared bucketing primitives.

:func:`bucket_edges` and :func:`bucket_counts` define the buckets.
:func:`max_interval_count` and :func:`active_buckets` compute each
event's bucket index the same way (:func:`bucket_index`) but never build
the grid, so their cost follows the number of events, not the number of
buckets.  That matters when a short interval spans a long trace:
one-minute windows over 31 days are 44,640 buckets, and most volumes
touch a few of them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "active_buckets",
    "bucket_counts",
    "bucket_edges",
    "bucket_index",
    "distinct_sorted",
    "interval_activity",
    "max_interval_count",
    "n_buckets",
]


def n_buckets(t0: float, t1: float, interval: float) -> int:
    """Number of ``interval``-second buckets covering ``[t0, t1]`` (at least 1)."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    return max(1, int(np.ceil((t1 - t0) / interval)))


def bucket_edges(t0: float, t1: float, interval: float) -> np.ndarray:
    """Edges of consecutive ``interval``-second buckets covering ``[t0, t1]``.

    An event at exactly ``t1`` belongs to the last bucket (bucketing
    functions clamp the final index), so a span that is an exact multiple
    of the interval gets exactly ``span/interval`` buckets.
    """
    return t0 + np.arange(n_buckets(t0, t1, interval) + 1) * interval


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


def bucket_index(
    timestamps: np.ndarray, interval: float, t0: float, t1: float
) -> np.ndarray:
    """The bucket of ``bucket_edges(t0, t1, interval)`` holding each event,
    as :func:`bucket_counts` computes it (``t1`` falls in the last bucket).

    Events must lie in ``[t0, t1]``.  Sorted timestamps give sorted
    indices: subtracting ``t0`` and dividing by ``interval`` never reorder.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    return np.minimum(((ts - t0) / interval).astype(np.int64), n_buckets(t0, t1, interval) - 1)


def distinct_sorted(idx: np.ndarray) -> np.ndarray:
    """The distinct values of non-decreasing ``idx``, in order."""
    if len(idx) == 0:
        return idx
    first = np.empty(len(idx), dtype=bool)
    first[0] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    return idx[first]


def _sort_if_needed(idx: np.ndarray) -> np.ndarray:
    if len(idx) > 1 and (idx[1:] < idx[:-1]).any():
        idx.sort()
    return idx


def max_interval_count(timestamps: np.ndarray, interval: float) -> int:
    """Maximum number of events in any ``interval``-second bucket.

    Equal to ``bucket_counts(timestamps, interval)[1].max()``: the buckets
    start at the earliest event, and the longest run of equal sorted
    bucket indices is the fullest bucket.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    if len(ts) == 0:
        raise ValueError("cannot bucket an empty timestamp array")
    idx = _sort_if_needed(bucket_index(ts, interval, float(ts.min()), float(ts.max())))
    run_edges = np.empty(len(idx) + 1, dtype=bool)
    run_edges[0] = run_edges[-1] = True
    np.not_equal(idx[1:], idx[:-1], out=run_edges[1:-1])
    return int(np.diff(np.flatnonzero(run_edges)).max())


def active_buckets(
    timestamps: np.ndarray, interval: float, t0: float, t1: float
) -> np.ndarray:
    """Sorted indices of the buckets of ``bucket_edges(t0, t1, interval)``
    that hold >=1 event; events outside ``[t0, t1]`` are ignored."""
    ts = np.asarray(timestamps, dtype=np.float64)
    ts = ts[(ts >= t0) & (ts <= t1)]
    return distinct_sorted(_sort_if_needed(bucket_index(ts, interval, t0, t1)))


def interval_activity(
    timestamps: np.ndarray, interval: float, t0: float, t1: float
) -> np.ndarray:
    """Boolean per-bucket activity: True where the bucket holds >=1 event."""
    active = np.zeros(n_buckets(t0, t1, interval), dtype=bool)
    active[active_buckets(timestamps, interval, t0, t1)] = True
    return active
