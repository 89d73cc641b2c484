"""Representative trace sampling (DiskAccel-style, paper ref [25]).

Trace-driven experiments on month-long traces are slow; Tarihi et al.'s
DiskAccel accelerates them by splitting the trace into fixed-length
intervals, extracting a feature vector per interval, clustering the
vectors, and replaying only one representative interval per cluster with
a weight proportional to its cluster size.  Metrics estimated from the
weighted sample approximate full-trace metrics at a fraction of the cost.

This module implements that pipeline for a single volume:

* :func:`interval_features` — per-interval feature vectors (request
  count, write fraction, mean size, mean |offset delta|, randomness),
* :func:`select_representatives` — k-means over standardized features,
  picking the interval nearest each centroid,
* :class:`SampledTrace` — the chosen intervals with replay weights, and
  a weighted request-count estimator for validation.

scipy's k-means is imported inside :func:`select_representatives`:
``repro.trace`` re-exports this module eagerly and no CLI command
samples, so a module-level import would slow every command's start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dataset import VolumeTrace

__all__ = ["interval_features", "select_representatives", "SampledTrace"]


def interval_features(
    trace: VolumeTrace, interval: float, t0: Optional[float] = None, t1: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval workload feature vectors.

    Returns ``(starts, features)``: interval start times and a matrix of
    shape ``(n_intervals, 5)`` with columns (request count, write
    fraction, mean request size, mean absolute offset delta, fraction of
    large offset jumps).  Empty intervals get all-zero rows.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if len(trace) == 0:
        raise ValueError("cannot featurize an empty trace")
    lo = trace.start_time if t0 is None else t0
    hi = trace.end_time if t1 is None else t1
    n = max(1, int(np.ceil((hi - lo) / interval)))
    idx = np.minimum(((trace.timestamps - lo) / interval).astype(np.int64), n - 1)
    valid = (idx >= 0) & (trace.timestamps >= lo) & (trace.timestamps <= hi)
    idx = idx[valid]
    sizes = trace.sizes[valid]
    offsets = trace.offsets[valid]
    is_write = trace.is_write[valid]

    counts = np.bincount(idx, minlength=n).astype(np.float64)
    writes = np.bincount(idx, weights=is_write, minlength=n)
    size_sum = np.bincount(idx, weights=sizes, minlength=n)
    deltas = np.abs(np.diff(offsets, prepend=offsets[:1])).astype(np.float64)
    delta_sum = np.bincount(idx, weights=deltas, minlength=n)
    jumps = np.bincount(idx, weights=(deltas > 128 * 1024), minlength=n)

    safe = np.maximum(counts, 1.0)
    features = np.column_stack(
        [counts, writes / safe, size_sum / safe, delta_sum / safe, jumps / safe]
    )
    starts = lo + np.arange(n) * interval
    return starts, features


@dataclass(frozen=True)
class SampledTrace:
    """Representative intervals of one volume with replay weights."""

    volume_id: str
    interval: float
    #: start time of each representative interval
    representative_starts: np.ndarray
    #: replay weight (cluster size) of each representative
    weights: np.ndarray
    #: the sub-traces to replay
    intervals: List[VolumeTrace]
    #: total number of intervals in the full trace
    n_intervals: int

    @property
    def speedup(self) -> float:
        """Ratio of total intervals to replayed intervals."""
        return self.n_intervals / max(len(self.intervals), 1)

    def estimate_total_requests(self) -> float:
        """Weighted request-count estimate (validates the weighting)."""
        return float(
            sum(w * len(seg) for w, seg in zip(self.weights, self.intervals))
        )


def select_representatives(
    trace: VolumeTrace,
    interval: float,
    k: int = 8,
    seed: int = 0,
) -> SampledTrace:
    """Cluster intervals and keep one representative per cluster.

    Features are standardized before k-means; each cluster contributes
    the interval closest to its centroid, weighted by cluster size.
    ``k`` is clipped to the number of non-degenerate intervals.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    from scipy.cluster.vq import kmeans2

    starts, features = interval_features(trace, interval)
    n = len(starts)
    k = min(k, n)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0] = 1.0
    z = (features - mean) / std
    rng = np.random.default_rng(seed)
    # kmeans2 with explicit deterministic seeding; "points" init avoids
    # empty clusters on small inputs.
    centroids, labels = kmeans2(z, k, minit="points", seed=rng)
    reps: List[int] = []
    weights: List[float] = []
    for cluster in range(k):
        members = np.where(labels == cluster)[0]
        if len(members) == 0:
            continue
        dists = np.linalg.norm(z[members] - centroids[cluster], axis=1)
        reps.append(int(members[np.argmin(dists)]))
        weights.append(float(len(members)))
    order = np.argsort(reps)
    rep_idx = np.array(reps)[order]
    rep_weights = np.array(weights)[order]
    segments = [
        trace.time_slice(starts[i], starts[i] + interval) for i in rep_idx
    ]
    return SampledTrace(
        volume_id=trace.volume_id,
        interval=interval,
        representative_starts=starts[rep_idx],
        weights=rep_weights,
        intervals=segments,
        n_intervals=n,
    )
