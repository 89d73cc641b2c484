"""Load-intensity metrics (paper Section IV-A, Findings 1-7).

Covers average/peak request intensities, burstiness ratios, inter-arrival
time percentiles, per-day and per-interval activeness, and the
active-volume time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..stats.quantiles import PAPER_PERCENTILES, percentile_groups
from ..stats.timeseries import (
    active_buckets,
    bucket_edges,
    bucket_index,
    distinct_sorted,
    max_interval_count,
)
from ..trace.dataset import TraceDataset, VolumeTrace

__all__ = [
    "average_intensity",
    "peak_intensity",
    "burstiness_ratio",
    "OverallIntensity",
    "overall_intensity",
    "interarrival_times",
    "interarrival_percentile_groups",
    "write_read_ratio",
    "active_days",
    "ActiveVolumeTimeseries",
    "active_volume_timeseries",
    "active_period_seconds",
    "active_fractions",
    "DEFAULT_PEAK_INTERVAL",
    "DEFAULT_ACTIVITY_INTERVAL",
]

#: Interval used for peak-intensity measurement (paper: one minute).
DEFAULT_PEAK_INTERVAL = 60.0

#: Interval used for fine-grained activeness (paper: ten minutes).
DEFAULT_ACTIVITY_INTERVAL = 600.0


def average_intensity(trace: VolumeTrace) -> float:
    """Average intensity in req/s: #requests / (last ts - first ts).

    A volume whose requests all share one timestamp has zero elapsed time;
    we return ``inf`` for multi-request instantaneous bursts and 0.0 for
    single-request volumes (a single request defines no rate).
    """
    n = len(trace)
    if n == 0:
        return 0.0
    if n == 1:
        return 0.0
    duration = trace.duration
    if duration <= 0:
        return float("inf")
    return n / duration


def peak_intensity(trace: VolumeTrace, interval: float = DEFAULT_PEAK_INTERVAL) -> float:
    """Peak intensity in req/s: max requests in any ``interval``-second
    window, normalized to per-second."""
    if len(trace) == 0:
        return 0.0
    return max_interval_count(trace.timestamps, interval) / interval


def burstiness_ratio(trace: VolumeTrace, interval: float = DEFAULT_PEAK_INTERVAL) -> float:
    """Peak-to-average intensity ratio (Finding 2).

    Undefined (NaN) for volumes whose average intensity is zero or
    infinite.
    """
    return _burstiness(peak_intensity(trace, interval), average_intensity(trace))


def _burstiness(peak: float, average: float) -> float:
    if average <= 0 or not np.isfinite(average):
        return float("nan")
    return peak / average


@dataclass(frozen=True)
class OverallIntensity:
    """Fleet-level intensity summary (paper Table II)."""

    peak_req_per_s: float
    average_req_per_s: float

    @property
    def burstiness_ratio(self) -> float:
        if self.average_req_per_s <= 0:
            return float("nan")
        return self.peak_req_per_s / self.average_req_per_s


def overall_intensity(
    dataset: TraceDataset, interval: float = DEFAULT_PEAK_INTERVAL
) -> OverallIntensity:
    """Aggregate all volumes' requests into one stream and measure its
    average and peak intensity (Table II)."""
    all_ts = [v.timestamps for v in dataset.non_empty_volumes()]
    if not all_ts:
        raise ValueError("dataset has no requests")
    merged = np.sort(np.concatenate(all_ts))
    duration = merged[-1] - merged[0]
    avg = len(merged) / duration if duration > 0 else float("inf")
    peak = max_interval_count(merged, interval) / interval
    return OverallIntensity(peak_req_per_s=float(peak), average_req_per_s=float(avg))


def interarrival_times(trace: VolumeTrace) -> np.ndarray:
    """Elapsed times between adjacent requests of the volume (seconds)."""
    if len(trace) < 2:
        return np.array([], dtype=np.float64)
    return np.diff(trace.timestamps)


def interarrival_percentile_groups(
    dataset: TraceDataset, percentiles: Sequence[float] = PAPER_PERCENTILES
) -> Dict[float, np.ndarray]:
    """Finding 4's data: for each percentile group, the array of per-volume
    inter-arrival-time percentiles across all volumes with >=2 requests."""
    samples = [interarrival_times(v) for v in dataset.volumes()]
    return percentile_groups(samples, percentiles)


def write_read_ratio(trace: VolumeTrace) -> float:
    """#writes / #reads; ``inf`` for volumes with writes but no reads and
    NaN for empty volumes."""
    r, w = trace.n_reads, trace.n_writes
    if r == 0 and w == 0:
        return float("nan")
    if r == 0:
        return float("inf")
    return w / r


def active_days(
    trace: VolumeTrace,
    t0: float,
    day_seconds: float = 86400.0,
    n_days: Optional[int] = None,
) -> int:
    """Number of days (from ``t0``) in which the volume has >=1 request."""
    if len(trace) == 0:
        return 0
    day_idx = np.floor((trace.timestamps - t0) / day_seconds).astype(np.int64)
    if n_days is not None:
        day_idx = day_idx[(day_idx >= 0) & (day_idx < n_days)]
    return len(np.unique(day_idx))


@dataclass(frozen=True)
class ActiveVolumeTimeseries:
    """Numbers of active / read-active / write-active volumes per interval
    (paper Figure 8)."""

    edges: np.ndarray
    active: np.ndarray
    read_active: np.ndarray
    write_active: np.ndarray

    @property
    def times(self) -> np.ndarray:
        """Interval start times."""
        return self.edges[:-1]

    @property
    def n_intervals(self) -> int:
        return len(self.active)


def active_volume_timeseries(
    dataset: TraceDataset, interval: float = DEFAULT_ACTIVITY_INTERVAL
) -> ActiveVolumeTimeseries:
    """Count, per interval, the volumes with >=1 request / read / write."""
    t0, t1 = dataset.start_time, dataset.end_time
    edges = bucket_edges(t0, t1, interval)
    n = len(edges) - 1
    active = np.zeros(n, dtype=np.int64)
    read_active = np.zeros(n, dtype=np.int64)
    write_active = np.zeros(n, dtype=np.int64)
    for trace in dataset.volumes():
        if len(trace) == 0:
            continue
        # A volume's requests lie in the dataset's [t0, t1] in time order,
        # so their bucket indices need no range filter and never decrease.
        idx = bucket_index(trace.timestamps, interval, t0, t1)
        active[distinct_sorted(idx)] += 1
        read_active[distinct_sorted(idx[~trace.is_write])] += 1
        write_active[distinct_sorted(idx[trace.is_write])] += 1
    return ActiveVolumeTimeseries(edges, active, read_active, write_active)


def active_period_seconds(
    trace: VolumeTrace,
    t0: float,
    t1: float,
    interval: float = DEFAULT_ACTIVITY_INTERVAL,
    op: Optional[str] = None,
) -> float:
    """Total active time: (#intervals with >=1 request) x interval length.

    ``op`` restricts to ``"read"``-active or ``"write"``-active time; the
    default counts any request (paper Figure 9).
    """
    if op == "read":
        ts = trace.timestamps[~trace.is_write]
    elif op == "write":
        ts = trace.timestamps[trace.is_write]
    elif op is None:
        ts = trace.timestamps
    else:
        raise ValueError(f"op must be None, 'read', or 'write', got {op!r}")
    return float(len(active_buckets(ts, interval, t0, t1))) * interval


def active_fractions(
    dataset: TraceDataset,
    origin: float,
    interval: float = DEFAULT_ACTIVITY_INTERVAL,
    op: Optional[str] = None,
) -> np.ndarray:
    """Per volume, in dataset order, the share of ``[origin, dataset end]``
    it is (``op``-)active, by :func:`active_period_seconds` (Figure 9,
    Finding 5); spans shorter than one interval count as one interval."""
    end = dataset.end_time
    span = max(end - origin, interval)
    return np.array(
        [active_period_seconds(v, origin, end, interval, op) / span for v in dataset.volumes()]
    )
