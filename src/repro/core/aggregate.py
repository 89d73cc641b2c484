"""Fleet-level aggregate statistics (paper Section III-C, Table I, Figs 2-4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..stats.cdf import EmpiricalCDF
from ..trace.blocks import BlockView, block_view
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .load_intensity import active_days, write_read_ratio
from .spatial import WorkingSets, _working_sets

__all__ = [
    "BasicStatistics",
    "basic_statistics",
    "request_size_cdf",
    "volume_mean_size_cdf",
    "active_days_cdf",
    "write_read_ratio_cdf",
    "TIB",
]

#: Bytes per tebibyte, the unit of Table I's traffic and WSS rows.
TIB = 1024**4


@dataclass(frozen=True)
class BasicStatistics:
    """The rows of the paper's Table I for one dataset."""

    name: str
    n_volumes: int
    duration_days: float
    n_reads_millions: float
    n_writes_millions: float
    read_traffic_tib: float
    write_traffic_tib: float
    update_traffic_tib: float
    wss_total_tib: float
    wss_read_tib: float
    wss_write_tib: float
    wss_update_tib: float

    @property
    def n_requests_millions(self) -> float:
        return self.n_reads_millions + self.n_writes_millions

    @property
    def write_read_request_ratio(self) -> float:
        if self.n_reads_millions == 0:
            return float("inf")
        return self.n_writes_millions / self.n_reads_millions

    @property
    def read_wss_fraction(self) -> float:
        """Fraction of the total WSS touched by reads (paper: 34.3% vs 98.4%)."""
        return self.wss_read_tib / self.wss_total_tib if self.wss_total_tib else float("nan")

    @property
    def write_wss_fraction(self) -> float:
        return self.wss_write_tib / self.wss_total_tib if self.wss_total_tib else float("nan")


def basic_statistics(
    dataset: TraceDataset,
    block_size: int = DEFAULT_BLOCK_SIZE,
    duration_days: Optional[float] = None,
    workers: int = 1,
) -> BasicStatistics:
    """Compute Table I for a dataset.

    *Update traffic* is the write traffic to blocks after their first
    write (re-writes); WSS rows count distinct 4 KiB blocks.  The trace
    duration defaults to the observed span rounded up to whole days.
    ``workers > 1`` fans the per-volume block views across a process
    pool; the result is identical for every worker count.
    """
    from ..engine.runner import parallel_map

    per_volume = parallel_map(
        _table1_blocks,
        dataset.non_empty_volumes(),
        workers,
        block_size=block_size,
    )
    return _basic_statistics(dataset, per_volume, duration_days)


def _table1_blocks(trace: VolumeTrace, block_size: int) -> Tuple[WorkingSets, int]:
    """Working sets and update-traffic bytes of one volume."""
    view = block_view(trace, block_size)
    return _working_sets(view), _update_traffic(view)


def _update_traffic(view: BlockView) -> int:
    """Write bytes to each block after its first write."""
    _, later = view.write_pairs
    return int(view.nbytes[later].sum(dtype=np.int64))


def _basic_statistics(
    dataset: TraceDataset,
    per_volume: Iterable[Tuple[WorkingSets, int]],
    duration_days: Optional[float],
) -> BasicStatistics:
    """Table I from each volume's working sets and update traffic."""
    wss_total = wss_read = wss_write = wss_update = 0
    update_traffic = 0
    for ws, upd in per_volume:
        wss_total += ws.total
        wss_read += ws.read
        wss_write += ws.write
        wss_update += ws.update
        update_traffic += upd
    if duration_days is None:
        try:
            duration_days = float(np.ceil(dataset.duration / 86400.0))
        except ValueError:
            duration_days = 0.0
    return BasicStatistics(
        name=dataset.name,
        n_volumes=dataset.n_volumes,
        duration_days=duration_days,
        n_reads_millions=dataset.n_reads / 1e6,
        n_writes_millions=dataset.n_writes / 1e6,
        read_traffic_tib=dataset.read_bytes / TIB,
        write_traffic_tib=dataset.write_bytes / TIB,
        update_traffic_tib=update_traffic / TIB,
        wss_total_tib=wss_total / TIB,
        wss_read_tib=wss_read / TIB,
        wss_write_tib=wss_write / TIB,
        wss_update_tib=wss_update / TIB,
    )


def request_size_cdf(dataset: TraceDataset, op: Optional[str] = None) -> EmpiricalCDF:
    """CDF of request sizes across all requests (paper Figure 2(a)).

    ``op`` restricts to ``"read"`` or ``"write"`` requests.
    """
    parts: List[np.ndarray] = []
    for trace in dataset.volumes():
        if op == "read":
            parts.append(trace.sizes[~trace.is_write])
        elif op == "write":
            parts.append(trace.sizes[trace.is_write])
        elif op is None:
            parts.append(trace.sizes)
        else:
            raise ValueError(f"op must be None, 'read', or 'write', got {op!r}")
    sizes = np.concatenate([p for p in parts if len(p)]) if any(len(p) for p in parts) else None
    if sizes is None:
        raise ValueError("dataset has no matching requests")
    return EmpiricalCDF(sizes)


def volume_mean_size_cdf(dataset: TraceDataset, op: Optional[str] = None) -> EmpiricalCDF:
    """CDF of per-volume average request sizes (paper Figure 2(b))."""
    means: List[float] = []
    for trace in dataset.volumes():
        if op == "read":
            sizes = trace.sizes[~trace.is_write]
        elif op == "write":
            sizes = trace.sizes[trace.is_write]
        elif op is None:
            sizes = trace.sizes
        else:
            raise ValueError(f"op must be None, 'read', or 'write', got {op!r}")
        if len(sizes):
            means.append(float(sizes.mean()))
    if not means:
        raise ValueError("dataset has no matching requests")
    return EmpiricalCDF(means)


def active_days_cdf(
    dataset: TraceDataset, day_seconds: float = 86400.0, origin: Optional[float] = None
) -> EmpiricalCDF:
    """CDF of per-volume active-day counts (paper Figure 3).

    Volumes with no requests count as zero active days.
    """
    t0 = dataset.start_time if origin is None else origin
    counts = [active_days(v, t0, day_seconds) for v in dataset.volumes()]
    return EmpiricalCDF(counts)


def write_read_ratio_cdf(dataset: TraceDataset) -> EmpiricalCDF:
    """CDF of per-volume write-to-read ratios (paper Figure 4).

    Read-free volumes have infinite ratio; to keep the CDF finite they are
    clamped to one order of magnitude above the largest finite ratio, which
    preserves every threshold comparison the paper makes (>1, >100).
    """
    return _ratio_cdf([write_read_ratio(v) for v in dataset.volumes()])


def _ratio_cdf(ratios: List[float]) -> EmpiricalCDF:
    """:func:`write_read_ratio_cdf` of per-volume ratios (NaN for empty)."""
    finite = [r for r in ratios if np.isfinite(r)]
    cap = (max(finite) if finite else 1.0) * 10
    cleaned = [cap if np.isinf(r) else r for r in ratios if not np.isnan(r)]
    if not cleaned:
        raise ValueError("dataset has no non-empty volumes")
    return EmpiricalCDF(cleaned)
