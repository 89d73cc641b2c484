"""Per-volume characterization profiles.

A :class:`VolumeProfile` bundles every per-volume metric the paper uses,
so examples, the CLI, and downstream tooling can characterize a volume in
one call and serialize the result.  Its block-level part comes from a
:class:`BlockSummary`: every block metric of the volume, reduced from one
block view, which the fleet-level findings and experiments pool too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from ..trace.blocks import block_view
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .aggregate import _update_traffic
from .cache_analysis import DEFAULT_CACHE_FRACTIONS, VolumeCacheResult, _miss_ratios
from .load_intensity import average_intensity, burstiness_ratio, peak_intensity, write_read_ratio
from .spatial import MOSTLY_THRESHOLD, WorkingSets, randomness_ratio
from .spatial import _mostly_bytes, _pool_mostly, _topk_fraction, _working_sets
from .temporal import AdjacentAccessTimes, _transitions, _update_intervals

__all__ = ["BlockSummary", "summarize_blocks", "VolumeProfile", "compute_profile"]


@dataclass(frozen=True)
class BlockSummary:
    """Every block-level metric of one volume (Findings 9-15, Tables I and
    III-VI), reduced from its block view.

    ``top_traffic`` maps ``(op, fraction)`` to the share of the op's
    traffic in its hottest 1% and 10% of blocks; ``mostly_bytes`` holds
    the read bytes to read-mostly blocks, the write bytes to write-mostly
    blocks, and the read and write bytes; ``miss_ratios`` are LRU results
    at :data:`DEFAULT_CACHE_FRACTIONS` of the WSS.
    """

    working_sets: WorkingSets
    update_traffic: int
    top_traffic: Dict[Tuple[str, float], float]
    mostly_bytes: Tuple[int, int, int, int]
    transitions: AdjacentAccessTimes
    update_intervals: np.ndarray
    miss_ratios: List[VolumeCacheResult]


def summarize_blocks(trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE) -> BlockSummary:
    """Every block metric of one volume from one block view, which is
    dropped on return."""
    view = block_view(trace, block_size)
    traffic = dict(zip(("read", "write"), view.traffic))
    return BlockSummary(
        working_sets=_working_sets(view),
        update_traffic=_update_traffic(view),
        top_traffic={
            (op, k): _topk_fraction(traffic[op], k) for op in traffic for k in (0.01, 0.10)
        },
        mostly_bytes=_mostly_bytes(view, MOSTLY_THRESHOLD),
        transitions=_transitions(view),
        update_intervals=_update_intervals(view),
        miss_ratios=_miss_ratios(view, trace.volume_id, DEFAULT_CACHE_FRACTIONS),
    )


@dataclass(frozen=True)
class VolumeProfile:
    """All per-volume metrics from the paper's three analysis axes."""

    volume_id: str
    n_requests: int
    n_reads: int
    n_writes: int
    read_bytes: int
    write_bytes: int
    duration_seconds: float
    # Load intensity.
    average_intensity: float
    peak_intensity: float
    burstiness_ratio: float
    write_read_ratio: float
    # Spatial patterns.
    randomness_ratio: float
    working_sets: WorkingSets
    update_coverage: float
    top1_read_traffic: float
    top10_read_traffic: float
    top1_write_traffic: float
    top10_write_traffic: float
    read_to_read_mostly: float
    write_to_write_mostly: float
    # Temporal patterns.
    median_raw_time: float
    median_waw_time: float
    median_rar_time: float
    median_war_time: float
    median_update_interval: float
    # Caching (LRU at 1% and 10% of WSS).
    read_miss_ratio_1pct: float
    write_miss_ratio_1pct: float
    read_miss_ratio_10pct: float
    write_miss_ratio_10pct: float

    @property
    def is_write_dominant(self) -> bool:
        """Write-to-read ratio exceeds 1 (paper Section III-C)."""
        return self.write_read_ratio > 1

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-serializable dict (NaN preserved as float)."""
        d = asdict(self)
        d["working_sets"] = asdict(self.working_sets)
        return d


def _median_or_nan(values: np.ndarray) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def compute_profile(
    trace: VolumeTrace, block_size: int = DEFAULT_BLOCK_SIZE
) -> VolumeProfile:
    """Compute the full characterization profile of one volume."""
    blocks = summarize_blocks(trace, block_size)
    at = blocks.transitions
    mostly = _pool_mostly([blocks.mostly_bytes])
    miss = {r.cache_fraction: r for r in blocks.miss_ratios}

    def miss_ratio(frac: float, op: str) -> float:
        res = miss.get(frac)
        if res is None:
            return float("nan")
        return res.read_miss_ratio if op == "read" else res.write_miss_ratio

    return VolumeProfile(
        volume_id=trace.volume_id,
        n_requests=len(trace),
        n_reads=trace.n_reads,
        n_writes=trace.n_writes,
        read_bytes=trace.read_bytes,
        write_bytes=trace.write_bytes,
        duration_seconds=trace.duration if len(trace) else 0.0,
        average_intensity=average_intensity(trace),
        peak_intensity=peak_intensity(trace),
        burstiness_ratio=burstiness_ratio(trace),
        write_read_ratio=write_read_ratio(trace),
        randomness_ratio=randomness_ratio(trace),
        working_sets=blocks.working_sets,
        update_coverage=blocks.working_sets.update_coverage,
        top1_read_traffic=blocks.top_traffic["read", 0.01],
        top10_read_traffic=blocks.top_traffic["read", 0.10],
        top1_write_traffic=blocks.top_traffic["write", 0.01],
        top10_write_traffic=blocks.top_traffic["write", 0.10],
        read_to_read_mostly=mostly.read_to_read_mostly,
        write_to_write_mostly=mostly.write_to_write_mostly,
        median_raw_time=_median_or_nan(at.raw),
        median_waw_time=_median_or_nan(at.waw),
        median_rar_time=_median_or_nan(at.rar),
        median_war_time=_median_or_nan(at.war),
        median_update_interval=_median_or_nan(blocks.update_intervals),
        read_miss_ratio_1pct=miss_ratio(0.01, "read"),
        write_miss_ratio_1pct=miss_ratio(0.01, "write"),
        read_miss_ratio_10pct=miss_ratio(0.10, "read"),
        write_miss_ratio_10pct=miss_ratio(0.10, "write"),
    )
