"""Per-volume characterization profiles: the one per-volume record.

:func:`compute_profile` builds a :class:`VolumeProfile` from one block
view.  Its scalar fields are what ``repro analyze`` reports; its pooled
fields are what fleet statistics pool.  ``evaluate_findings``,
``render_experiments`` and ``compare_datasets`` reduce lists of profiles.

Only volume-local values go in the profile.  These statistics need the
merged request stream or a fleet-anchored time grid, so they stay
passes over the dataset: ``overall_intensity`` (Table II, Finding 2),
``active_volume_timeseries`` (Fig. 8, Findings 6-7), ``active_fractions``
(Fig. 9, Finding 5), ``active_days`` (Fig. 3) and the request-size CDFs
(Fig. 2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from ..stats.quantiles import PAPER_PERCENTILES
from ..trace.blocks import block_view
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .aggregate import _update_traffic
from .cache_analysis import DEFAULT_CACHE_FRACTIONS, VolumeCacheResult, _miss_ratios
from .load_intensity import (
    DEFAULT_PEAK_INTERVAL,
    _burstiness,
    average_intensity,
    peak_intensity,
    write_read_ratio,
)
from .spatial import MOSTLY_THRESHOLD, WorkingSets, randomness_ratio
from .spatial import _mostly_bytes, _pool_mostly, _topk_fraction, _working_sets
from .temporal import AdjacentAccessTimes, _transitions, _update_intervals

__all__ = ["VolumeProfile", "compute_profile"]


#: The scalar metrics, in ``repro analyze``'s key order.
_REPORTED = """volume_id n_requests n_reads n_writes read_bytes write_bytes duration_seconds
average_intensity peak_intensity burstiness_ratio write_read_ratio randomness_ratio
working_sets update_coverage top1_read_traffic top10_read_traffic top1_write_traffic
top10_write_traffic read_to_read_mostly write_to_write_mostly median_raw_time median_waw_time
median_rar_time median_war_time median_update_interval read_miss_ratio_1pct
write_miss_ratio_1pct read_miss_ratio_10pct write_miss_ratio_10pct""".split()


def _median_or_nan(values: np.ndarray, overwrite_input: bool = False) -> float:
    """The median, NaN when empty; ``overwrite_input`` lets it reorder ``values``."""
    return float(np.median(values, overwrite_input=overwrite_input)) if len(values) else np.nan


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
    # Caching (LRU at 1% and 10% of WSS).
    read_miss_ratio_1pct: float
    write_miss_ratio_1pct: float
    read_miss_ratio_10pct: float
    write_miss_ratio_10pct: float
    # Pooled by fleet reductions, and left out of to_dict, repr and ==:
    # update traffic; read bytes to read-mostly blocks, write bytes to
    # write-mostly blocks, read and write bytes; LRU results at each cache
    # fraction; inter-arrival percentiles (empty below two requests).
    update_traffic: int = field(repr=False, compare=False)
    mostly_bytes: Tuple[int, int, int, int] = field(repr=False, compare=False)
    transitions: AdjacentAccessTimes = field(repr=False, compare=False)
    update_intervals: np.ndarray = field(repr=False, compare=False)
    miss_ratios: List[VolumeCacheResult] = field(repr=False, compare=False)
    interarrival_percentiles: np.ndarray = field(repr=False, compare=False)

    # Temporal patterns, from the pooled arrays on access: the fleet
    # reductions never read them.
    median_raw_time = property(lambda self: _median_or_nan(self.transitions.raw))
    median_waw_time = property(lambda self: _median_or_nan(self.transitions.waw))
    median_rar_time = property(lambda self: _median_or_nan(self.transitions.rar))
    median_war_time = property(lambda self: _median_or_nan(self.transitions.war))
    median_update_interval = property(lambda self: _median_or_nan(self.update_intervals))

    @property
    def is_write_dominant(self) -> bool:
        """Write-to-read ratio exceeds 1 (paper Section III-C)."""
        return self.write_read_ratio > 1

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-serializable dict of the scalar fields (NaN preserved as
        float); the pooled fields are left out, not copied."""
        d = {name: getattr(self, name) for name in _REPORTED}
        d["working_sets"] = asdict(self.working_sets)
        return d


def compute_profile(
    trace: VolumeTrace,
    block_size: int = DEFAULT_BLOCK_SIZE,
    peak_interval: float = DEFAULT_PEAK_INTERVAL,
) -> VolumeProfile:
    """Compute the full characterization profile of one volume from one
    block view; ``peak_interval`` is the peak-intensity window."""
    # Request-level passes first: their temporaries never coexist with the view.
    average = average_intensity(trace)
    peak = peak_intensity(trace, peak_interval)
    randomness = randomness_ratio(trace)
    interarrival = (
        np.percentile(np.diff(trace.timestamps), PAPER_PERCENTILES)
        if len(trace) > 1
        else np.array([], dtype=np.float64)
    )
    view = block_view(trace, block_size)
    # Per-block sums, then write pairs, then all pairs, then LRU: each
    # derivation is dropped before the next large one is built.
    working_sets = _working_sets(view)
    mostly_bytes = _mostly_bytes(view, MOSTLY_THRESHOLD)
    top = [_topk_fraction(t, k) for t in view.traffic for k in (0.01, 0.10)]
    view.drop("traffic", "access_counts")
    update_traffic = _update_traffic(view)
    intervals = _update_intervals(view)
    view.drop("write_pairs")
    at = _transitions(view)
    miss_ratios = _miss_ratios(view, trace.volume_id, DEFAULT_CACHE_FRACTIONS)
    mostly = _pool_mostly([mostly_bytes])
    miss = {r.cache_fraction: (r.read_miss_ratio, r.write_miss_ratio) for r in miss_ratios}
    read_1, write_1 = miss.get(0.01, (float("nan"),) * 2)
    read_10, write_10 = miss.get(0.10, (float("nan"),) * 2)
    return VolumeProfile(
        volume_id=trace.volume_id,
        n_requests=len(trace),
        n_reads=trace.n_reads,
        n_writes=trace.n_writes,
        read_bytes=trace.read_bytes,
        write_bytes=trace.write_bytes,
        duration_seconds=trace.duration if len(trace) else 0.0,
        average_intensity=average,
        peak_intensity=peak,
        burstiness_ratio=_burstiness(peak, average),
        write_read_ratio=write_read_ratio(trace),
        randomness_ratio=randomness,
        working_sets=working_sets,
        update_coverage=working_sets.update_coverage,
        top1_read_traffic=top[0],
        top10_read_traffic=top[1],
        top1_write_traffic=top[2],
        top10_write_traffic=top[3],
        read_to_read_mostly=mostly.read_to_read_mostly,
        write_to_write_mostly=mostly.write_to_write_mostly,
        read_miss_ratio_1pct=read_1,
        write_miss_ratio_1pct=write_1,
        read_miss_ratio_10pct=read_10,
        write_miss_ratio_10pct=write_10,
        update_traffic=update_traffic,
        mostly_bytes=mostly_bytes,
        transitions=at,
        update_intervals=intervals,
        miss_ratios=miss_ratios,
        interarrival_percentiles=interarrival,
    )


def _finite(values: Iterable[float]) -> np.ndarray:
    """The finite values, in order, as a float array."""
    arr = np.asarray(list(values), dtype=np.float64)
    return arr[np.isfinite(arr)]


def _interarrival_groups(profiles: Iterable[VolumeProfile]) -> Dict[float, np.ndarray]:
    """``interarrival_percentile_groups`` at :data:`PAPER_PERCENTILES`, from
    profiles (Fig. 7, Finding 4)."""
    rows = [p.interarrival_percentiles for p in profiles if len(p.interarrival_percentiles)]
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(PAPER_PERCENTILES))
    return {float(p): table[:, i] for i, p in enumerate(PAPER_PERCENTILES)}
