"""LRU caching analysis (paper Finding 15).

For each volume, simulate a unified read+write LRU cache sized to a
fraction of the volume's working set and report per-op miss ratios.  LRU
results at every size come from one reuse-distance pass per volume; other
policies replay the stream once per size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

from ..cache.base import CachePolicy
from ..cache.lru import LRUCache
from ..cache.reuse import _reaccess_distances
from ..cache.simulator import CacheSimResult, _lru_result, simulate_stream
from ..trace.blocks import BlockView, block_view
from ..trace.dataset import TraceDataset, VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = [
    "DEFAULT_CACHE_FRACTIONS",
    "VolumeCacheResult",
    "volume_miss_ratios",
    "dataset_miss_ratios",
    "MissRatioSummary",
]

#: WSS fractions the paper evaluates (1% and 10%).
DEFAULT_CACHE_FRACTIONS = (0.01, 0.10)


@dataclass(frozen=True)
class VolumeCacheResult:
    """Miss ratios of one volume at one cache size."""

    volume_id: str
    cache_fraction: float
    capacity_blocks: int
    result: CacheSimResult

    @property
    def read_miss_ratio(self) -> float:
        return self.result.read_miss_ratio

    @property
    def write_miss_ratio(self) -> float:
        return self.result.write_miss_ratio


def volume_miss_ratios(
    trace: VolumeTrace,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    block_size: int = DEFAULT_BLOCK_SIZE,
    policy_factory: Callable[[int], CachePolicy] = LRUCache,
) -> List[VolumeCacheResult]:
    """Simulate caches sized to fractions of the volume's WSS.

    The block view is shared across cache sizes; capacity is
    ``max(1, round(fraction * WSS_blocks))``.  For :class:`LRUCache` the
    reuse distances are shared too.
    """
    return _miss_ratios(
        block_view(trace, block_size), trace.volume_id, cache_fractions, policy_factory
    )


def _miss_ratios(
    view: BlockView,
    volume_id: str,
    cache_fractions: Sequence[float],
    policy_factory: Callable[[int], CachePolicy] = LRUCache,
) -> List[VolumeCacheResult]:
    lru = policy_factory is LRUCache
    wss_blocks = len(view.run_starts)
    if lru and wss_blocks:
        # The LRU step is the view's last: it releases the pairs, the order
        # and the previous positions, and keeps no full-length distances.
        previous = view.previous
        view.drop("pairs", "order", "previous")
        reaccess = previous >= 0
        gap = previous[reaccess]
        del previous
        reaccess_writes = view.is_write[reaccess]
        distances = _reaccess_distances(reaccess, gap)
        n_writes = int(np.count_nonzero(view.is_write))
    out: List[VolumeCacheResult] = []
    for frac in cache_fractions:
        if not 0 < frac <= 1:
            raise ValueError(f"cache fraction must be in (0, 1], got {frac}")
        if wss_blocks == 0:
            continue
        capacity = max(1, int(round(frac * wss_blocks)))
        if lru:
            result = _lru_result(
                distances, reaccess_writes, capacity, len(view), n_writes, wss_blocks
            )
        else:
            result = simulate_stream(view.block_id, view.is_write, policy_factory(capacity))
        out.append(
            VolumeCacheResult(
                volume_id=volume_id,
                cache_fraction=frac,
                capacity_blocks=capacity,
                result=result,
            )
        )
    return out


@dataclass(frozen=True)
class MissRatioSummary:
    """Per-op miss-ratio samples across a fleet, keyed by cache fraction."""

    read: Dict[float, np.ndarray]
    write: Dict[float, np.ndarray]

    def fractions(self) -> List[float]:
        return sorted(self.read)


def dataset_miss_ratios(
    dataset: TraceDataset,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    block_size: int = DEFAULT_BLOCK_SIZE,
    policy_factory: Callable[[int], CachePolicy] = LRUCache,
) -> MissRatioSummary:
    """Per-volume miss ratios across the fleet (paper Figure 18 data).

    Volumes without reads (writes) contribute no sample to the read
    (write) distribution at that cache size.
    """
    return _pool_miss_ratios(
        (volume_miss_ratios(v, cache_fractions, block_size, policy_factory)
         for v in dataset.non_empty_volumes()),
        cache_fractions,
    )


def _pool_miss_ratios(
    parts: Iterable[List[VolumeCacheResult]], cache_fractions: Sequence[float]
) -> MissRatioSummary:
    """Per-op miss-ratio samples from per-volume results, in volume order."""
    read: Dict[float, List[float]] = {float(f): [] for f in cache_fractions}
    write: Dict[float, List[float]] = {float(f): [] for f in cache_fractions}
    for results in parts:
        for res in results:
            if res.result.n_reads:
                read[res.cache_fraction].append(res.read_miss_ratio)
            if res.result.n_writes:
                write[res.cache_fraction].append(res.write_miss_ratio)
    return MissRatioSummary(
        read={f: np.asarray(v) for f, v in read.items()},
        write={f: np.asarray(v) for f, v in write.items()},
    )
