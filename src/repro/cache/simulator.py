"""Trace-driven cache simulation.

Drives a volume's block-level access stream through a
:class:`~repro.cache.base.CachePolicy` and accounts hits and misses
separately for reads and writes, matching the paper's Finding 15 setup
(unified read+write cache, per-op miss ratios).  For LRU the same
accounting follows from precomputed reuse distances without a replay
(:func:`simulate_lru`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import metrics
from ..obs.tracing import span
from ..trace.blocks import block_view
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from .base import CachePolicy
from .lru import LRUCache
from .reuse import INFINITE_DISTANCE

__all__ = ["CacheSimResult", "simulate_trace", "simulate_stream", "simulate_lru"]


@dataclass(frozen=True)
class CacheSimResult:
    """Hit/miss accounting of one simulation run."""

    policy: str
    capacity_blocks: int
    read_hits: int
    read_misses: int
    write_hits: int
    write_misses: int

    @property
    def n_reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def n_writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def n_accesses(self) -> int:
        return self.n_reads + self.n_writes

    @property
    def read_miss_ratio(self) -> float:
        return self.read_misses / self.n_reads if self.n_reads else float("nan")

    @property
    def write_miss_ratio(self) -> float:
        return self.write_misses / self.n_writes if self.n_writes else float("nan")

    @property
    def miss_ratio(self) -> float:
        total = self.n_accesses
        return (self.read_misses + self.write_misses) / total if total else float("nan")

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio


def simulate_stream(
    blocks: np.ndarray, is_write: np.ndarray, policy: CachePolicy
) -> CacheSimResult:
    """Run a (block id, op) access stream through a policy instance.

    Hit/miss/eviction totals accumulate into the current metrics registry
    (``cache.hits`` / ``cache.misses`` / ``cache.evictions``).  Evictions
    are inferred as misses minus cache growth — exact for admit-on-miss
    policies, an upper bound when an admission filter rejects blocks.
    """
    read_hits = read_misses = write_hits = write_misses = 0
    resident_before = len(policy)
    access = policy.access
    with span("cache_simulate"):
        for block, w in zip(blocks.tolist(), is_write.tolist()):
            hit = access(block, w)
            if w:
                if hit:
                    write_hits += 1
                else:
                    write_misses += 1
            else:
                if hit:
                    read_hits += 1
                else:
                    read_misses += 1
    result = CacheSimResult(
        policy=policy.name,
        capacity_blocks=policy.capacity,
        read_hits=read_hits,
        read_misses=read_misses,
        write_hits=write_hits,
        write_misses=write_misses,
    )
    _count(result, len(policy) - resident_before)
    return result


def simulate_lru(
    distances: np.ndarray, is_write: np.ndarray, capacity: int
) -> CacheSimResult:
    """LRU accounting of a stream from its reuse distances.

    ``distances`` is :func:`~repro.cache.reuse.reuse_distances` of the
    block stream; an access hits a cold LRU cache of ``capacity`` blocks
    exactly when its distance is in ``[0, capacity)``.  Result and
    ``cache.*`` counters equal ``simulate_stream(blocks, is_write,
    LRUCache(capacity))``.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    is_write = np.asarray(is_write, dtype=bool)
    with span("cache_simulate"):
        hit = (distances >= 0) & (distances < capacity)
        n_writes = int(np.count_nonzero(is_write))
        write_hits = int(np.count_nonzero(hit & is_write))
        read_hits = int(np.count_nonzero(hit)) - write_hits
        distinct = int(np.count_nonzero(distances == INFINITE_DISTANCE))
    result = CacheSimResult(
        policy=LRUCache.name,
        capacity_blocks=capacity,
        read_hits=read_hits,
        read_misses=len(distances) - n_writes - read_hits,
        write_hits=write_hits,
        write_misses=n_writes - write_hits,
    )
    _count(result, min(capacity, distinct))
    return result


def _count(result: CacheSimResult, growth: int) -> None:
    """Add a run's totals to the ``cache.*`` counters; evictions are the
    misses that did not grow the cache."""
    reg = metrics.get_registry()
    misses = result.read_misses + result.write_misses
    reg.counter("cache.accesses").inc(result.n_accesses)
    reg.counter("cache.hits").inc(result.read_hits + result.write_hits)
    reg.counter("cache.misses").inc(misses)
    reg.counter("cache.evictions").inc(max(0, misses - growth))


def simulate_trace(
    trace: VolumeTrace,
    policy_factory: Callable[[int], CachePolicy],
    capacity_blocks: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> CacheSimResult:
    """Simulate a fresh cache over one volume's block access stream.

    The trace is expanded to per-block accesses in arrival order (a request
    spanning k blocks produces k accesses); the policy starts cold.
    """
    view = block_view(trace, block_size)
    return simulate_stream(view.block_id, view.is_write, policy_factory(capacity_blocks))
