"""Block cache simulation: policies, trace-driven simulator, MRC tools."""

from .admission import BlockTypeTracker, TypeAwareAdmissionCache
from .arc import ARCCache
from .base import CachePolicy
from .clock import ClockCache
from .fifo import FIFOCache
from .lfu import LFUCache
from .lru import LRUCache
from .mrc import MissRatioCurve, mrc_from_distances, mrc_from_stream
from .reuse import INFINITE_DISTANCE, reuse_distances
from .shards import shards_mrc, shards_sample_mask
from .simulator import CacheSimResult, simulate_lru, simulate_stream, simulate_trace
from .twoq import TwoQCache
from .writeback import WriteBackCache, WriteBackStats, simulate_writeback

#: Registry of available policy classes by name.
POLICIES = {
    cls.name: cls
    for cls in (LRUCache, FIFOCache, LFUCache, ClockCache, ARCCache, TwoQCache)
}

__all__ = [
    "CachePolicy",
    "LRUCache",
    "FIFOCache",
    "LFUCache",
    "ClockCache",
    "ARCCache",
    "TwoQCache",
    "POLICIES",
    "CacheSimResult",
    "simulate_trace",
    "simulate_stream",
    "simulate_lru",
    "reuse_distances",
    "INFINITE_DISTANCE",
    "MissRatioCurve",
    "mrc_from_distances",
    "mrc_from_stream",
    "shards_mrc",
    "shards_sample_mask",
    "WriteBackCache",
    "WriteBackStats",
    "simulate_writeback",
    "BlockTypeTracker",
    "TypeAwareAdmissionCache",
]
