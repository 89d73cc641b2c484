"""Block cache simulation: policies, trace-driven simulator, MRC tools."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .admission import BlockTypeTracker, TypeAwareAdmissionCache
    from .arc import ARCCache
    from .base import CachePolicy
    from .clock import ClockCache
    from .fifo import FIFOCache
    from .lfu import LFUCache
    from .lru import LRUCache
    from .mrc import MissRatioCurve, mrc_from_distances, mrc_from_stream
    from .policies import POLICIES
    from .reuse import INFINITE_DISTANCE, reuse_distances
    from .shards import shards_mrc, shards_sample_mask
    from .simulator import CacheSimResult, simulate_lru, simulate_stream, simulate_trace
    from .twoq import TwoQCache
    from .writeback import WriteBackCache, WriteBackStats, simulate_writeback

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".admission": ("BlockTypeTracker", "TypeAwareAdmissionCache"),
    ".arc": ("ARCCache",),
    ".base": ("CachePolicy",),
    ".clock": ("ClockCache",),
    ".fifo": ("FIFOCache",),
    ".lfu": ("LFUCache",),
    ".lru": ("LRUCache",),
    ".mrc": ("MissRatioCurve", "mrc_from_distances", "mrc_from_stream"),
    ".policies": ("POLICIES",),
    ".reuse": ("INFINITE_DISTANCE", "reuse_distances"),
    ".shards": ("shards_mrc", "shards_sample_mask"),
    ".simulator": (
        "CacheSimResult", "simulate_lru", "simulate_stream", "simulate_trace",
    ),
    ".twoq": ("TwoQCache",),
    ".writeback": ("WriteBackCache", "WriteBackStats", "simulate_writeback"),
})
