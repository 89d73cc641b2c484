"""Registry of the cache replacement policies by name."""

from __future__ import annotations

from typing import Dict, Type

from .arc import ARCCache
from .base import CachePolicy
from .clock import ClockCache
from .fifo import FIFOCache
from .lfu import LFUCache
from .lru import LRUCache
from .twoq import TwoQCache

__all__ = ["POLICIES"]

#: Registry of available policy classes by name.
POLICIES: Dict[str, Type[CachePolicy]] = {
    cls.name: cls
    for cls in (LRUCache, FIFOCache, LFUCache, ClockCache, ARCCache, TwoQCache)
}
