"""Write-back cache simulation with dirty-block tracking.

The paper's cache-efficiency discussion (Findings 12-13) argues that
because written blocks are quickly rewritten (short WAW times) while the
next read is far away (long RAW times), a write-back cache can *absorb*
a large share of write traffic: an overwrite of a still-dirty block never
reaches primary storage.  Griffin [24] builds exactly this.  This module
simulates an LRU write-back cache and accounts:

* write absorption — overwrites of dirty resident blocks,
* destages — dirty evictions (writes that do reach primary storage),
* read hits/misses against the same unified cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


from ..trace.blocks import block_view
from ..trace.dataset import VolumeTrace
from ..trace.record import DEFAULT_BLOCK_SIZE

__all__ = ["WriteBackStats", "WriteBackCache", "simulate_writeback"]


@dataclass(frozen=True)
class WriteBackStats:
    """Accounting of one write-back simulation."""

    capacity_blocks: int
    n_reads: int
    n_writes: int
    read_hits: int
    #: writes that overwrote an already-dirty resident block
    absorbed_writes: int
    #: dirty blocks evicted (or flushed) to primary storage
    destages: int
    #: clean evictions (dropped without I/O)
    clean_evictions: int

    @property
    def write_absorption_ratio(self) -> float:
        """Fraction of writes that never reached primary storage as
        separate destages: 1 - destages/writes."""
        if self.n_writes == 0:
            return float("nan")
        return 1.0 - self.destages / self.n_writes

    @property
    def read_hit_ratio(self) -> float:
        if self.n_reads == 0:
            return float("nan")
        return self.read_hits / self.n_reads


class WriteBackCache:
    """LRU cache with dirty bits and explicit destage accounting.

    Reads admit clean blocks; writes admit (or re-dirty) blocks.  A dirty
    block evicted by LRU counts as one destage; overwriting a dirty block
    absorbs the earlier write entirely.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._resident: "OrderedDict[int, bool]" = OrderedDict()  # block -> dirty
        self.read_hits = 0
        self.n_reads = 0
        self.n_writes = 0
        self.absorbed_writes = 0
        self.destages = 0
        self.clean_evictions = 0

    def _evict_one(self) -> None:
        block, dirty = self._resident.popitem(last=False)
        if dirty:
            self.destages += 1
        else:
            self.clean_evictions += 1

    def read(self, block: int) -> bool:
        """Read one block; returns True on hit."""
        self.n_reads += 1
        if block in self._resident:
            self._resident.move_to_end(block)
            self.read_hits += 1
            return True
        if len(self._resident) >= self.capacity:
            self._evict_one()
        self._resident[block] = False
        return False

    def write(self, block: int) -> bool:
        """Write one block; returns True if the write was absorbed
        (the block was already dirty in cache)."""
        self.n_writes += 1
        dirty = self._resident.get(block)
        if dirty is not None:
            self._resident.move_to_end(block)
            self._resident[block] = True
            if dirty:
                self.absorbed_writes += 1
                return True
            return False
        if len(self._resident) >= self.capacity:
            self._evict_one()
        self._resident[block] = True
        return False

    def flush(self) -> int:
        """Destage all remaining dirty blocks; returns how many."""
        flushed = sum(1 for dirty in self._resident.values() if dirty)
        self.destages += flushed
        for block in list(self._resident):
            self._resident[block] = False
        return flushed

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, block: int) -> bool:
        return block in self._resident

    def dirty_count(self) -> int:
        return sum(1 for dirty in self._resident.values() if dirty)

    def stats(self) -> WriteBackStats:
        return WriteBackStats(
            capacity_blocks=self.capacity,
            n_reads=self.n_reads,
            n_writes=self.n_writes,
            read_hits=self.read_hits,
            absorbed_writes=self.absorbed_writes,
            destages=self.destages,
            clean_evictions=self.clean_evictions,
        )


def simulate_writeback(
    trace: VolumeTrace,
    capacity_blocks: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    flush_at_end: bool = True,
) -> WriteBackStats:
    """Run one volume's block accesses through a write-back cache.

    With ``flush_at_end`` the remaining dirty blocks are destaged, so the
    absorption ratio reflects steady-state behaviour rather than dirty
    data parked in cache.
    """
    view = block_view(trace, block_size)
    cache = WriteBackCache(capacity_blocks)
    for block, is_write in zip(view.block_id.tolist(), view.is_write.tolist()):
        if is_write:
            cache.write(block)
        else:
            cache.read(block)
    if flush_at_end:
        cache.flush()
    return cache.stats()
