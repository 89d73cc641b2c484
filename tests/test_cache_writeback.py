"""Tests for repro.cache.writeback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import WriteBackCache, simulate_writeback

from conftest import make_trace

BS = 4096


class TestWriteBackCache:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            WriteBackCache(0)

    def test_absorption_on_dirty_overwrite(self):
        c = WriteBackCache(4)
        assert c.write(1) is False  # first write: admits dirty
        assert c.write(1) is True  # overwrite while dirty: absorbed
        assert c.absorbed_writes == 1

    def test_clean_block_write_not_absorbed(self):
        c = WriteBackCache(4)
        c.read(1)
        assert c.write(1) is False  # block was clean
        assert c.absorbed_writes == 0

    def test_dirty_eviction_counts_destage(self):
        c = WriteBackCache(1)
        c.write(1)
        c.write(2)  # evicts dirty 1
        assert c.destages == 1

    def test_clean_eviction_free(self):
        c = WriteBackCache(1)
        c.read(1)
        c.read(2)  # evicts clean 1
        assert c.destages == 0
        assert c.clean_evictions == 1

    def test_flush_destages_all_dirty(self):
        c = WriteBackCache(8)
        for b in range(5):
            c.write(b)
        c.read(100)
        assert c.flush() == 5
        assert c.destages == 5
        assert c.dirty_count() == 0
        # Flushing twice destages nothing more.
        assert c.flush() == 0

    def test_read_hit_tracking(self):
        c = WriteBackCache(4)
        c.write(1)
        assert c.read(1) is True  # dirty blocks serve reads
        assert c.read(2) is False
        assert c.read_hits == 1

    def test_capacity_respected(self):
        c = WriteBackCache(3)
        for b in range(10):
            c.write(b)
        assert len(c) == 3

    def test_waw_stream_absorbs_most_writes(self):
        """Repeated writes to a hot set: absorption near 1 (Finding 12's
        write-caching implication)."""
        c = WriteBackCache(8)
        for i in range(1000):
            c.write(i % 4)
        c.flush()
        stats = c.stats()
        assert stats.write_absorption_ratio > 0.99

    def test_write_once_stream_absorbs_nothing(self):
        c = WriteBackCache(8)
        for b in range(100):
            c.write(b)
        c.flush()
        stats = c.stats()
        assert stats.absorbed_writes == 0
        assert stats.write_absorption_ratio == pytest.approx(0.0)

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), min_size=1, max_size=400),
           st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_property_accounting_balances(self, ops, capacity):
        c = WriteBackCache(capacity)
        for is_write, block in ops:
            if is_write:
                c.write(block)
            else:
                c.read(block)
        c.flush()
        stats = c.stats()
        # Every write is either absorbed, destaged, or still... flushed.
        assert stats.destages + stats.absorbed_writes <= stats.n_writes
        # Destages never exceed writes; absorption ratio in [0, 1].
        if stats.n_writes:
            assert 0.0 <= stats.write_absorption_ratio <= 1.0
        assert stats.n_reads + stats.n_writes == len(ops)


class TestSimulateWriteback:
    def test_trace_level(self):
        tr = make_trace(
            timestamps=[0, 1, 2, 3],
            offsets=[0, 0, 0, BS],
            sizes=[BS] * 4,
            is_write=[True, True, True, False],
        )
        stats = simulate_writeback(tr, capacity_blocks=4)
        assert stats.n_writes == 3
        assert stats.absorbed_writes == 2
        assert stats.destages == 1  # final flush
        assert stats.write_absorption_ratio == pytest.approx(2 / 3)

    def test_no_flush_option(self):
        tr = make_trace(
            timestamps=[0, 1], offsets=[0, 0], sizes=[BS] * 2, is_write=[True, True]
        )
        stats = simulate_writeback(tr, 4, flush_at_end=False)
        assert stats.destages == 0
        assert stats.write_absorption_ratio == 1.0

    def test_cloud_volume_absorbs_more_than_wss_fraction(self, tiny_ali):
        """On write-dominant cloud volumes a small write-back cache absorbs
        a sizable write share (the paper's Griffin-style implication)."""
        vol = max(tiny_ali.non_empty_volumes(), key=lambda v: v.n_writes)
        from repro.trace.blocks import block_view

        wss = len(np.unique(block_view(vol).block_id))
        stats = simulate_writeback(vol, max(1, wss // 10))
        assert stats.write_absorption_ratio > 0.05
