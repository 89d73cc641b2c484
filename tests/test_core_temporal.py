"""Tests for repro.core.temporal (Findings 12-14 metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    adjacent_access_times,
    dataset_adjacent_access_times,
    dataset_update_intervals,
    update_intervals,
)
from repro.trace import TraceDataset, VolumeTrace

from conftest import make_trace

BS = 4096


def seq_trace(ops, offsets=None, gap=10.0):
    """Trace with one request per `gap` seconds; ops is a 'RW' string."""
    n = len(ops)
    offsets = [0] * n if offsets is None else offsets
    return make_trace(
        timestamps=[i * gap for i in range(n)],
        offsets=offsets,
        sizes=[BS] * n,
        is_write=[c == "W" for c in ops],
    )


class TestAdjacentAccessTimes:
    def test_all_four_transitions(self):
        # W R R W W -> RAW, RAR, WAR, WAW on one block.
        at = adjacent_access_times(seq_trace("WRRWW"))
        assert at.counts() == {"RAW": 1, "RAR": 1, "WAR": 1, "WAW": 1}
        assert list(at.raw) == [10.0]
        assert list(at.rar) == [10.0]
        assert list(at.war) == [10.0]
        assert list(at.waw) == [10.0]

    def test_different_blocks_do_not_interact(self):
        at = adjacent_access_times(seq_trace("WR", offsets=[0, BS]))
        assert sum(at.counts().values()) == 0

    def test_elapsed_times_accumulate(self):
        at = adjacent_access_times(seq_trace("WWW", gap=5.0))
        assert list(at.waw) == [5.0, 5.0]

    def test_multi_block_request_touches_each_block(self):
        # A 2-block write followed by a 1-block read of the second block.
        tr = make_trace(
            timestamps=[0.0, 7.0],
            offsets=[0, BS],
            sizes=[2 * BS, BS],
            is_write=[True, False],
        )
        at = adjacent_access_times(tr)
        assert at.counts()["RAW"] == 1
        assert list(at.raw) == [7.0]

    def test_get_by_name(self):
        at = adjacent_access_times(seq_trace("WW"))
        assert len(at.get("WAW")) == 1
        with pytest.raises(KeyError):
            at.get("XYZ")

    def test_empty_trace(self):
        at = adjacent_access_times(VolumeTrace.empty("v"))
        assert sum(at.counts().values()) == 0

    def test_dataset_pooling(self, simple_dataset):
        pooled = dataset_adjacent_access_times(simple_dataset)
        counts = pooled.counts()
        # v0: W(0) R(0@10? no — offsets 0,4096,0,8192)...
        # v0 block 0: W@0, W@20 -> WAW 20.  v1 block 0: R@5, R@6 -> RAR 1;
        # v1 block 1 (8 KiB read spans 2 blocks): single touch.
        assert counts["WAW"] == 1
        assert counts["RAR"] == 1

    @given(st.text(alphabet="RW", min_size=2, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_property_transition_count(self, ops):
        """n accesses to one block produce exactly n-1 transitions, and the
        type tally matches a direct scan of the op string."""
        at = adjacent_access_times(seq_trace(ops))
        assert sum(at.counts().values()) == len(ops) - 1
        expected = {"RAW": 0, "WAW": 0, "RAR": 0, "WAR": 0}
        for prev, cur in zip(ops, ops[1:]):
            key = {"WR": "RAW", "WW": "WAW", "RR": "RAR", "RW": "WAR"}[prev + cur]
            expected[key] += 1
        assert at.counts() == expected


class TestUpdateIntervals:
    def test_reads_allowed_between_writes(self):
        # W R W: update interval spans the read (20 s), but WAW count is 0.
        tr = seq_trace("WRW")
        intervals = update_intervals(tr)
        assert list(intervals) == [20.0]
        assert adjacent_access_times(tr).counts()["WAW"] == 0

    def test_m_writes_give_m_minus_1_intervals(self):
        tr = seq_trace("WWWW")
        assert len(update_intervals(tr)) == 3

    def test_single_write_no_interval(self):
        assert len(update_intervals(seq_trace("W"))) == 0

    def test_different_blocks_independent(self):
        tr = seq_trace("WW", offsets=[0, BS])
        assert len(update_intervals(tr)) == 0

    def test_dataset_pooling(self):
        ds = TraceDataset("d")
        ds.add(seq_trace("WW"))
        v2 = make_trace("v2", timestamps=[0.0, 3.0], offsets=[0, 0], sizes=[BS] * 2, is_write=[True, True])
        ds.add(v2)
        pooled = dataset_update_intervals(ds)
        assert sorted(pooled) == [3.0, 10.0]

    def test_empty_dataset(self):
        assert len(dataset_update_intervals(TraceDataset("d"))) == 0

    @given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_intervals_match_diffs(self, gaps):
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        n = len(times)
        tr = make_trace(
            timestamps=times, offsets=[0] * n, sizes=[BS] * n, is_write=[True] * n
        )
        intervals = update_intervals(tr)
        assert np.allclose(np.sort(intervals), np.sort(np.diff(times)))
