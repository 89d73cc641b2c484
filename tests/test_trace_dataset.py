"""Tests for repro.trace.dataset."""

import numpy as np
import pytest

from repro.trace import IORequest, OpType, TraceDataset, VolumeTrace

from conftest import make_trace


class TestVolumeTraceConstruction:
    def test_from_arrays_sorts_by_timestamp(self):
        tr = VolumeTrace.from_arrays(
            "v", [3.0, 1.0, 2.0], [300, 100, 200], [512, 512, 512], [True, False, True]
        )
        assert list(tr.timestamps) == [1.0, 2.0, 3.0]
        assert list(tr.offsets) == [100, 200, 300]
        assert list(tr.is_write) == [False, True, True]

    def test_sort_is_stable_for_equal_timestamps(self):
        tr = VolumeTrace.from_arrays(
            "v", [1.0, 1.0, 0.5], [10240, 20480, 30720], [512, 512, 512], [False, True, False]
        )
        # The two ts=1.0 rows keep their relative order after sorting.
        assert list(tr.offsets) == [30720, 10240, 20480]

    def test_from_requests(self):
        reqs = [
            IORequest("v", OpType.WRITE, 0, 4096, 1.0),
            IORequest("v", OpType.READ, 4096, 512, 2.0),
        ]
        tr = VolumeTrace.from_requests("v", reqs)
        assert len(tr) == 2
        assert tr.n_writes == 1 and tr.n_reads == 1

    def test_from_requests_rejects_foreign_volume(self):
        reqs = [IORequest("other", OpType.READ, 0, 512, 0.0)]
        with pytest.raises(ValueError, match="other"):
            VolumeTrace.from_requests("v", reqs)

    def test_from_requests_preserves_response_times(self):
        reqs = [
            IORequest("v", OpType.READ, 0, 512, 0.0, response_time=0.01),
            IORequest("v", OpType.READ, 0, 512, 1.0),
        ]
        tr = VolumeTrace.from_requests("v", reqs)
        assert tr.response_times is not None
        assert tr.response_times[0] == pytest.approx(0.01)
        assert np.isnan(tr.response_times[1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            VolumeTrace.from_arrays("v", [0.0], [0, 1], [512], [False])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            VolumeTrace.from_arrays("v", [0.0], [0], [0], [False])

    def test_rejects_negative_offsets(self):
        with pytest.raises(ValueError, match="non-negative"):
            VolumeTrace.from_arrays("v", [0.0], [-4096], [512], [False])

    def test_empty(self):
        tr = VolumeTrace.empty("v", capacity=1024)
        assert len(tr) == 0
        assert tr.capacity == 1024
        with pytest.raises(ValueError):
            tr.start_time


class TestVolumeTraceAccessors:
    def test_counts_and_bytes(self):
        tr = make_trace(
            sizes=[4096, 8192, 512, 1024], is_write=[True, False, True, False]
        )
        assert tr.n_writes == 2 and tr.n_reads == 2
        assert tr.write_bytes == 4096 + 512
        assert tr.read_bytes == 8192 + 1024
        assert tr.total_bytes == tr.read_bytes + tr.write_bytes

    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_byte_totals_are_exact(self, n):
        """Totals equal Python-int sums, with sizes near 2^40 and on empty
        volumes; each is a plain ``int``."""
        rng = np.random.default_rng(n)
        sizes = (1 << 40) - rng.integers(0, 1 << 12, n)
        is_write = rng.random(n) < 0.5
        tr = VolumeTrace("v", np.arange(n, dtype=float), np.zeros(n), sizes, is_write)
        want_write = sum(int(s) for s, w in zip(sizes, is_write) if w)
        want_read = sum(int(s) for s, w in zip(sizes, is_write) if not w)
        assert (tr.write_bytes, tr.read_bytes) == (want_write, want_read)
        assert (tr.n_writes, tr.n_reads) == (int(is_write.sum()), n - int(is_write.sum()))
        assert type(tr.write_bytes) is int and type(tr.read_bytes) is int

    def test_duration(self):
        tr = make_trace(timestamps=[1.0, 5.0, 11.0])
        assert tr.duration == pytest.approx(10.0)
        assert tr.start_time == 1.0 and tr.end_time == 11.0

    def test_reads_writes_views(self):
        tr = make_trace(is_write=[True, False, True, False])
        assert tr.reads().n_requests == 2
        assert tr.writes().n_requests == 2
        assert not tr.reads().is_write.any()
        assert tr.writes().is_write.all()

    def test_time_slice_half_open(self):
        tr = make_trace(timestamps=[0.0, 1.0, 2.0, 3.0])
        sl = tr.time_slice(1.0, 3.0)
        assert list(sl.timestamps) == [1.0, 2.0]

    def test_iter_requests_round_trip(self):
        tr = make_trace(is_write=[True, False, True, False])
        reqs = list(tr.iter_requests())
        back = VolumeTrace.from_requests("v0", reqs)
        assert np.array_equal(back.offsets, tr.offsets)
        assert np.array_equal(back.is_write, tr.is_write)


class TestTraceDataset:
    def test_add_and_lookup(self):
        ds = TraceDataset("d")
        tr = make_trace("a")
        ds.add(tr)
        assert "a" in ds
        assert ds["a"] is tr
        assert ds.volume_ids() == ["a"]

    def test_add_rejects_duplicates(self):
        ds = TraceDataset("d")
        ds.add(make_trace("a"))
        with pytest.raises(ValueError, match="duplicate"):
            ds.add(make_trace("a"))

    def test_fleet_counts(self, simple_dataset):
        assert simple_dataset.n_volumes == 2
        assert simple_dataset.n_requests == 6
        assert simple_dataset.n_writes == 3
        assert simple_dataset.n_reads == 3

    def test_fleet_time_span(self, simple_dataset):
        assert simple_dataset.start_time == 0.0
        assert simple_dataset.end_time == 30.0
        assert simple_dataset.duration == 30.0

    def test_subset(self, simple_dataset):
        sub = simple_dataset.subset(["v1"])
        assert sub.n_volumes == 1
        assert "v0" not in sub

    def test_subset_rejects_unknown(self, simple_dataset):
        with pytest.raises(KeyError):
            simple_dataset.subset(["nope"])

    def test_non_empty_volumes(self):
        ds = TraceDataset("d")
        ds.add(make_trace("a"))
        ds.add(VolumeTrace.empty("b"))
        assert [v.volume_id for v in ds.non_empty_volumes()] == ["a"]

    def test_empty_dataset_has_no_span(self):
        ds = TraceDataset("d")
        with pytest.raises(ValueError):
            ds.start_time
