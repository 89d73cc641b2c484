"""Tests for repro.core.load_intensity (Findings 1-7 metrics)."""

import numpy as np
import pytest

from repro.core import (
    active_days,
    active_fractions,
    active_period_seconds,
    active_volume_timeseries,
    average_intensity,
    burstiness_ratio,
    interarrival_percentile_groups,
    interarrival_times,
    overall_intensity,
    peak_intensity,
    write_read_ratio,
)
from repro.stats import bucket_counts, bucket_edges
from repro.trace import TraceDataset, VolumeTrace

from conftest import make_trace


class TestAverageIntensity:
    def test_basic(self):
        tr = make_trace(timestamps=[0.0, 5.0, 10.0])
        assert average_intensity(tr) == pytest.approx(0.3)

    def test_empty_and_single(self):
        assert average_intensity(VolumeTrace.empty("v")) == 0.0
        assert average_intensity(make_trace(timestamps=[1.0])) == 0.0

    def test_instantaneous_burst_is_inf(self):
        tr = make_trace(timestamps=[1.0, 1.0, 1.0])
        assert average_intensity(tr) == float("inf")


class TestPeakIntensity:
    def test_peak_in_one_window(self):
        tr = make_trace(timestamps=[0.0, 1.0, 2.0, 100.0])
        assert peak_intensity(tr, interval=60.0) == pytest.approx(3 / 60)

    def test_custom_interval(self):
        tr = make_trace(timestamps=[0.0, 0.5, 5.0, 5.1])
        assert peak_intensity(tr, interval=1.0) == pytest.approx(2.0)

    def test_empty(self):
        assert peak_intensity(VolumeTrace.empty("v")) == 0.0


class TestBurstiness:
    def test_uniform_stream_low(self):
        ts = np.arange(0, 600, 1.0)  # exactly 1 req/s
        tr = make_trace(timestamps=ts, offsets=[0] * len(ts), sizes=[512] * len(ts), is_write=[False] * len(ts))
        ratio = burstiness_ratio(tr, interval=60.0)
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_bursty_stream_high(self):
        ts = np.concatenate([np.linspace(0, 1, 100), [3600.0]])
        n = len(ts)
        tr = make_trace(timestamps=ts, offsets=[0] * n, sizes=[512] * n, is_write=[False] * n)
        assert burstiness_ratio(tr, interval=60.0) > 50

    def test_nan_when_undefined(self):
        assert np.isnan(burstiness_ratio(VolumeTrace.empty("v")))
        assert np.isnan(burstiness_ratio(make_trace(timestamps=[1.0, 1.0])))


class TestOverallIntensity:
    def test_aggregates_volumes(self, simple_dataset):
        ov = overall_intensity(simple_dataset, interval=10.0)
        # 6 requests over 30 s.
        assert ov.average_req_per_s == pytest.approx(0.2)
        # Densest 10 s window holds 3 requests (t=0,5,6).
        assert ov.peak_req_per_s == pytest.approx(0.3)
        assert ov.burstiness_ratio == pytest.approx(1.5)

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            overall_intensity(TraceDataset("d"))


class TestInterarrival:
    def test_basic_diffs(self):
        tr = make_trace(timestamps=[0.0, 1.0, 3.0, 6.0])
        assert list(interarrival_times(tr)) == [1.0, 2.0, 3.0]

    def test_short_trace(self):
        assert len(interarrival_times(make_trace(timestamps=[1.0]))) == 0

    def test_percentile_groups_shape(self, tiny_ali):
        groups = interarrival_percentile_groups(tiny_ali, (25, 50, 75))
        assert set(groups) == {25.0, 50.0, 75.0}
        # Percentiles are ordered within each volume, so the arrays are
        # elementwise ordered too.
        assert (groups[25.0] <= groups[50.0]).all()
        assert (groups[50.0] <= groups[75.0]).all()


class TestWriteReadRatio:
    def test_mixed(self):
        tr = make_trace(is_write=[True, True, True, False])
        assert write_read_ratio(tr) == pytest.approx(3.0)

    def test_write_only_is_inf(self):
        tr = make_trace(is_write=[True, True, True, True])
        assert write_read_ratio(tr) == float("inf")

    def test_empty_is_nan(self):
        assert np.isnan(write_read_ratio(VolumeTrace.empty("v")))


class TestActiveness:
    def test_active_days(self):
        tr = make_trace(timestamps=[0.0, 100.0, 86400.0 * 2 + 5])
        assert active_days(tr, t0=0.0) == 2

    def test_active_days_window_clip(self):
        tr = make_trace(timestamps=[0.0, 86400.0 * 10], offsets=[0, 0], sizes=[512, 512], is_write=[False, False])
        assert active_days(tr, t0=0.0, n_days=5) == 1

    def test_active_days_empty(self):
        assert active_days(VolumeTrace.empty("v"), t0=0.0) == 0

    def test_active_volume_timeseries(self, simple_dataset):
        ts = active_volume_timeseries(simple_dataset, interval=10.0)
        assert ts.n_intervals == 3
        # Interval [0,10): v0 (t=0) + v1 (t=5,6) active.
        assert ts.active[0] == 2
        # v1 is read-only.
        assert ts.write_active[0] == 1
        assert ts.read_active[0] == 1  # only v1 reads in [0,10)
        # Interval [10,20): only v0 (read at t=10).
        assert ts.active[1] == 1
        assert ts.read_active[1] == 1
        assert ts.write_active[1] == 0

    def test_active_period_seconds(self, simple_dataset):
        v0 = simple_dataset["v0"]
        assert active_period_seconds(v0, 0.0, 30.0, interval=10.0) == pytest.approx(30.0)
        # v0 reads only at t=10.
        assert active_period_seconds(v0, 0.0, 30.0, interval=10.0, op="read") == pytest.approx(10.0)
        # v0 writes at t=0, 20, 30: buckets [0,10) and [20,30] (t=30 clamps).
        assert active_period_seconds(v0, 0.0, 30.0, interval=10.0, op="write") == pytest.approx(20.0)

    def test_active_fractions(self, simple_dataset):
        # Each volume's active seconds over the span from the origin to the
        # dataset's end (t=30), in dataset order.
        want = [
            active_period_seconds(v, 0.0, 30.0, 10.0, "write") / 30.0
            for v in simple_dataset.volumes()
        ]
        got = active_fractions(simple_dataset, 0.0, interval=10.0, op="write")
        assert got.tolist() == want
        # A span shorter than one interval counts as one interval.
        assert active_fractions(simple_dataset, 29.0, interval=10.0)[0] == pytest.approx(1.0)

    def test_active_period_rejects_bad_op(self, simple_dataset):
        with pytest.raises(ValueError):
            active_period_seconds(simple_dataset["v0"], 0.0, 30.0, op="both")


class TestOnFleet:
    """Sanity of the metrics on a realistic synthetic fleet."""

    def test_intensities_positive_and_finite_for_active_volumes(self, tiny_ali):
        for v in tiny_ali.non_empty_volumes():
            if len(v) > 1 and v.duration > 0:
                assert average_intensity(v) > 0
                assert peak_intensity(v) >= average_intensity(v) * 0.01

    def test_peak_at_least_average_per_window(self, tiny_ali):
        # Peak over windows always >= total/duration when duration >= window.
        for v in tiny_ali.non_empty_volumes():
            if v.duration > 60:
                assert peak_intensity(v, 60.0) >= average_intensity(v) * 0.5


def _reference_activity(ts, interval, t0, t1):
    """Per-bucket activity by the edge-array definition."""
    n = len(bucket_edges(t0, t1, interval)) - 1
    if len(ts) == 0:
        return np.zeros(n, dtype=bool)
    _, counts = bucket_counts(ts, interval, t0, t1)
    return counts > 0


#: Volume timestamps for the edge cases: one request, one bucket, events on
#: boundaries and at the end, a span that is an exact multiple of 10 s.
_EDGE_TRACES = {
    "single-request": [7.0],
    "one-bucket": [1.0, 1.5, 1.5, 9.9],
    "on-boundaries": [0.0, 10.0, 20.0, 30.0, 30.0],
    "exact-multiple-span": [0.0, 5.0, 30.0],
}


class TestGridFreeAgainstEdgeArrays:
    """Peak intensity and activity counts equal the ``bucket_edges`` /
    ``bucket_counts`` definition they replaced."""

    @pytest.mark.parametrize("case", list(_EDGE_TRACES))
    def test_peak_intensity_edges(self, case):
        ts = np.array(_EDGE_TRACES[case])
        tr = make_trace(timestamps=ts, is_write=[i % 2 == 0 for i in range(len(ts))])
        _, counts = bucket_counts(ts, 10.0)
        assert peak_intensity(tr, 10.0) == counts.max() / 10.0

    @pytest.mark.parametrize("case", list(_EDGE_TRACES))
    def test_active_period_edges(self, case):
        ts = np.array(_EDGE_TRACES[case])
        tr = make_trace(timestamps=ts, is_write=[i % 2 == 0 for i in range(len(ts))])
        for op, mask in (
            (None, np.ones(len(ts), bool)), ("read", ~tr.is_write), ("write", tr.is_write)
        ):
            want = float(_reference_activity(tr.timestamps[mask], 10.0, 0.0, 30.0).sum()) * 10.0
            assert active_period_seconds(tr, 0.0, 30.0, 10.0, op) == want

    def test_fleet_at_scaled_minute_interval(self, tiny_ali):
        interval = 60.0 / 1440  # one "minute" of a 60 s day
        t0, t1 = tiny_ali.start_time, tiny_ali.end_time
        want = {k: np.zeros(len(bucket_edges(t0, t1, interval)) - 1, np.int64)
                for k in ("active", "read_active", "write_active")}
        for v in tiny_ali.volumes():
            if len(v) == 0:
                continue
            _, counts = bucket_counts(v.timestamps, interval)
            assert peak_intensity(v, interval) == counts.max() / interval
            want["active"] += _reference_activity(v.timestamps, interval, t0, t1)
            want["read_active"] += _reference_activity(
                v.timestamps[~v.is_write], interval, t0, t1)
            want["write_active"] += _reference_activity(
                v.timestamps[v.is_write], interval, t0, t1)
        got = active_volume_timeseries(tiny_ali, interval)
        assert np.array_equal(got.edges, bucket_edges(t0, t1, interval))
        for key, counts in want.items():
            assert np.array_equal(getattr(got, key), counts), key
