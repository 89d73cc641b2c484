"""Tests for repro.stats histogram, timeseries, and streaming modules."""

import numpy as np
import pytest

from repro.stats import (
    ReservoirSampler,
    bucket_counts,
    bucket_edges,
    duration_group_fractions,
    interval_activity,
    linear_histogram,
    log_histogram,
    max_interval_count,
)
from repro.stats.timeseries import active_buckets


class TestHistograms:
    def test_linear_histogram_counts(self):
        h = linear_histogram([0.5, 1.5, 1.6, 2.5], n_bins=3, lo=0, hi=3)
        assert list(h.counts) == [1, 2, 1]
        assert h.n == 4

    def test_linear_histogram_rejects_bad_range(self):
        with pytest.raises(ValueError):
            linear_histogram([1.0], 3, 5, 5)

    def test_fractions_sum_to_one(self):
        h = linear_histogram(np.arange(100), 10, 0, 100)
        assert h.fractions.sum() == pytest.approx(1.0)
        assert h.cumulative_fractions()[-1] == pytest.approx(1.0)

    def test_log_histogram_edges_are_log_spaced(self):
        h = log_histogram([1, 10, 100, 1000], n_bins=3)
        ratios = h.edges[1:] / h.edges[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_log_histogram_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            log_histogram([0.0, 1.0])

    def test_log_histogram_rejects_empty(self):
        with pytest.raises(ValueError):
            log_histogram([])

    def test_log_histogram_counts_everything(self):
        data = np.random.default_rng(0).lognormal(0, 2, 500)
        h = log_histogram(data, n_bins=40)
        assert h.n == 500

    def test_duration_groups_paper_boundaries(self):
        # Paper Figure 17 groups: <5 min, 5-30, 30-240, >240 minutes.
        boundaries = [300.0, 1800.0, 14400.0]
        samples = [10.0, 600.0, 7200.0, 20000.0]
        fracs = duration_group_fractions(samples, boundaries)
        assert list(fracs) == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_duration_groups_boundary_belongs_right(self):
        fracs = duration_group_fractions([300.0], [300.0])
        assert list(fracs) == [0.0, 1.0]

    def test_duration_groups_rejects_unsorted(self):
        with pytest.raises(ValueError):
            duration_group_fractions([1.0], [10.0, 5.0])


class TestTimeseries:
    def test_bucket_edges_cover_span(self):
        edges = bucket_edges(0.0, 10.0, 3.0)
        assert edges[0] == 0.0
        assert edges[-1] >= 10.0

    def test_bucket_edges_exact_multiple(self):
        edges = bucket_edges(0.0, 9.0, 3.0)
        assert len(edges) - 1 == 3
        # An event at exactly t=9 clamps into the last bucket.
        _, counts = bucket_counts(np.array([9.0]), 3.0, 0.0, 9.0)
        assert counts[-1] == 1

    def test_bucket_counts(self):
        ts = np.array([0.1, 0.2, 1.5, 2.9])
        edges, counts = bucket_counts(ts, 1.0, 0.0, 3.0)
        assert list(counts[:3]) == [2, 1, 1]
        assert counts.sum() == 4

    def test_bucket_counts_event_at_end(self):
        ts = np.array([0.0, 3.0])
        _, counts = bucket_counts(ts, 1.0, 0.0, 3.0)
        assert counts.sum() == 2

    def test_max_interval_count(self):
        ts = np.array([0.0, 0.1, 0.2, 5.0])
        assert max_interval_count(ts, 1.0) == 3

    def test_interval_activity(self):
        ts = np.array([0.5, 2.5])
        act = interval_activity(ts, 1.0, 0.0, 4.0)
        assert list(act) == [True, False, True, False]

    def test_interval_activity_empty(self):
        act = interval_activity(np.array([]), 1.0, 0.0, 3.0)
        assert not act.any()

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            bucket_edges(0, 1, 0)
        with pytest.raises(ValueError):
            interval_activity(np.array([]), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            interval_activity(np.array([0.5]), 1.0, 2.0, 1.0)


#: (timestamps, interval, t0, t1) edge cases for the grid-free bucketing.
_EDGE_CASES = {
    "single-request": ([5.0], 1.0, 0.0, 9.0),
    "one-bucket": ([1.0, 1.2, 1.2, 1.9], 1.0, 0.0, 4.0),
    "on-boundaries-and-t1": ([0.0, 1.0, 2.0, 3.0, 3.0], 1.0, 0.0, 3.0),
    "exact-multiple-span": ([0.0, 3.0, 6.0, 9.0, 9.0], 3.0, 0.0, 9.0),
    "outside-window": ([-1.0, 0.5, 0.5, 3.9, 4.0, 10.0], 1.0, 0.0, 4.0),
    "unsorted": ([5.0, 0.1, 0.2, 5.5, 0.3], 1.0, 0.0, 6.0),
    "fractional-interval": (
        list(np.sort(np.random.default_rng(5).uniform(0, 6.35 * 31, 3000))),
        6.35 / 1440, 0.0, 6.35 * 31,
    ),
}


class TestGridFreeBucketing:
    """``max_interval_count`` and ``interval_activity`` never build the
    bucket grid; ``bucket_edges``/``bucket_counts`` stay the definition
    they must equal."""

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_max_interval_count_equals_reference(self, case):
        ts, interval, _, _ = _EDGE_CASES[case]
        ts = np.array(ts)
        _, counts = bucket_counts(ts, interval)
        assert max_interval_count(ts, interval) == counts.max()

    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_interval_activity_equals_reference(self, case):
        ts, interval, t0, t1 = _EDGE_CASES[case]
        ts = np.array(ts)
        edges, counts = bucket_counts(ts, interval, t0, t1)
        active = interval_activity(ts, interval, t0, t1)
        assert len(active) == len(edges) - 1
        assert np.array_equal(active, counts > 0)
        assert np.array_equal(active_buckets(ts, interval, t0, t1), np.flatnonzero(counts))

    def test_exact_multiple_span_has_span_over_interval_buckets(self):
        assert len(interval_activity(np.array([9.0]), 3.0, 0.0, 9.0)) == 3
        assert list(active_buckets(np.array([9.0]), 3.0, 0.0, 9.0)) == [2]

    def test_no_event_in_window(self):
        ts = np.array([-2.0, 7.0])
        assert not interval_activity(ts, 1.0, 0.0, 4.0).any()
        assert len(active_buckets(ts, 1.0, 0.0, 4.0)) == 0

    def test_max_interval_count_rejects_empty(self):
        with pytest.raises(ValueError):
            max_interval_count(np.array([]), 1.0)


class TestStreaming:
    def test_reservoir_exact_when_under_capacity(self, rng):
        r = ReservoirSampler(100, rng)
        r.add_many(range(50))
        assert sorted(r.sample()) == list(map(float, range(50)))

    def test_reservoir_capacity_respected(self, rng):
        r = ReservoirSampler(10, rng)
        r.add_many(range(1000))
        assert len(r.sample()) == 10
        assert r.n_seen == 1000

    def test_reservoir_is_roughly_uniform(self):
        # Quantiles of the reservoir approximate the stream's quantiles.
        rng = np.random.default_rng(3)
        r = ReservoirSampler(2000, rng)
        r.add_many(range(100000))
        assert r.percentile(50) == pytest.approx(50000, rel=0.1)

    def test_reservoir_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)

    def test_reservoir_add_array_batching_invariant(self):
        # Splitting a stream into different add_array batches consumes the
        # RNG identically, so the reservoirs are bit-identical — this is
        # what makes engine results chunk-size-invariant.
        data = np.random.default_rng(4).normal(0, 1, 5000)
        a = ReservoirSampler(100, np.random.default_rng(9))
        b = ReservoirSampler(100, np.random.default_rng(9))
        a.add_array(data)
        b.add_array(data[:1])
        b.add_array(data[1:17])
        b.add_array(data[17:])
        assert a.sample().tolist() == b.sample().tolist()

    def test_reservoir_add_array_is_uniform(self):
        # Each stream element should survive with probability capacity/n.
        data = np.arange(2000, dtype=np.float64)
        hits = np.zeros(2000)
        for seed in range(200):
            r = ReservoirSampler(50, np.random.default_rng(seed))
            r.add_array(data)
            hits[r.sample().astype(np.int64)] += 1
        # Expected 200 * 50/2000 = 5 hits per element; compare the early
        # (eagerly filled) and late halves of the stream.
        assert hits[:1000].mean() == pytest.approx(5.0, rel=0.15)
        assert hits[1000:].mean() == pytest.approx(5.0, rel=0.15)

    def test_reservoir_add_array_exact_under_capacity(self, rng):
        r = ReservoirSampler(100, rng)
        r.add_array(np.arange(60, dtype=np.float64))
        assert sorted(r.sample()) == list(map(float, range(60)))
        assert r.n_seen == 60

    def test_reservoir_merge_under_capacity_is_exact(self, rng):
        a = ReservoirSampler(100, rng)
        b = ReservoirSampler(100, np.random.default_rng(5))
        a.add_array(np.arange(30, dtype=np.float64))
        b.add_array(np.arange(30, 60, dtype=np.float64))
        merged = a.merge(b)
        assert sorted(merged.sample()) == list(map(float, range(60)))
        assert merged.n_seen == 60

    def test_reservoir_merge_respects_capacity_and_weights(self):
        # Merging two over-full reservoirs keeps capacity items drawn from
        # both sides roughly in proportion to their stream sizes.
        a = ReservoirSampler(500, np.random.default_rng(6))
        b = ReservoirSampler(500, np.random.default_rng(7))
        a.add_array(np.zeros(30000))
        b.add_array(np.ones(10000))
        merged = a.merge(b)
        sample = merged.sample()
        assert len(sample) == 500
        assert merged.n_seen == 40000
        # ~75% of the merged stream is zeros; allow generous sampling noise.
        assert 0.6 < np.mean(sample == 0.0) < 0.9

    def test_reservoir_merge_quantiles_track_pooled_stream(self):
        rng = np.random.default_rng(8)
        data = rng.lognormal(0, 1, 40000)
        a = ReservoirSampler(2000, np.random.default_rng(10))
        b = ReservoirSampler(2000, np.random.default_rng(11))
        a.add_array(data[:25000])
        b.add_array(data[25000:])
        merged = a.merge(b)
        assert merged.percentile(50) == pytest.approx(np.percentile(data, 50), rel=0.1)

    def test_reservoir_merge_rejects_capacity_mismatch(self, rng):
        with pytest.raises(ValueError, match="capacity"):
            ReservoirSampler(10, rng).merge(ReservoirSampler(20, rng))
