"""Tests for the streaming volume profile: the ``StreamingProfileAnalyzer`` fold.

Exact counters are checked against the in-memory ``VolumeTrace`` counters,
estimates against the exact ``working_sets`` and ``interarrival_times``.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import interarrival_times, working_sets
from repro.engine import (
    Chunk,
    RowPredicate,
    StreamingProfileAnalyzer,
    StreamingVolumeProfile,
    run,
    run_dataset,
)
from repro.trace import TraceDataset

from conftest import make_trace

BS = 4096


def profile_of(trace, analyzer=None, chunk_size=2):
    """The fold's profile of one in-memory volume (small chunks, so the
    cross-chunk merge paths run)."""
    result = run_dataset(
        TraceDataset("t", {trace.volume_id: trace}),
        [analyzer or StreamingProfileAnalyzer()],
        chunk_size=chunk_size,
    )
    return result.analyzer("streaming_profile")[trace.volume_id]


class TestStreamingVolumeProfiler:
    """One volume through the fold."""

    def test_exact_counters(self):
        tr = make_trace(
            sizes=[BS, 2 * BS, BS, BS], is_write=[True, False, True, False]
        )
        profile = profile_of(tr)
        assert isinstance(profile, StreamingVolumeProfile)
        assert profile.n_requests == 4
        assert profile.n_writes == 2
        assert profile.write_bytes == 2 * BS
        assert profile.read_bytes == 3 * BS
        assert profile.start_time == 0.0 and profile.end_time == 3.0
        assert profile.duration == 3.0

    def test_rejects_out_of_order(self):
        analyzer = StreamingProfileAnalyzer()
        state = analyzer.init_state("v")

        def chunk(ts):
            return Chunk("v", np.array([ts]), np.array([0]), np.array([512]),
                         np.array([False]))

        state = analyzer.consume(state, chunk(5.0))
        with pytest.raises(ValueError, match="timestamp order"):
            analyzer.consume(state, chunk(4.0))

    def test_empty_after_predicate_profile(self):
        # A predicate that leaves a volume no rows drops it from the run's
        # profiles instead of raising; an empty state finalizes to zeros.
        tr = make_trace(is_write=[True, True, True, True])
        analyzer = StreamingProfileAnalyzer()
        dataset = TraceDataset("t", {"v0": tr})
        assert run_dataset(dataset, [analyzer]).analyzer("streaming_profile")["v0"].n_requests == 4
        result = run_dataset(dataset, [analyzer], predicate=RowPredicate(op="read"))
        assert result.analyzer("streaming_profile") == {}
        profile = analyzer.finalize(analyzer.init_state("v0"))
        assert profile.volume_id == "v0"
        assert (profile.n_requests, profile.n_reads, profile.n_writes) == (0, 0, 0)
        assert (profile.read_bytes, profile.write_bytes) == (0, 0)
        assert np.isnan(profile.start_time) and np.isnan(profile.end_time)
        assert profile.wss_total_bytes == 0.0
        assert profile.size_percentiles == {} and profile.interarrival_percentiles == {}
        assert profile.average_intensity == 0.0
        assert np.isnan(profile.write_read_ratio)
        assert np.isnan(profile.read_wss_fraction)

    def test_wss_estimates_match_exact(self, tiny_ali):
        vol = max(tiny_ali.non_empty_volumes(), key=len)
        profile = profile_of(vol, chunk_size=997)
        exact = working_sets(vol)
        assert profile.wss_total_bytes == pytest.approx(exact.total, rel=0.05)
        assert profile.wss_write_bytes == pytest.approx(exact.write, rel=0.05)
        if exact.read:
            assert profile.wss_read_bytes == pytest.approx(exact.read, rel=0.08)

    def test_percentile_estimates_match_exact(self, tiny_ali):
        vol = max(tiny_ali.non_empty_volumes(), key=len)
        profile = profile_of(vol, StreamingProfileAnalyzer(reservoir_size=8192), chunk_size=997)
        exact_median_size = float(np.median(vol.sizes))
        # Sizes are drawn from a few discrete values; the reservoir median
        # must land on the right one.
        assert profile.size_percentiles[50.0] == pytest.approx(exact_median_size, rel=0.5)
        gaps = interarrival_times(vol)
        assert profile.interarrival_percentiles[50.0] == pytest.approx(
            float(np.median(gaps)), rel=0.5
        )

    def test_derived_properties(self):
        tr = make_trace(timestamps=[0.0, 10.0], offsets=[0, BS], sizes=[BS, BS],
                        is_write=[True, True])
        profile = profile_of(tr)
        assert profile.average_intensity == pytest.approx(0.2)
        assert profile.write_read_ratio == float("inf")
        assert profile.read_wss_fraction == pytest.approx(0.0, abs=0.05)

    def test_consume_memory_is_bounded_by_slices(self):
        """Blocks are expanded and hashed a slice of requests at a time, so
        a chunk of 2^18 blocks costs a small fraction of its 2 MiB of
        block ids (one chunk-wide expansion peaked near 18 MiB)."""
        n, size = 8192, 128 * 1024
        chunk = Chunk(
            "v",
            timestamps=np.arange(n, dtype=np.float64),
            offsets=np.arange(n, dtype=np.int64) * size,
            sizes=np.full(n, size, dtype=np.int64),
            is_write=np.arange(n) % 2 == 0,
        )
        analyzer = StreamingProfileAnalyzer()
        analyzer.consume(analyzer.init_state("v"), chunk)  # first-use imports
        state = analyzer.init_state("v")
        gc.collect()
        tracemalloc.start()
        try:
            analyzer.consume(state, chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n * size // BS == 2**18
        assert peak < 4 * 2**20, peak


class TestStreamProfileRequests:
    """Multi-volume datasets and trace files through the fold."""

    def test_multi_volume_stream(self, simple_dataset):
        profiles = run_dataset(
            simple_dataset, [StreamingProfileAnalyzer()], chunk_size=1
        ).analyzer("streaming_profile")
        assert set(profiles) == {"v0", "v1"}
        assert profiles["v0"].n_requests == 4
        assert profiles["v1"].n_requests == 2
        assert profiles["v1"].n_writes == 0

    def test_matches_columnar_counters(self, tiny_ali):
        profiles = run_dataset(
            tiny_ali, [StreamingProfileAnalyzer()], chunk_size=501
        ).analyzer("streaming_profile")
        total = sum(p.n_requests for p in profiles.values())
        assert total == tiny_ali.n_requests
        for vid, profile in profiles.items():
            vol = tiny_ali[vid]
            assert profile.n_reads == vol.n_reads
            assert profile.n_writes == vol.n_writes
            assert profile.read_bytes == vol.read_bytes
            assert profile.write_bytes == vol.write_bytes
            assert profile.start_time == vol.start_time
            assert profile.end_time == vol.end_time

    def test_from_trace_file(self, tiny_ali, tmp_path):
        """End-to-end: file -> chunked parse -> profiles, no dataset
        materialization."""
        from repro.trace import write_alicloud

        path = str(tmp_path / "fleet.csv")
        write_alicloud(tiny_ali, path)
        profiles = run([path], [StreamingProfileAnalyzer()]).analyzer("streaming_profile")
        assert sum(p.n_requests for p in profiles.values()) == tiny_ali.n_requests
