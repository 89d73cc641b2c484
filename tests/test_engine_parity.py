"""Engine-vs-legacy parity on synthetic AliCloud and MSRC fleets.

Exact counters must match the legacy analyses bit-for-bit at every chunk
size and worker count; sketch-backed estimates must match within sketch
tolerance (and exactly, when the reservoir is large enough to hold the
whole stream).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import working_sets
from repro.core.load_intensity import average_intensity, write_read_ratio
from repro.core.temporal import adjacent_access_times, update_intervals
from repro.engine import (
    StreamingProfileAnalyzer,
    TemporalAnalyzer,
    run,
    run_dataset,
)
from repro.trace import write_dataset_dir

BS = 4096
#: Large enough to hold every sample of the test fleets: reservoirs become
#: exact and quantile parity can be asserted without sketch tolerance.
EXACT_RESERVOIR = 1 << 20

PCTS = (25.0, 50.0, 75.0, 90.0, 95.0)


def _exact_pcts(values):
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return {}
    return {p: float(v) for p, v in zip(PCTS, np.percentile(values, PCTS))}


def _analyzers(reservoir_size):
    return [
        TemporalAnalyzer(block_size=BS, reservoir_size=reservoir_size),
        StreamingProfileAnalyzer(block_size=BS, reservoir_size=reservoir_size),
    ]


def _as_comparable(result):
    return {
        name: {vid: dataclasses.asdict(r) for vid, r in per_vol.items()}
        for name, per_vol in result.per_volume.items()
    }


@pytest.fixture(scope="module")
def ali_dir(tmp_path_factory, tiny_ali):
    out = tmp_path_factory.mktemp("ali")
    write_dataset_dir(tiny_ali, str(out), fmt="alicloud")
    return str(out)


@pytest.fixture(scope="module")
def msrc_dir(tmp_path_factory, tiny_msrc):
    out = tmp_path_factory.mktemp("msrc")
    write_dataset_dir(tiny_msrc, str(out), fmt="msrc")
    return str(out)


@pytest.fixture(scope="module")
def ali_engine(tiny_ali):
    """One exact-reservoir engine run shared by the parity assertions."""
    return run_dataset(tiny_ali, _analyzers(EXACT_RESERVOIR))


class TestExactCounterParity:
    def test_load_intensity(self, tiny_ali, ali_engine):
        results = ali_engine.analyzer("streaming_profile")
        for trace in tiny_ali.non_empty_volumes():
            got = results[trace.volume_id]
            assert got.n_requests == len(trace)
            assert got.n_reads == int(np.count_nonzero(~trace.is_write))
            assert got.n_writes == int(np.count_nonzero(trace.is_write))
            assert got.read_bytes == int(trace.sizes[~trace.is_write].sum())
            assert got.write_bytes == int(trace.sizes[trace.is_write].sum())
            assert got.average_intensity == pytest.approx(average_intensity(trace))
            legacy_wr = write_read_ratio(trace)
            if np.isnan(legacy_wr):
                assert np.isnan(got.write_read_ratio)
            else:
                assert got.write_read_ratio == pytest.approx(legacy_wr)

    def test_load_intensity_quantiles_exact(self, tiny_ali, ali_engine):
        results = ali_engine.analyzer("streaming_profile")
        for trace in tiny_ali.non_empty_volumes():
            got = results[trace.volume_id].interarrival_percentiles
            expected = _exact_pcts(np.diff(trace.timestamps))
            assert got.keys() == expected.keys()
            for p, v in expected.items():
                assert got[p] == pytest.approx(v)

    def test_temporal_counts(self, tiny_ali, ali_engine):
        results = ali_engine.analyzer("temporal")
        for trace in tiny_ali.non_empty_volumes():
            got = results[trace.volume_id]
            assert got.counts == adjacent_access_times(trace, BS).counts()
            assert got.update_count == len(update_intervals(trace, BS))

    def test_temporal_quantiles_exact(self, tiny_ali, ali_engine):
        results = ali_engine.analyzer("temporal")
        for trace in tiny_ali.non_empty_volumes():
            got = results[trace.volume_id]
            legacy = adjacent_access_times(trace, BS)
            for name in ("RAW", "WAW", "RAR", "WAR"):
                expected = _exact_pcts(legacy.get(name))
                for p, v in expected.items():
                    assert got.transition_percentiles[name][p] == pytest.approx(v), name
            for p, v in _exact_pcts(update_intervals(trace, BS)).items():
                assert got.update_interval_percentiles[p] == pytest.approx(v)

    def test_spatial_within_sketch_tolerance(self, tiny_ali, ali_engine):
        results = ali_engine.analyzer("streaming_profile")
        for trace in tiny_ali.non_empty_volumes():
            got = results[trace.volume_id]
            exact = working_sets(trace, BS)
            assert got.wss_total_bytes == pytest.approx(exact.total, rel=0.05)
            assert got.wss_read_bytes == pytest.approx(exact.read, rel=0.05)
            assert got.wss_write_bytes == pytest.approx(exact.write, rel=0.05)

    def test_streaming_profile_matches_legacy_profiler(self, tiny_ali, ali_engine):
        results = ali_engine.analyzer("streaming_profile")
        assert set(results) == {v.volume_id for v in tiny_ali.non_empty_volumes()}
        for trace in tiny_ali.non_empty_volumes():
            got = results[trace.volume_id]
            # Exact counters are bit-identical to the in-memory trace's.
            assert got.n_requests == len(trace)
            assert got.n_reads == trace.n_reads
            assert got.n_writes == trace.n_writes
            assert got.read_bytes == trace.read_bytes
            assert got.write_bytes == trace.write_bytes
            assert got.start_time == trace.start_time
            assert got.end_time == trace.end_time
            # Request-size percentiles are exact while the reservoir holds
            # the whole stream.
            expected = _exact_pcts(trace.sizes)
            assert got.size_percentiles.keys() == expected.keys()
            for p, v in expected.items():
                assert got.size_percentiles[p] == pytest.approx(v)


class TestMsrcParity:
    def test_exact_counters_from_files(self, tiny_msrc, msrc_dir):
        result = run(msrc_dir, _analyzers(EXACT_RESERVOIR), fmt="msrc", chunk_size=101)
        load = result.analyzer("streaming_profile")
        temporal = result.analyzer("temporal")
        for trace in tiny_msrc.non_empty_volumes():
            got = load[trace.volume_id]
            assert got.n_reads == int(np.count_nonzero(~trace.is_write))
            assert got.n_writes == int(np.count_nonzero(trace.is_write))
            assert got.read_bytes == int(trace.sizes[~trace.is_write].sum())
            assert got.write_bytes == int(trace.sizes[trace.is_write].sum())
            assert temporal[trace.volume_id].counts == (
                adjacent_access_times(trace, BS).counts()
            )


class TestDeterminism:
    @pytest.mark.parametrize("fmt_fixture", ["ali_dir", "msrc_dir"])
    def test_workers_1_vs_4_identical(self, fmt_fixture, request):
        directory = request.getfixturevalue(fmt_fixture)
        fmt = "alicloud" if fmt_fixture == "ali_dir" else "msrc"
        one = run(directory, _analyzers(4096), fmt=fmt, chunk_size=137, workers=1)
        four = run(directory, _analyzers(4096), fmt=fmt, chunk_size=137, workers=4)
        assert _as_comparable(one) == _as_comparable(four)

    @pytest.mark.parametrize("chunk_size", [13, 137, 10**6])
    def test_chunk_size_invariant(self, tiny_ali, chunk_size, ali_engine):
        # Exact counters AND sketch outputs are invariant to chunk layout
        # (boundary-straddling chunks included: 13 and 137 both split
        # same-block runs across chunks).
        got = run_dataset(tiny_ali, _analyzers(EXACT_RESERVOIR), chunk_size=chunk_size)
        assert _as_comparable(got) == _as_comparable(ali_engine)

    def test_chunk_size_one_smallest_volume(self, tiny_ali):
        # chunk_size=1 is the most extreme boundary case; keep it cheap by
        # using the smallest volume only.
        vol = min(tiny_ali.non_empty_volumes(), key=len)
        sub = tiny_ali.subset([vol.volume_id])
        one = run_dataset(sub, _analyzers(EXACT_RESERVOIR), chunk_size=1)
        big = run_dataset(sub, _analyzers(EXACT_RESERVOIR), chunk_size=10**6)
        assert _as_comparable(one) == _as_comparable(big)

    def test_default_reservoir_still_deterministic(self, tiny_ali):
        a = run_dataset(tiny_ali, _analyzers(64), chunk_size=137, workers=1)
        b = run_dataset(tiny_ali, _analyzers(64), chunk_size=137, workers=4)
        assert _as_comparable(a) == _as_comparable(b)

    def test_gap_reservoir_chunk_invariant_over_capacity(self, tiny_ali):
        # Regression: cross-chunk boundary gaps must flow through the
        # batching-invariant add_array, not the scalar add (whose RNG
        # draws differ) — otherwise the inter-arrival reservoir depends
        # on the number of chunk boundaries once it is over capacity.
        # A size-8 reservoir forces rejection sampling on every volume.
        analyzers = [StreamingProfileAnalyzer(block_size=BS, reservoir_size=8)]
        small = run_dataset(tiny_ali, analyzers, chunk_size=17)
        big = run_dataset(tiny_ali, analyzers, chunk_size=10**6)
        assert _as_comparable(small) == _as_comparable(big)
