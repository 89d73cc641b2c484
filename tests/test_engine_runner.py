"""Tests for repro.engine.runner: one-pass driving, fan-out, determinism."""

import dataclasses

import pytest

from repro.engine import (
    StreamingProfileAnalyzer,
    TemporalAnalyzer,
    parallel_map,
    run,
    run_dataset,
)
from repro.trace import TraceDataset, write_dataset_dir

from conftest import make_trace


def _square(x, add=0):
    return x * x + add


def _all_analyzers():
    return [TemporalAnalyzer(), StreamingProfileAnalyzer()]


def _as_comparable(result):
    """EngineResult payloads as plain dicts (for equality across runs)."""
    return {
        name: {vid: dataclasses.asdict(r) for vid, r in per_vol.items()}
        for name, per_vol in result.per_volume.items()
    }


@pytest.fixture(scope="module")
def two_volume_dataset():
    v0 = make_trace(
        "v0",
        timestamps=[0.0, 1.0, 2.0, 3.0, 10.0, 11.0],
        offsets=[0, 4096, 0, 0, 8192, 0],
        sizes=[4096] * 6,
        is_write=[True, False, True, False, True, True],
    )
    v1 = make_trace(
        "v1",
        timestamps=[0.5, 1.5, 2.5],
        offsets=[0, 0, 4096],
        sizes=[4096, 8192, 4096],
        is_write=[False, True, False],
    )
    return TraceDataset("pair", {"v0": v0, "v1": v1})


class TestParallelMap:
    def test_sequential_matches_parallel(self):
        items = list(range(8))
        assert parallel_map(_square, items, 1) == parallel_map(_square, items, 4)

    def test_kwargs_bound(self):
        assert parallel_map(_square, [2, 3], 2, add=1) == [5, 10]

    def test_empty(self):
        assert parallel_map(_square, [], 4) == []


class TestRunDataset:
    def test_all_analyzers_present(self, two_volume_dataset):
        result = run_dataset(two_volume_dataset, _all_analyzers())
        assert set(result.per_volume) == {"temporal", "streaming_profile"}
        assert result.volume_ids() == ["v0", "v1"]
        assert result.n_volumes == 2

    def test_volume_accessor(self, two_volume_dataset):
        result = run_dataset(two_volume_dataset, _all_analyzers())
        per_analyzer = result.volume("v0")
        assert set(per_analyzer) == set(result.per_volume)
        assert per_analyzer["streaming_profile"].n_requests == 6

    def test_skips_empty_volumes(self):
        dataset = TraceDataset("one", {"v0": make_trace("v0")})
        dataset.add(make_trace("empty", timestamps=[], offsets=[], sizes=[], is_write=[]))
        result = run_dataset(dataset, [StreamingProfileAnalyzer()])
        assert result.volume_ids() == ["v0"]

    def test_duplicate_analyzer_names_rejected(self, two_volume_dataset):
        with pytest.raises(ValueError, match="unique"):
            run_dataset(
                two_volume_dataset, [StreamingProfileAnalyzer(), StreamingProfileAnalyzer()]
            )

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 1000])
    def test_chunk_size_invariant(self, two_volume_dataset, chunk_size):
        baseline = _as_comparable(run_dataset(two_volume_dataset, _all_analyzers()))
        got = _as_comparable(
            run_dataset(two_volume_dataset, _all_analyzers(), chunk_size=chunk_size)
        )
        assert got == baseline

    def test_worker_count_invariant(self, two_volume_dataset):
        one = run_dataset(two_volume_dataset, _all_analyzers(), chunk_size=2, workers=1)
        four = run_dataset(two_volume_dataset, _all_analyzers(), chunk_size=2, workers=4)
        assert _as_comparable(one) == _as_comparable(four)
        assert four.workers == 4


class TestRunFiles:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("traces")
        v0 = make_trace(
            "v0",
            timestamps=[0.0, 1.0, 2.0, 3.0, 10.0, 11.0],
            offsets=[0, 4096, 0, 0, 8192, 0],
            sizes=[4096] * 6,
            is_write=[True, False, True, False, True, True],
        )
        v1 = make_trace(
            "v1",
            timestamps=[0.5, 1.5, 2.5],
            offsets=[0, 0, 4096],
            sizes=[4096, 8192, 4096],
            is_write=[False, True, False],
        )
        write_dataset_dir(TraceDataset("pair", {"v0": v0, "v1": v1}), str(out), fmt="alicloud")
        return str(out)

    def test_directory_matches_dataset(self, trace_dir, two_volume_dataset):
        from_dir = run(trace_dir, _all_analyzers(), chunk_size=2)
        from_ds = run(two_volume_dataset, _all_analyzers(), chunk_size=2)
        assert _as_comparable(from_dir) == _as_comparable(from_ds)

    def test_worker_count_invariant(self, trace_dir):
        one = run(trace_dir, _all_analyzers(), chunk_size=2, workers=1)
        four = run(trace_dir, _all_analyzers(), chunk_size=2, workers=4)
        assert _as_comparable(one) == _as_comparable(four)

    def test_volume_split_across_files_matches_single_file(self, tmp_path):
        # One volume's stream split at a file boundary: the ordered merge
        # must reconstruct cross-file facts (gap, same-block transition).
        lines = [
            "v0,W,0,4096,1000000",
            "v0,R,0,4096,2000000",
            "v0,W,0,4096,3000000",
            "v0,R,4096,4096,4000000",
        ]
        single = tmp_path / "single"
        split = tmp_path / "split"
        single.mkdir(), split.mkdir()
        (single / "all.csv").write_text("".join(l + "\n" for l in lines))
        (split / "a.csv").write_text("".join(l + "\n" for l in lines[:2]))
        (split / "b.csv").write_text("".join(l + "\n" for l in lines[2:]))
        one = run(str(single), _all_analyzers(), chunk_size=1)
        two = run(str(split), _all_analyzers(), chunk_size=1, workers=2)
        assert _as_comparable(one) == _as_comparable(two)
        temporal = two.analyzer("temporal")["v0"]
        # W@1 -> R@2 -> W@3 on block 0: one RAW, one WAR, zero WAW pairs…
        assert temporal.counts == {"RAR": 0, "WAR": 1, "RAW": 1, "WAW": 0}
        # …but W@1 and W@3 are consecutive writes: one update interval of 2 s.
        assert temporal.update_count == 1
        assert temporal.update_interval_percentiles[50.0] == pytest.approx(2.0)

    def test_misordered_merge_rejected(self, tmp_path):
        # Files merge in sorted-path order; a later file holding earlier
        # timestamps must be detected, not silently miscounted.
        (tmp_path / "a.csv").write_text("v0,R,0,4096,5000000\n")
        (tmp_path / "b.csv").write_text("v0,R,0,4096,1000000\n")
        with pytest.raises(ValueError, match="time-ordered"):
            run(str(tmp_path), [StreamingProfileAnalyzer()])
