"""Tests for repro.core.cache_analysis (Finding 15) and core.report."""

import numpy as np
import pytest

from repro.cache import FIFOCache, LRUCache, simulate_stream
from repro.core import (
    dataset_miss_ratios,
    format_boxplot_rows,
    format_bytes,
    format_cdf,
    format_duration,
    format_table,
    volume_miss_ratios,
)
from repro.obs import collecting, traced
from repro.stats import EmpiricalCDF
from repro.trace import TraceDataset, VolumeTrace
from repro.trace.blocks import block_view

from conftest import make_trace

BS = 4096


class TestVolumeMissRatios:
    def test_capacity_proportional_to_wss(self):
        # 100 distinct blocks -> 1% cache = 1 block, 10% = 10 blocks.
        offsets = [i * BS for i in range(100)]
        tr = make_trace(
            timestamps=list(range(100)), offsets=offsets, sizes=[BS] * 100,
            is_write=[False] * 100,
        )
        results = volume_miss_ratios(tr)
        caps = {r.cache_fraction: r.capacity_blocks for r in results}
        assert caps == {0.01: 1, 0.10: 10}

    def test_cold_scan_all_misses(self):
        offsets = [i * BS for i in range(50)]
        tr = make_trace(
            timestamps=list(range(50)), offsets=offsets, sizes=[BS] * 50,
            is_write=[False] * 50,
        )
        for r in volume_miss_ratios(tr):
            assert r.read_miss_ratio == 1.0

    def test_hot_loop_mostly_hits(self):
        offsets = [(i % 5) * BS for i in range(100)]
        tr = make_trace(
            timestamps=list(range(100)), offsets=offsets, sizes=[BS] * 100,
            is_write=[True] * 100,
        )
        results = volume_miss_ratios(tr, cache_fractions=(1.0,))
        assert results[0].write_miss_ratio == pytest.approx(5 / 100)

    def test_larger_cache_never_worse_for_lru(self):
        rng = np.random.default_rng(0)
        offsets = (rng.integers(0, 200, size=500) * BS).tolist()
        tr = make_trace(
            timestamps=list(range(500)), offsets=offsets, sizes=[BS] * 500,
            is_write=(rng.random(500) < 0.5).tolist(),
        )
        results = {r.cache_fraction: r for r in volume_miss_ratios(tr)}
        assert results[0.10].result.miss_ratio <= results[0.01].result.miss_ratio

    def test_empty_volume_skipped(self):
        assert volume_miss_ratios(VolumeTrace.empty("v")) == []

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            volume_miss_ratios(make_trace(), cache_fractions=(0.0,))

    def test_alternate_policy_factory(self):
        offsets = [(i % 5) * BS for i in range(50)]
        tr = make_trace(
            timestamps=list(range(50)), offsets=offsets, sizes=[BS] * 50,
            is_write=[False] * 50,
        )
        res = volume_miss_ratios(tr, (1.0,), policy_factory=FIFOCache)
        assert res[0].result.policy == "fifo"


def _random_trace(seed: int, n_requests: int, span_blocks: int) -> VolumeTrace:
    """Unaligned multi-block requests over ``span_blocks`` blocks, mixed ops."""
    rng = np.random.default_rng(seed)
    return VolumeTrace(
        f"rnd{seed}",
        np.sort(rng.random(n_requests) * 100),
        rng.integers(0, span_blocks * BS, size=n_requests),
        rng.choice([512, 4096, 8192, 12288, 65536], size=n_requests),
        rng.random(n_requests) < 0.6,
        presorted=True,
    )


class TestLRUFromReuseDistances:
    """The default (LRU) path counts hits from reuse distances instead of
    replaying the stream; it must agree with the replay in every number."""

    FRACTIONS = (0.01, 0.1, 1.0)

    @pytest.mark.parametrize(
        "seed,n_requests,span_blocks", [(0, 300, 40), (1, 2000, 120), (2, 3000, 900), (3, 1, 1)]
    )
    @pytest.mark.parametrize("policy", [LRUCache, FIFOCache])
    def test_matches_replay(self, seed, n_requests, span_blocks, policy):
        tr = _random_trace(seed, n_requests, span_blocks)
        with collecting() as fast_reg, traced():
            results = volume_miss_ratios(tr, self.FRACTIONS, policy_factory=policy)
        with collecting() as replay_reg, traced():
            ev = block_view(tr, BS)
            replayed = [
                simulate_stream(ev.block_id, ev.is_write, policy(r.capacity_blocks))
                for r in results
            ]
        assert [r.result for r in results] == replayed
        fast, slow = fast_reg.snapshot(), replay_reg.snapshot()
        assert fast["counters"] == slow["counters"]
        spans = "span.cache_simulate.seconds"
        assert fast["histograms"][spans]["count"] == slow["histograms"][spans]["count"]

    def test_covers_capacity_one(self):
        results = volume_miss_ratios(_random_trace(0, 300, 40), self.FRACTIONS)
        caps = [r.capacity_blocks for r in results]
        assert caps[0] == 1 and caps[-1] > caps[0]


class TestDatasetMissRatios:
    def test_summary_structure(self, tiny_ali):
        summary = dataset_miss_ratios(tiny_ali, (0.01, 0.10))
        assert summary.fractions() == [0.01, 0.10]
        assert len(summary.write[0.01]) > 0
        # All ratios are valid probabilities.
        for arr in list(summary.read.values()) + list(summary.write.values()):
            assert ((arr >= 0) & (arr <= 1)).all()

    def test_read_free_volume_contributes_no_read_sample(self):
        ds = TraceDataset("d")
        ds.add(make_trace("w", is_write=[True] * 4))
        summary = dataset_miss_ratios(ds, (0.5,))
        assert len(summary.read[0.5]) == 0
        assert len(summary.write[0.5]) == 1


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_table_title(self):
        assert format_table(["h"], [["v"]], title="T").startswith("T\n")

    def test_format_cdf_mentions_percentiles(self):
        text = format_cdf(EmpiricalCDF([1, 2, 3, 4]), "sizes", (50,))
        assert "p50" in text and "sizes" in text

    def test_format_boxplot_rows(self):
        text = format_boxplot_rows({"a": [1, 2, 3], "empty": []})
        assert "a" in text and "empty" in text

    def test_format_duration_units(self):
        assert format_duration(5e-6) == "5.0us"
        assert format_duration(0.005) == "5.0ms"
        assert format_duration(30) == "30.0s"
        assert format_duration(120) == "2.0min"
        assert format_duration(7200) == "2.0h"
        assert format_duration(172800) == "2.0d"
        assert format_duration(float("nan")) == "-"

    def test_format_bytes_units(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024**4) == "3.0TiB"

    def test_nan_cell_renders_dash(self):
        text = format_table(["x"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]
