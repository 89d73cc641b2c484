"""The block view against a naive per-block replay, and one view per volume.

Every block metric derived from :class:`repro.trace.blocks.BlockView`
must equal ``block_oracle.replay`` exactly, on seeded traces with heavy
timestamp ties (including a read and a write to one block at one
timestamp), unaligned multi-block requests, and empty, single-request,
read-only and write-only volumes.  Each command's one pass must build
every non-empty volume's view exactly once.
"""

import math

import numpy as np
import pytest

from block_oracle import CACHE_FRACTIONS, KINDS, replay
from conftest import make_trace
from repro.core import (
    adjacent_access_times,
    basic_statistics,
    compare_datasets,
    compute_profile,
    dataset_adjacent_access_times,
    dataset_miss_ratios,
    dataset_mostly_traffic,
    dataset_update_intervals,
    evaluate_findings,
    mostly_traffic,
    render_experiments,
    topk_block_traffic_fraction,
    update_coverage,
    update_intervals,
    volume_miss_ratios,
    working_sets,
)
from repro.obs import collecting
from repro.trace import TraceDataset, VolumeTrace


def _seeded(seed, n, span_blocks, ties, write_fraction):
    """``n`` requests over ``span_blocks`` blocks, at sector-aligned (not
    block-aligned) offsets, on ``ties`` distinct timestamps."""
    rng = np.random.default_rng(seed)
    return VolumeTrace(
        f"s{seed}",
        np.sort(rng.integers(0, ties, n)) * 0.25,
        rng.integers(0, span_blocks * 8, n) * 512,
        rng.choice([512, 4096, 6144, 8192, 12800, 65536], n),
        rng.random(n) < write_fraction,
        presorted=True,
    )


def _volumes():
    return [
        _seeded(0, 400, 30, 40, 0.6),
        _seeded(1, 900, 200, 900, 0.3),
        _seeded(2, 600, 12, 5, 0.5),
        _seeded(3, 300, 50, 300, 1.0),
        _seeded(4, 300, 50, 20, 0.0),
        # A read and a write to one block at one timestamp, both orders.
        make_trace("tie", timestamps=[1.0, 1.0, 1.0, 2.0, 2.0], offsets=[0, 0, 100, 0, 0],
                   sizes=[4096, 4096, 8000, 512, 4096], is_write=[False, True, True, True, False]),
        make_trace("one", timestamps=[3.0], offsets=[1000], sizes=[20000], is_write=[True]),
        make_trace("reads", offsets=[0, 4096, 0, 8192], is_write=[False] * 4),
        make_trace("writes", offsets=[0, 4096, 0, 0], is_write=[True] * 4),
        VolumeTrace.empty("empty"),
    ]


VOLUMES = _volumes()


def _same(a, b):
    """Equal, with NaN equal to NaN and arrays compared element by element."""
    if isinstance(a, (list, tuple, np.ndarray)) or isinstance(b, (list, tuple, np.ndarray)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def _transitions(at):
    return {kind: at.get(kind).tolist() for kind in KINDS.values()}


def _miss(results):
    return {
        r.cache_fraction: (r.capacity_blocks, (r.result.read_hits, r.result.read_misses,
                                               r.result.write_hits, r.result.write_misses))
        for r in results
    }


@pytest.mark.parametrize("trace", VOLUMES, ids=[v.volume_id for v in VOLUMES])
class TestPerVolume:
    def test_wrappers_match_oracle(self, trace):
        want = replay(trace)
        ws = working_sets(trace)
        assert (ws.total, ws.read, ws.write, ws.update) == want["working_sets"]
        assert _same(update_coverage(trace), want["update_coverage"])
        for (op, k), value in want["top"].items():
            assert _same(topk_block_traffic_fraction(trace, k, op), value), (op, k)
        mostly = mostly_traffic(trace)
        assert _same((mostly.read_to_read_mostly, mostly.write_to_write_mostly), want["mostly"])
        assert _transitions(adjacent_access_times(trace)) == want["transitions"]
        assert update_intervals(trace).tolist() == want["update_intervals"]
        assert _miss(volume_miss_ratios(trace, CACHE_FRACTIONS)) == want["miss"]

    def test_summary_matches_oracle(self, trace):
        """The block part of the volume profile."""
        want = replay(trace)
        got = compute_profile(trace)
        ws = got.working_sets
        assert (ws.total, ws.read, ws.write, ws.update) == want["working_sets"]
        assert got.update_traffic == want["update_traffic"]
        assert _same(got.update_coverage, want["update_coverage"])
        for op in ("read", "write"):
            for k in (0.01, 0.10):
                value = getattr(got, f"top{int(k * 100)}_{op}_traffic")
                assert _same(value, want["top"][op, k]), (op, k)
        assert got.mostly_bytes == want["mostly_bytes"]
        assert _same((got.read_to_read_mostly, got.write_to_write_mostly), want["mostly"])
        assert _transitions(got.transitions) == want["transitions"]
        for kind, times in want["transitions"].items():
            median = float(np.median(times)) if times else float("nan")
            assert _same(getattr(got, f"median_{kind}_time"), median), kind
        assert got.update_intervals.tolist() == want["update_intervals"]
        assert _miss(got.miss_ratios) == {f: want["miss"][f] for f in (0.01, 0.10) if want["miss"]}


def test_dataset_pools_match_oracle():
    dataset = TraceDataset("oracle", {v.volume_id: v for v in VOLUMES})
    wants = [replay(v) for v in VOLUMES]

    transitions = dataset_adjacent_access_times(dataset)
    for kind in KINDS.values():
        pooled = [dt for w in wants for dt in w["transitions"][kind]]
        assert transitions.get(kind).tolist() == pooled
    assert dataset_update_intervals(dataset).tolist() == [
        dt for w in wants for dt in w["update_intervals"]
    ]

    sums = [sum(float(w["mostly_bytes"][i]) for w in wants) for i in range(4)]
    mostly = dataset_mostly_traffic(dataset)
    assert (mostly.read_to_read_mostly, mostly.write_to_write_mostly) == (
        sums[0] / sums[2], sums[1] / sums[3]
    )

    summary = dataset_miss_ratios(dataset, CACHE_FRACTIONS)
    for fraction in CACHE_FRACTIONS:
        counts = [w["miss"][fraction][1] for w in wants if w["miss"]]
        reads = [(hits, misses) for hits, misses, _, _ in counts if hits + misses]
        writes = [(hits, misses) for _, _, hits, misses in counts if hits + misses]
        assert summary.read[fraction].tolist() == [m / (h + m) for h, m in reads]
        assert summary.write[fraction].tolist() == [m / (h + m) for h, m in writes]

    stats = basic_statistics(dataset)
    tib = 1024**4
    assert stats.update_traffic_tib == sum(w["update_traffic"] for w in wants) / tib
    assert stats.wss_update_tib == sum(w["working_sets"][3] for w in wants) / tib


class TestOneViewPerVolume:
    """``trace.blocks.expansions`` counts the block streams built."""

    @staticmethod
    def _expansions(fn, *args, **kwargs):
        with collecting() as reg:
            fn(*args, **kwargs)
        return reg.counter("trace.blocks.expansions").value

    def test_evaluate_findings(self, tiny_ali, tiny_msrc):
        want = len(tiny_ali.non_empty_volumes()) + len(tiny_msrc.non_empty_volumes())
        assert self._expansions(evaluate_findings, tiny_ali, tiny_msrc) == want

    def test_compute_profile(self, tiny_ali):
        for volume in tiny_ali.non_empty_volumes()[:3]:
            assert self._expansions(compute_profile, volume) == 1

    def test_basic_statistics(self, tiny_ali):
        want = len(tiny_ali.non_empty_volumes())
        assert self._expansions(basic_statistics, tiny_ali) == want
        assert self._expansions(basic_statistics, tiny_ali, workers=2) == want

    def test_render_experiments(self, tiny_ali, tiny_msrc):
        want = len(tiny_ali.non_empty_volumes()) + len(tiny_msrc.non_empty_volumes())
        assert self._expansions(render_experiments, tiny_ali, tiny_msrc, 600.0) == want

    def test_compare_datasets(self, tiny_ali, tiny_msrc):
        want = len(tiny_ali.non_empty_volumes()) + len(tiny_msrc.non_empty_volumes())
        assert self._expansions(compare_datasets, tiny_ali, tiny_msrc) == want
