"""Tests for repro.core.spatial (Findings 8-11 metrics)."""

import numpy as np
import pytest

from repro.core import (
    dataset_mostly_traffic,
    mostly_traffic,
    random_request_mask,
    randomness_ratio,
    topk_block_traffic_fraction,
    update_coverage,
    working_sets,
)
from repro.core.spatial import _topk_fraction
from repro.trace import TraceDataset, VolumeTrace

from conftest import make_trace

BS = 4096
MIB = 1024 * 1024


class TestRandomness:
    def test_sequential_stream_not_random(self):
        offsets = [i * BS for i in range(40)]
        tr = make_trace(timestamps=list(range(40)), offsets=offsets, sizes=[BS] * 40, is_write=[False] * 40)
        mask = random_request_mask(tr)
        # Only the very first request (no predecessor) counts as random.
        assert mask[0]
        assert not mask[1:].any()

    def test_scattered_stream_random(self):
        offsets = [i * 10 * MIB for i in range(40)]
        tr = make_trace(timestamps=list(range(40)), offsets=offsets, sizes=[BS] * 40, is_write=[False] * 40)
        assert randomness_ratio(tr) == 1.0

    def test_revisit_within_window_not_random(self):
        # Jump far away, then return to a recent offset.
        offsets = [0, 50 * MIB, 0]
        tr = make_trace(timestamps=[0, 1, 2], offsets=offsets, sizes=[BS] * 3, is_write=[False] * 3)
        mask = random_request_mask(tr, window=32)
        assert not mask[2]

    def test_revisit_outside_window_is_random(self):
        offsets = [0] + [50 * MIB + i * MIB for i in range(40)] + [0]
        n = len(offsets)
        tr = make_trace(timestamps=list(range(n)), offsets=offsets, sizes=[BS] * n, is_write=[False] * n)
        mask = random_request_mask(tr, window=32)
        assert mask[-1]  # the return to 0 is >32 requests later

    def test_threshold_boundary(self):
        # Distance exactly at the threshold is NOT random (must exceed).
        offsets = [0, 128 * 1024]
        tr = make_trace(timestamps=[0, 1], offsets=offsets, sizes=[512] * 2, is_write=[False] * 2)
        mask = random_request_mask(tr)
        assert not mask[1]
        mask2 = random_request_mask(tr, threshold=128 * 1024 - 1)
        assert mask2[1]

    def test_empty_is_nan(self):
        assert np.isnan(randomness_ratio(VolumeTrace.empty("v")))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            random_request_mask(make_trace(), window=0)

    @pytest.mark.parametrize("n", [1, 2, 5, 33, 200])
    def test_mask_equals_pairwise_definition(self, n):
        rng = np.random.default_rng(n)
        offsets = rng.integers(0, 64, n) * 64 * 1024
        tr = make_trace(timestamps=list(range(n)), offsets=offsets.tolist(),
                        sizes=[BS] * n, is_write=[False] * n)
        want = [
            i == 0 or min(abs(int(offsets[i]) - int(offsets[j]))
                          for j in range(max(0, i - 32), i)) > 128 * 1024
            for i in range(n)
        ]
        assert random_request_mask(tr).tolist() == want


class TestTopKTraffic:
    def test_uniform_traffic(self):
        # 10 blocks, equal traffic: top 10% (1 block) holds 10%.
        offsets = [i * BS for i in range(10)]
        tr = make_trace(timestamps=list(range(10)), offsets=offsets, sizes=[BS] * 10, is_write=[False] * 10)
        assert topk_block_traffic_fraction(tr, 0.10, "read") == pytest.approx(0.1)

    def test_skewed_traffic(self):
        # One block gets 11 accesses, nine get 1: top-10% = 11/20.
        offsets = [0] * 11 + [i * BS for i in range(1, 10)]
        n = len(offsets)
        tr = make_trace(timestamps=list(range(n)), offsets=offsets, sizes=[BS] * n, is_write=[False] * n)
        assert topk_block_traffic_fraction(tr, 0.10, "read") == pytest.approx(11 / 20)

    def test_at_least_one_block(self):
        tr = make_trace(timestamps=[0], offsets=[0], sizes=[BS], is_write=[False])
        assert topk_block_traffic_fraction(tr, 0.01, "read") == 1.0

    def test_no_matching_op_is_nan(self):
        tr = make_trace(is_write=[True] * 4)
        assert np.isnan(topk_block_traffic_fraction(tr, 0.1, "read"))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            topk_block_traffic_fraction(make_trace(), 0.0, "read")
        with pytest.raises(ValueError):
            topk_block_traffic_fraction(make_trace(), 0.1, "both")

    @pytest.mark.parametrize("fraction", [0.01, 0.10, 0.5, 1.0])
    def test_selection_equals_sorted_top_k(self, fraction):
        # Ties and zeros included: the top-k multiset, hence its int64 sum,
        # is the one a full sort would pick.
        traffic = np.random.default_rng(1).integers(0, 20, 1000).astype(np.int64) * BS
        nonzero = traffic[traffic > 0]
        k = max(1, int(len(nonzero) * fraction))
        want = float(np.sort(nonzero)[-k:].sum() / nonzero.sum())
        assert _topk_fraction(traffic, fraction) == want

    def test_full_fraction_is_total(self):
        tr = make_trace(is_write=[False] * 4)
        assert topk_block_traffic_fraction(tr, 1.0, "read") == pytest.approx(1.0)


class TestMostlyTraffic:
    def test_disjoint_read_write_blocks(self):
        tr = make_trace(
            timestamps=[0, 1, 2, 3],
            offsets=[0, 0, BS, BS],
            sizes=[BS] * 4,
            is_write=[False, False, True, True],
        )
        m = mostly_traffic(tr)
        assert m.read_to_read_mostly == 1.0
        assert m.write_to_write_mostly == 1.0

    def test_fully_mixed_blocks(self):
        tr = make_trace(
            timestamps=[0, 1],
            offsets=[0, 0],
            sizes=[BS, BS],
            is_write=[False, True],
        )
        m = mostly_traffic(tr)
        assert m.read_to_read_mostly == 0.0
        assert m.write_to_write_mostly == 0.0

    def test_threshold_effect(self):
        # Block traffic: 96% read, 4% write.
        tr = make_trace(
            timestamps=list(range(25)),
            offsets=[0] * 25,
            sizes=[BS] * 25,
            is_write=[True] + [False] * 24,
        )
        assert mostly_traffic(tr, threshold=0.95).read_to_read_mostly == 1.0
        assert mostly_traffic(tr, threshold=0.97).read_to_read_mostly == 0.0

    def test_dataset_aggregation_weighted_by_traffic(self):
        ds = TraceDataset("d")
        # v0: all reads to read-mostly blocks (traffic 4 blocks).
        ds.add(
            make_trace(
                "v0", timestamps=[0, 1, 2, 3], offsets=[0, BS, 2 * BS, 3 * BS],
                sizes=[BS] * 4, is_write=[False] * 4,
            )
        )
        # v1: mixed single block (read traffic 1 block, not read-mostly).
        ds.add(
            make_trace(
                "v1", timestamps=[0, 1], offsets=[0, 0], sizes=[BS, BS],
                is_write=[False, True],
            )
        )
        m = dataset_mostly_traffic(ds)
        assert m.read_to_read_mostly == pytest.approx(4 / 5)

    def test_write_only_volume(self):
        tr = make_trace(is_write=[True] * 4)
        m = mostly_traffic(tr)
        assert np.isnan(m.read_to_read_mostly)
        assert m.write_to_write_mostly == 1.0


class TestWorkingSets:
    def test_counts(self):
        tr = make_trace(
            timestamps=[0, 1, 2, 3],
            offsets=[0, 0, BS, 2 * BS],
            sizes=[BS] * 4,
            is_write=[True, True, True, False],
        )
        ws = working_sets(tr)
        assert ws.total == 3 * BS
        assert ws.read == BS
        assert ws.write == 2 * BS
        assert ws.update == BS  # block 0 written twice

    def test_empty(self):
        ws = working_sets(VolumeTrace.empty("v"))
        assert ws.total == ws.read == ws.write == ws.update == 0

    def test_update_requires_two_writes(self):
        # Read-write-read to same block: written once -> no update.
        tr = make_trace(
            timestamps=[0, 1, 2], offsets=[0, 0, 0], sizes=[BS] * 3,
            is_write=[False, True, False],
        )
        assert working_sets(tr).update == 0


class TestUpdateCoverage:
    def test_full_coverage(self):
        tr = make_trace(
            timestamps=[0, 1, 2, 3], offsets=[0, 0, BS, BS], sizes=[BS] * 4,
            is_write=[True] * 4,
        )
        assert update_coverage(tr) == pytest.approx(1.0)

    def test_no_rewrites(self):
        tr = make_trace(is_write=[True] * 4)  # distinct offsets by default
        assert update_coverage(tr) == 0.0

    def test_empty_is_nan(self):
        assert np.isnan(update_coverage(VolumeTrace.empty("v")))

    def test_reads_dilute_coverage(self):
        tr = make_trace(
            timestamps=[0, 1, 2, 3],
            offsets=[0, 0, BS, 2 * BS],
            sizes=[BS] * 4,
            is_write=[True, True, False, False],
        )
        assert update_coverage(tr) == pytest.approx(1 / 3)
