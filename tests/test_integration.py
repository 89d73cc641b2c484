"""Cross-module integration tests: full pipelines over synthetic fleets."""

import numpy as np
import pytest

from repro.cache import LRUCache, mrc_from_stream, simulate_trace
from repro.cluster import (
    LeastLoadedPlacement,
    PageMappedFTL,
    RoundRobinPlacement,
    SSDGeometry,
    measure_imbalance,
    place_dataset,
)
from repro.core import (
    basic_statistics,
    compute_profile,
    dataset_miss_ratios,
    randomness_ratio,
    update_coverage,
)
from repro.engine import read_dataset_dir_chunked
from repro.trace import write_alicloud
from repro.trace.blocks import block_view



class TestGenerateAnalyzeRoundTrip:
    """Fleet -> trace file -> reader -> metrics equals in-memory metrics."""

    def test_metrics_survive_serialization(self, tiny_ali, tmp_path):
        path = str(tmp_path / "fleet.csv")
        write_alicloud(tiny_ali, path)
        back = read_dataset_dir_chunked(str(tmp_path), name=tiny_ali.name)
        # Timestamps quantize to microseconds in the file; counts and
        # byte-exact metrics are preserved.
        assert back.n_requests == tiny_ali.n_requests
        assert back.n_writes == tiny_ali.n_writes
        assert back.read_bytes == tiny_ali.read_bytes
        for vid in tiny_ali.volume_ids():
            if vid not in back:  # empty volumes are not serialized
                assert len(tiny_ali[vid]) == 0
                continue
            assert update_coverage(back[vid]) == pytest.approx(
                update_coverage(tiny_ali[vid]), nan_ok=True
            )
            assert randomness_ratio(back[vid]) == pytest.approx(
                randomness_ratio(tiny_ali[vid]), nan_ok=True, abs=1e-6
            )

    def test_basic_statistics_consistency(self, tiny_ali):
        stats = basic_statistics(tiny_ali)
        assert stats.n_requests_millions * 1e6 == pytest.approx(tiny_ali.n_requests)
        # WSS subadditivity: read + write >= total >= max(read, write).
        assert stats.wss_read_tib + stats.wss_write_tib >= stats.wss_total_tib - 1e-12
        assert stats.wss_total_tib >= max(stats.wss_read_tib, stats.wss_write_tib) - 1e-12
        assert stats.wss_update_tib <= stats.wss_write_tib + 1e-12
        # Update traffic cannot exceed write traffic.
        assert stats.update_traffic_tib <= stats.write_traffic_tib + 1e-12


class TestCacheConsistency:
    def test_simulator_matches_mrc(self, tiny_ali):
        """Trace-driven LRU simulation equals the MRC prediction."""
        vol = max(tiny_ali.non_empty_volumes(), key=len)
        ev = block_view(vol)
        mrc = mrc_from_stream(ev.block_id)
        wss = len(np.unique(ev.block_id))
        for frac in (0.01, 0.10, 0.5):
            cap = max(1, int(round(frac * wss)))
            res = simulate_trace(vol, LRUCache, cap)
            assert res.miss_ratio == pytest.approx(mrc.miss_ratio(cap))

    def test_fleet_miss_ratio_monotonicity(self, tiny_ali):
        summary = dataset_miss_ratios(tiny_ali, (0.01, 0.10))
        # Per-volume LRU miss ratios are non-increasing in cache size.
        assert (summary.read[0.10] <= summary.read[0.01] + 1e-12).all()
        assert (summary.write[0.10] <= summary.write[0.01] + 1e-12).all()


class TestClusterPipeline:
    def test_placement_end_to_end(self, tiny_ali):
        for policy in (RoundRobinPlacement(4), LeastLoadedPlacement(4)):
            placement = place_dataset(tiny_ali, policy)
            report = measure_imbalance(tiny_ali, placement, 4, interval=30.0)
            assert report.device_totals.sum() == tiny_ali.n_requests
            assert report.mean_peak_to_mean >= 1.0

    def test_least_loaded_no_worse_than_round_robin(self, tiny_ali):
        rr = measure_imbalance(
            tiny_ali, place_dataset(tiny_ali, RoundRobinPlacement(4)), 4, interval=30.0
        )
        ll = measure_imbalance(
            tiny_ali, place_dataset(tiny_ali, LeastLoadedPlacement(4)), 4, interval=30.0
        )
        # LPT on observed load should not be significantly worse.
        assert ll.mean_cov <= rr.mean_cov * 1.5

    def test_ftl_replay_of_volume_writes(self, tiny_ali):
        """Replay a volume's write blocks through the FTL substrate."""
        vol = max(tiny_ali.non_empty_volumes(), key=lambda v: v.n_writes)
        view = block_view(vol)
        writes = view.block_id[view.is_write]
        blocks, inverse = np.unique(writes, return_inverse=True)
        n_logical = len(blocks)
        pages_per_block = 32
        n_flash_blocks = max(8, int(n_logical * 1.3 / pages_per_block) + 4)
        ftl = PageMappedFTL(
            SSDGeometry(n_blocks=n_flash_blocks, pages_per_block=pages_per_block),
            op_ratio=0.1,
        )
        # Map trace blocks onto the logical space (dense renumbering).
        limit = min(len(inverse), 20000)
        logicals = inverse[:limit] % ftl.logical_capacity_blocks
        ftl.write_many(logicals.tolist())
        stats = ftl.stats()
        assert stats.host_writes == limit
        assert stats.write_amplification >= 1.0


class TestProfilePipeline:
    def test_profiles_for_whole_fleet(self, tiny_msrc):
        profiles = [compute_profile(v) for v in tiny_msrc.non_empty_volumes()]
        assert profiles
        # Aggregates derived from profiles match dataset-level counters.
        assert sum(p.n_requests for p in profiles) == tiny_msrc.n_requests
        assert sum(p.read_bytes for p in profiles) == tiny_msrc.read_bytes
