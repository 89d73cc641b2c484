"""Ablation — wear leveling under cloud update patterns (Finding 11/14
implication).

The paper warns that varying update patterns harm flash wear leveling.
This bench replays the write stream of a high-update-coverage synthetic
volume through the FTL under three wear policies and reports erase-count
imbalance and write amplification: wear-aware allocation tightens the
erase distribution, and cold swaps tighten it further at a bounded
relocation cost.
"""

import numpy as np

from repro.cluster import SSDGeometry, compare_wear_leveling
from repro.core import format_table, update_coverage
from repro.trace.blocks import block_view

from conftest import run_once


def test_ablation_wear_leveling(benchmark, ali):
    # The most update-intensive volume with a meaningful write stream.
    candidates = [v for v in ali.non_empty_volumes() if v.n_writes > 5000]
    volume = max(candidates, key=update_coverage)
    view = block_view(volume)
    writes = view.block_id[view.is_write]
    _, inverse = np.unique(writes, return_inverse=True)
    writes = inverse[:60000].tolist()
    geometry = SSDGeometry(n_blocks=64, pages_per_block=32)

    def compute():
        return compare_wear_leveling(writes, geometry, op_ratio=0.15)

    reports = run_once(benchmark, compute)
    print()
    rows = [
        [
            name,
            r.stats.write_amplification,
            r.wear_imbalance,
            r.max_erase,
            r.cold_swaps,
        ]
        for name, r in reports.items()
    ]
    print(
        format_table(
            ["policy", "write amp", "wear max/mean", "max erase", "cold swaps"],
            rows,
            title=f"Ablation: wear leveling on {volume.volume_id} "
            f"(coverage {update_coverage(volume):.0%})",
        )
    )

    # Wear-aware policies never worsen the imbalance materially, and the
    # threshold policy actually performs cold swaps.
    assert reports["dynamic"].wear_imbalance <= reports["none"].wear_imbalance + 0.1
    assert reports["threshold"].wear_imbalance <= reports["none"].wear_imbalance + 0.05
    # Same host work everywhere; amplification stays bounded.
    host = {r.stats.host_writes for r in reports.values()}
    assert len(host) == 1
    for r in reports.values():
        assert 1.0 <= r.stats.write_amplification < 4.0
