#!/usr/bin/env python
"""SSD endurance study: replaying workload update patterns through an FTL.

The paper's storage-cluster implications (Findings 8, 11, 14) connect
update patterns to flash health: skewed, random overwrites stress garbage
collection and wear leveling.  This example replays the write streams of
volumes with different update behaviour through the page-mapped FTL
substrate and reports write amplification and wear.

Run:  python examples/ssd_endurance.py
"""

import numpy as np

from repro.cluster import PageMappedFTL, SSDGeometry
from repro.core import format_table, update_coverage
from repro.synth import Scale, make_alicloud_fleet
from repro.trace.blocks import block_view

SCALE = Scale(n_days=8, day_seconds=60.0)
MAX_WRITES = 40_000


def replay_volume(volume):
    """Replay a volume's (renumbered) write blocks through a fresh FTL."""
    view = block_view(volume)
    writes = view.block_id[view.is_write]
    if len(writes) == 0:
        return None
    blocks, inverse = np.unique(writes, return_inverse=True)
    n_logical = len(blocks)
    pages_per_block = 64
    # Flash sized to the volume's write working set + 15% headroom.
    n_flash_blocks = max(8, int(np.ceil(n_logical * 1.15 / pages_per_block)) + 4)
    ftl = PageMappedFTL(
        SSDGeometry(n_blocks=n_flash_blocks, pages_per_block=pages_per_block),
        op_ratio=0.08,
    )
    logicals = inverse[:MAX_WRITES] % ftl.logical_capacity_blocks
    ftl.write_many(logicals.tolist())
    stats = ftl.stats()
    return {
        "writes": int(stats.host_writes),
        "wa": stats.write_amplification,
        "erases": stats.erases,
        "wear": ftl.device.wear_imbalance,
    }


def main() -> None:
    fleet = make_alicloud_fleet(n_volumes=30, seed=5, scale=SCALE)

    # Pick volumes spanning the update-coverage spectrum (Finding 11).
    scored = [
        (update_coverage(v), v)
        for v in fleet.non_empty_volumes()
        if v.n_writes > 3000
    ]
    scored.sort(key=lambda t: t[0])
    picks = [scored[0], scored[len(scored) // 2], scored[-1]]

    print("Replaying write streams through the page-mapped FTL...\n")
    rows = []
    for coverage, volume in picks:
        result = replay_volume(volume)
        rows.append(
            [
                volume.volume_id,
                f"{coverage:.1%}",
                result["writes"],
                f"{result['wa']:.2f}",
                result["erases"],
                f"{result['wear']:.2f}",
            ]
        )
    print(format_table(
        ["volume", "update coverage", "host writes", "write amp", "erases", "wear max/mean"],
        rows, title="FTL replay (greedy GC, 8% over-provisioning)",
    ))

    print(
        "\nReading the table with the paper's Section V eyes: volumes that"
        "\nrewrite a large share of their working set keep the FTL busy —"
        "\nGC relocations (write amplification) and erase wear rise with"
        "\nupdate intensity and spatial randomness.  Log-structured designs"
        "\nand system-level FTL coordination are the mitigations the paper"
        "\npoints to."
    )


if __name__ == "__main__":
    main()
