#!/usr/bin/env python
"""Cache provisioning study: how much cache does each volume deserve?

The paper's cache-efficiency implications (Findings 9, 10, 15) say that
limited cache resources should go to the volumes whose traffic aggregates
in small hot sets.  This example makes that concrete:

1. build exact miss-ratio curves (MRCs) per volume via reuse distances,
2. validate a cheap SHARDS-sampled MRC against the exact one,
3. greedily allocate a global cache budget across volumes by marginal
   hit gain (the classic MRC-driven partitioning), and
4. compare against a naive equal split.

Run:  python examples/cache_provisioning.py
"""

import numpy as np

from repro.cache import mrc_from_stream, shards_mrc
from repro.core import format_table
from repro.synth import Scale, make_alicloud_fleet
from repro.trace.blocks import block_view

SCALE = Scale(n_days=8, day_seconds=60.0)
BUDGET_FRACTION = 0.05  # global cache = 5% of the fleet's working set


def main() -> None:
    fleet = make_alicloud_fleet(n_volumes=16, seed=21, scale=SCALE)
    volumes = sorted(fleet.non_empty_volumes(), key=len, reverse=True)[:8]

    print("Building exact MRCs for the 8 busiest volumes...")
    mrcs, accesses, wss = {}, {}, {}
    for v in volumes:
        blocks = block_view(v).block_id
        mrcs[v.volume_id] = mrc_from_stream(blocks)
        accesses[v.volume_id] = len(blocks)
        wss[v.volume_id] = len(np.unique(blocks))

    # --- SHARDS validation -------------------------------------------------
    sample = volumes[0]
    blocks = block_view(sample).block_id
    est = shards_mrc(blocks, rate=0.05, seed=3)
    exact = mrcs[sample.volume_id]
    probe = max(1, wss[sample.volume_id] // 10)
    print(
        f"SHARDS check on {sample.volume_id}: exact miss "
        f"{exact.miss_ratio(probe):.1%} vs 5%-sampled {est.miss_ratio(probe):.1%} "
        f"at a {probe}-block cache\n"
    )

    # --- Greedy marginal-gain allocation ------------------------------------
    total_wss = sum(wss.values())
    budget = int(BUDGET_FRACTION * total_wss)
    step = max(1, budget // 200)
    alloc = {vid: 0 for vid in mrcs}

    def hits(vid, blocks_alloc):
        if blocks_alloc == 0:
            return 0.0
        return (1 - mrcs[vid].miss_ratio(blocks_alloc)) * accesses[vid]

    remaining = budget
    while remaining >= step:
        best, best_gain = None, 0.0
        for vid in mrcs:
            gain = hits(vid, alloc[vid] + step) - hits(vid, alloc[vid])
            if gain > best_gain:
                best, best_gain = vid, gain
        if best is None:
            break
        alloc[best] += step
        remaining -= step

    # --- Compare against an equal split ------------------------------------
    equal = {vid: budget // len(mrcs) for vid in mrcs}
    rows = []
    for vid in mrcs:
        rows.append(
            [
                vid,
                wss[vid],
                alloc[vid],
                f"{1 - mrcs[vid].miss_ratio(max(alloc[vid], 1)):.1%}",
                f"{1 - mrcs[vid].miss_ratio(max(equal[vid], 1)):.1%}",
            ]
        )
    print(format_table(
        ["volume", "WSS (blocks)", "greedy alloc", "hit ratio (greedy)", "hit ratio (equal)"],
        rows, title=f"Cache partitioning, budget = {budget} blocks ({BUDGET_FRACTION:.0%} of WSS)",
    ))

    total_greedy = sum(hits(vid, max(alloc[vid], 1)) for vid in mrcs)
    total_equal = sum(hits(vid, max(equal[vid], 1)) for vid in mrcs)
    total_acc = sum(accesses.values())
    print(
        f"\nFleet hit ratio: greedy {total_greedy / total_acc:.1%} "
        f"vs equal split {total_equal / total_acc:.1%} — MRC-driven "
        f"allocation exploits the aggregation the paper reports in Finding 9."
    )


if __name__ == "__main__":
    main()
