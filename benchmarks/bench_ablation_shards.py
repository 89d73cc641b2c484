"""Ablation — SHARDS sampled MRC versus exact reuse-distance MRC.

Counter Stacks [31] and SHARDS [28] are the MRC techniques the paper's
caching discussion cites.  This ablation quantifies the sampling error of
SHARDS at several rates on the heaviest synthetic volumes: error shrinks
with the rate, and even 1% sampling stays within a few points.
"""

import numpy as np

from repro.cache import mrc_from_stream, shards_mrc
from repro.core import format_table
from repro.trace import top_traffic_volume_ids
from repro.trace.blocks import block_view

from conftest import run_once

RATES = (0.01, 0.05, 0.2)
CAPACITY_FRACTIONS = (0.01, 0.05, 0.1, 0.3)


def test_ablation_shards_error(benchmark, ali):
    volumes = [ali[vid] for vid in top_traffic_volume_ids(ali, 3)]

    def compute():
        rows = []
        for vol in volumes:
            blocks = block_view(vol).block_id
            wss = len(np.unique(blocks))
            caps = [max(1, int(f * wss)) for f in CAPACITY_FRACTIONS]
            exact = mrc_from_stream(blocks)
            exact_vals = exact.miss_ratios(caps)
            for rate in RATES:
                est = shards_mrc(blocks, rate=rate, seed=7)
                est_vals = est.miss_ratios(caps)
                err = float(np.nanmax(np.abs(est_vals - exact_vals)))
                rows.append((vol.volume_id, rate, err))
        return rows

    rows = run_once(benchmark, compute)
    print()
    print(
        format_table(
            ["volume", "sampling rate", "max |error|"],
            [[v, r, e] for v, r, e in rows],
            title="Ablation: SHARDS MRC estimation error",
        )
    )

    by_rate = {rate: [e for _, r, e in rows if r == rate] for rate in RATES}
    # Error is bounded at every rate and improves as the rate grows.
    assert max(by_rate[RATES[0]]) < 0.25
    assert np.mean(by_rate[RATES[-1]]) <= np.mean(by_rate[RATES[0]]) + 0.02
    assert max(by_rate[RATES[-1]]) < 0.1
