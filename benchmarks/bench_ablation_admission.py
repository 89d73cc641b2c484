"""Ablation — type-aware cache admission (Finding 10 implication).

Section V proposes admitting blocks by their observed read/write type:
read-mostly blocks into the read cache, write-mostly blocks into the
write cache.  This bench compares a plain LRU read cache against the
type-aware admission cache on every cloud volume with meaningful read
traffic: keeping write-mostly blocks out never hurts and helps on
volumes whose write traffic would otherwise pollute the read cache.
"""

import numpy as np

from repro.cache import LRUCache, TypeAwareAdmissionCache, simulate_stream
from repro.core import format_table
from repro.trace.blocks import block_view

from conftest import run_once

CACHE_FRACTION = 0.05


def test_ablation_type_aware_admission(benchmark, ali):
    volumes = [v for v in ali.non_empty_volumes() if v.n_reads > 2000]

    def compute():
        rows = []
        for vol in volumes:
            ev = block_view(vol)
            wss = len(np.unique(ev.block_id))
            cap = max(1, int(CACHE_FRACTION * wss))
            plain = simulate_stream(ev.block_id, ev.is_write, LRUCache(cap))
            aware = simulate_stream(
                ev.block_id, ev.is_write, TypeAwareAdmissionCache(cap, serve="read")
            )
            rows.append(
                (
                    vol.volume_id,
                    plain.read_miss_ratio,
                    aware.read_miss_ratio,
                    plain.read_miss_ratio - aware.read_miss_ratio,
                )
            )
        return rows

    rows = run_once(benchmark, compute)
    print()
    print(
        format_table(
            ["volume", "LRU read miss", "type-aware read miss", "improvement"],
            [[v, p, a, d] for v, p, a, d in sorted(rows, key=lambda r: -r[3])[:10]],
            title=f"Ablation: admission policy @ {CACHE_FRACTION:.0%} of WSS "
            f"(top 10 of {len(rows)} volumes)",
        )
    )

    deltas = np.array([d for _, _, _, d in rows])
    # Type-aware admission never meaningfully hurts...
    assert deltas.min() > -0.02
    # ...and helps on a substantial share of the mixed-traffic volumes.
    assert np.mean(deltas > 0.005) > 0.2
