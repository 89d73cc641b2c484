"""Ablation — parity-update schemes vs update coverage (Finding 11
implication for erasure-coded storage).

CodFS [7] motivates reserved parity-log space by the *variation* of
update working sets across volumes; PBS [34] exploits overwrites.  This
bench replays the write streams of low-, mid-, and high-update-coverage
volumes under RMW, full-stripe, and parity-logging schemes: logging wins
on update-intensive volumes (amortized merges), full-stripe wins on
sequential covering writes, and sparse write-once volumes leave logging's
merges unamortized.
"""

import numpy as np

from repro.cluster import StripeLayout, compare_parity_schemes
from repro.core import format_table, update_coverage
from repro.trace.blocks import block_view

from conftest import run_once

LAYOUT = StripeLayout(4, 2)
MAX_WRITES = 80_000


def test_ablation_parity_schemes(benchmark, ali):
    scored = sorted(
        ((update_coverage(v), v) for v in ali.non_empty_volumes() if v.n_writes > 5000),
        key=lambda t: t[0],
    )
    picks = [scored[0], scored[len(scored) // 2], scored[-1]]

    def compute():
        out = {}
        for coverage, vol in picks:
            view = block_view(vol)
            writes = view.block_id[view.is_write]
            _, inverse = np.unique(writes, return_inverse=True)
            blocks = inverse[:MAX_WRITES].tolist()
            out[(vol.volume_id, round(coverage, 3))] = compare_parity_schemes(
                blocks, LAYOUT, buffer_writes=1024, log_capacity=16
            )
        return out

    results = run_once(benchmark, compute)
    print()
    rows = []
    for (vid, coverage), costs in results.items():
        for cost in costs:
            rows.append(
                [vid, f"{coverage:.0%}", cost.scheme, cost.total_ios, cost.parity_overhead]
            )
    print(
        format_table(
            ["volume", "coverage", "scheme", "total I/Os", "overhead/write"],
            rows,
            title=f"Ablation: parity schemes, RS({LAYOUT.k},{LAYOUT.m})",
        )
    )

    schemes = {
        key: {c.scheme: c for c in costs} for key, costs in results.items()
    }
    # Parity logging beats in-place RMW on every volume (sequential delta
    # appends vs per-update read-modify-write) — the CodFS headline.
    for costs in schemes.values():
        assert costs["parity-logging"].total_ios < costs["rmw"].total_ios
    # Full-stripe writing is pattern-sensitive: covering sequential
    # streams get near-free parity, scattered hot-set updates degrade it —
    # while logging's overhead stays nearly flat across patterns.  This is
    # the "varying update patterns need adaptive schemes" implication.
    fs_overheads = [c["full-stripe"].parity_overhead for c in schemes.values()]
    pl_overheads = [c["parity-logging"].parity_overhead for c in schemes.values()]
    assert max(fs_overheads) / max(min(fs_overheads), 1e-9) > 2.0
    assert max(pl_overheads) / max(min(pl_overheads), 1e-9) < 2.0
    # Accounting sanity for every (volume, scheme).
    for costs in results.values():
        for cost in costs:
            assert cost.total_ios >= cost.n_updates
