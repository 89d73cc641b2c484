"""Ablation — write-back caching absorption (Findings 12-13 implication).

The paper argues that since written blocks are rewritten quickly (short
WAW) while the next read is far away (long RAW), caching *written* blocks
absorbs far more traffic than caching read blocks — the Griffin [24]
design point.  This bench runs a write-back cache sized at 1%/5%/10% of
each volume's working set over both fleets and reports the write
absorption ratio; the cloud fleet, with its WAW-dominated temporal
pattern, absorbs a much larger write share than the enterprise fleet.
"""

import numpy as np

from repro.cache import simulate_writeback
from repro.core import format_table
from repro.trace.blocks import block_view

from conftest import run_once

FRACTIONS = (0.01, 0.05, 0.10)


def _absorption(ds, fraction):
    ratios = []
    for vol in ds.non_empty_volumes():
        if vol.n_writes < 100:
            continue
        wss = len(np.unique(block_view(vol).block_id))
        stats = simulate_writeback(vol, max(1, int(fraction * wss)))
        ratios.append(stats.write_absorption_ratio)
    return np.asarray(ratios)


def test_ablation_writeback_absorption(benchmark, ali, msrc):
    def compute():
        out = {}
        for name, ds in (("AliCloud", ali), ("MSRC", msrc)):
            for fraction in FRACTIONS:
                out[(name, fraction)] = _absorption(ds, fraction)
        return out

    results = run_once(benchmark, compute)
    print()
    rows = []
    for (name, fraction), ratios in sorted(results.items()):
        rows.append(
            [f"{name} @{fraction:.0%}", float(np.median(ratios)), float(np.percentile(ratios, 75))]
        )
    print(
        format_table(
            ["cache size (of WSS)", "median absorption", "p75 absorption"],
            rows,
            title="Ablation: write-back cache write absorption",
        )
    )

    # Absorption grows with cache size.
    for name in ("AliCloud", "MSRC"):
        series = [np.median(results[(name, f)]) for f in FRACTIONS]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    # The WAW-dominated cloud fleet absorbs more writes than the
    # enterprise fleet at the same relative cache size.
    assert np.median(results[("AliCloud", 0.10)]) > np.median(results[("MSRC", 0.10)])
    # A 10% write-back cache already absorbs a substantial share of the
    # median cloud volume's writes.
    assert np.median(results[("AliCloud", 0.10)]) > 0.15
