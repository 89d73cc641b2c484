"""Figure 17 / Finding 14 — update-interval duration groups.

Paper reference: update intervals polarize — half of AliCloud volumes
have >=35.2% of intervals under 5 minutes and >=38.2% over 240 minutes
(MSRC: 47.2% and 18.9%).  Data is either rewritten quickly or not for a
long time.

The paper's minute boundaries are scaled with the day compression
(5 min = 1/288 day, 30 min = 1/48 day, 240 min = 1/6 day).

Compression caveat: arrival *rates* stay real while the trace clock is
compressed, so per-block rewrite periods are long relative to the scaled
5-minute boundary; the short-interval group is therefore thinner than in
the paper.  The preserved shape is the polarization itself — the extreme
groups dominate the middle ones, and a substantial fraction of volumes
carries real short-interval mass.
"""

import numpy as np

from repro.core import format_boxplot_rows, update_intervals
from repro.stats import duration_group_fractions

from conftest import ALI_SCALE, MSRC_SCALE, run_once

GROUP_LABELS = ["<5min", "5-30min", "30-240min", ">240min"]


def _boundaries(scale):
    return [scale.hours(h) for h in (5 / 60, 30 / 60, 240 / 60)]


def test_fig17_update_interval_groups(benchmark, ali, msrc):
    def compute():
        out = {}
        for name, ds, scale in (("AliCloud", ali, ALI_SCALE), ("MSRC", msrc, MSRC_SCALE)):
            boundaries = _boundaries(scale)
            per_volume = []
            for v in ds.non_empty_volumes():
                intervals = update_intervals(v)
                if len(intervals):
                    per_volume.append(duration_group_fractions(intervals, boundaries))
            out[name] = np.array(per_volume)
        return out

    results = run_once(benchmark, compute)
    print()
    for name, fracs in results.items():
        print(
            format_boxplot_rows(
                {label: fracs[:, i] for i, label in enumerate(GROUP_LABELS)},
                title=f"Fig17 {name}: per-volume update-interval group fractions",
            )
        )

    for name, fracs in results.items():
        short = fracs[:, 0]
        long = fracs[:, 3]
        # Polarization: the extreme groups dominate the middle groups.
        assert np.median(short + long) > 0.5
        assert np.median(long) > 0.1
        assert np.median(fracs[:, 1] + fracs[:, 2]) < np.median(short + long)
    # A real fraction of the cloud volumes keeps non-negligible
    # short-interval mass even under compression (bursty rewrites).
    assert np.mean(results["AliCloud"][:, 0] > 0.05) > 0.15
