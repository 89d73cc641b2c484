"""Figure 9 / Findings 5-7 — cumulative distributions of active periods.

Paper reference: 72.2% (AliCloud) and 55.6% (MSRC) of volumes are active
for >=95% of the trace; after removing writes, half of AliCloud volumes
are read-active for under 1.28 of 31 days vs 2.66 of 7 days in MSRC.
"""

import numpy as np

from repro.core import active_fractions
from repro.stats import EmpiricalCDF

from conftest import ALI_SCALE, MSRC_SCALE, run_once


def test_fig9_active_periods(benchmark, ali, msrc):
    def compute():
        return {
            name: {
                op: active_fractions(ds, 0.0, scale.activity_interval, op)
                for op in (None, "read", "write")
            }
            for name, ds, scale in (("AliCloud", ali, ALI_SCALE), ("MSRC", msrc, MSRC_SCALE))
        }

    fracs = run_once(benchmark, compute)
    print()
    for name, by_op in fracs.items():
        for op, arr in by_op.items():
            label = {None: "active", "read": "read-active", "write": "write-active"}[op]
            cdf = EmpiricalCDF(arr)
            print(
                f"Fig9 {name} {label}: median {cdf.median:.1%} of trace, "
                f">=95% active: {cdf.fraction_at_least(0.95):.1%} of volumes"
            )

    for name in ("AliCloud", "MSRC"):
        active = fracs[name][None]
        write_active = fracs[name]["write"]
        read_active = fracs[name]["read"]
        # Finding 5: a majority of volumes are active >=95% of the trace.
        assert np.mean(active >= 0.95) > 0.4
        # Finding 6: write-active time tracks active time.
        assert np.median(write_active / np.maximum(active, 1e-9)) > 0.9
        # Finding 7: read-active time is much shorter.
        assert np.median(read_active) < np.median(active)
    # AliCloud at least as active as MSRC overall, but less read-active.
    assert np.mean(fracs["AliCloud"][None] >= 0.95) >= np.mean(fracs["MSRC"][None] >= 0.95) - 0.1
    assert np.median(fracs["AliCloud"]["read"]) < np.median(fracs["MSRC"]["read"]) + 0.2
