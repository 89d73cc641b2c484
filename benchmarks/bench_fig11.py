"""Figure 11 / Finding 9 — traffic in the top-1% / top-10% blocks.

Paper reference: reads and writes aggregate in small working sets; 75% of
AliCloud volumes put >=2.5% / 13.6% of read traffic in the top-1% /
top-10% read blocks, rising to 13.0% / 31.2% for writes — writes are more
aggregated than reads.
"""

import numpy as np

from repro.core import format_boxplot_rows, topk_block_traffic_fraction

from conftest import run_once


def test_fig11_topk_aggregation(benchmark, ali, msrc):
    def compute():
        out = {}
        for name, ds in (("AliCloud", ali), ("MSRC", msrc)):
            samples = {}
            for op in ("read", "write"):
                for frac in (0.01, 0.10):
                    vals = np.array(
                        [
                            topk_block_traffic_fraction(v, frac, op)
                            for v in ds.non_empty_volumes()
                        ]
                    )
                    samples[(op, frac)] = vals[np.isfinite(vals)]
            out[name] = samples
        return out

    results = run_once(benchmark, compute)
    print()
    for name, samples in results.items():
        print(
            format_boxplot_rows(
                {f"{op} top-{int(frac * 100)}%": v for (op, frac), v in samples.items()},
                title=f"Fig11 {name}: fraction of traffic in hottest blocks",
            )
        )

    for name, samples in results.items():
        # Aggregation: top-10% blocks hold far more than 10% of traffic
        # for the median volume.
        assert np.median(samples[("write", 0.10)]) > 0.15
        assert np.median(samples[("read", 0.10)]) > 0.10
    # Writes more aggregated than reads in AliCloud (paper's headline).
    ali_s = results["AliCloud"]
    assert np.median(ali_s[("write", 0.10)]) > np.median(ali_s[("read", 0.10)])
    assert np.median(ali_s[("write", 0.01)]) > np.median(ali_s[("read", 0.01)])
