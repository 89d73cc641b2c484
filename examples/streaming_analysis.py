#!/usr/bin/env python
"""Streaming analysis: profile a trace file without loading it.

The real AliCloud release holds ~20 billion requests — far beyond what
columnar in-memory analysis can hold.  This example shows the bounded-
memory pipeline: write a fleet to disk in the released CSV format, then
profile it volume-by-volume in one chunked pass over the file with the
engine's ``StreamingProfileAnalyzer`` fold, using reservoir sampling
(percentiles) and HyperLogLog sketches (working-set sizes), and compare
the estimates against exact in-memory analysis.

Run:  python examples/streaming_analysis.py
"""

import os
import tempfile

import numpy as np

from repro.core import format_bytes, format_table, working_sets
from repro.engine import StreamingProfileAnalyzer, run_files
from repro.synth import Scale, make_alicloud_fleet
from repro.trace import write_alicloud

SCALE = Scale(n_days=6, day_seconds=60.0)


def main() -> None:
    fleet = make_alicloud_fleet(n_volumes=10, seed=17, scale=SCALE)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fleet.csv")
        write_alicloud(fleet, path)
        size_mib = os.path.getsize(path) / 2**20
        print(f"Wrote {fleet.n_requests:,} requests ({size_mib:.1f} MiB CSV).")
        print("Profiling in one chunked pass over the file (O(volumes) memory)...\n")
        result = run_files([path], [StreamingProfileAnalyzer()], fmt="alicloud")
        profiles = result.analyzer("streaming_profile")

    rows = []
    for vid in sorted(profiles, key=lambda v: -profiles[v].n_requests)[:6]:
        p = profiles[vid]
        exact = working_sets(fleet[vid])
        rows.append(
            [
                vid,
                p.n_requests,
                f"{p.write_read_ratio:.1f}" if np.isfinite(p.write_read_ratio) else "inf",
                format_bytes(p.wss_total_bytes),
                format_bytes(exact.total),
                format_bytes(p.size_percentiles[50.0]),
                f"{p.interarrival_percentiles[50.0] * 1e3:.2f}ms",
            ]
        )
    print(
        format_table(
            ["volume", "requests", "W:R", "WSS (HLL ~)", "WSS (exact)", "median size (~)", "median gap (~)"],
            rows,
            title="Streaming profiles vs exact working sets (busiest 6 volumes)",
        )
    )
    print(
        "\nThe HLL estimates track the exact working sets within a couple of"
        "\npercent using a few KiB of state per volume — the same pipeline"
        "\nhandles the month-long production traces the paper analyzed."
    )


if __name__ == "__main__":
    main()
