#!/usr/bin/env python
"""Quickstart: generate a small cloud fleet and characterize it.

Demonstrates the core public API in under a minute:
1. generate a calibrated AliCloud-like synthetic fleet,
2. compute fleet-level basic statistics (the paper's Table I),
3. profile one volume across all three analysis axes,
4. check the paper's findings against an MSRC-like fleet.

Run:  python examples/quickstart.py
"""

from repro.core import (
    basic_statistics,
    compute_profile,
    evaluate_findings,
    format_duration,
    format_table,
)
from repro.synth import Scale, make_alicloud_fleet, make_msrc_fleet

# A compressed time scale keeps the example fast: 31 "days" of 60 s each.
SCALE = Scale(n_days=31, day_seconds=60.0)
MSRC_SCALE = Scale(n_days=7, day_seconds=60.0)


def main() -> None:
    print("Generating a 20-volume AliCloud-like fleet...")
    fleet = make_alicloud_fleet(n_volumes=20, seed=7, scale=SCALE)
    print(f"  {fleet.n_volumes} volumes, {fleet.n_requests:,} requests, "
          f"{fleet.total_bytes / 2**30:.1f} GiB of I/O\n")

    # --- Fleet-level statistics (paper Table I) --------------------------
    stats = basic_statistics(fleet)
    rows = [
        ["# reads (M)", stats.n_reads_millions],
        ["# writes (M)", stats.n_writes_millions],
        ["read traffic (GiB)", stats.read_traffic_tib * 1024],
        ["write traffic (GiB)", stats.write_traffic_tib * 1024],
        ["total WSS (GiB)", stats.wss_total_tib * 1024],
        ["update WSS (GiB)", stats.wss_update_tib * 1024],
    ]
    print(format_table(["statistic", "value"], rows, title="Fleet basic statistics"))
    print(f"\nWrite:read request ratio {stats.write_read_request_ratio:.1f}:1 "
          f"(cloud block storage is write-dominant)\n")

    # --- One volume, all three analysis axes ------------------------------
    volume = max(fleet.volumes(), key=len)
    profile = compute_profile(volume)
    print(f"Profile of the busiest volume ({profile.volume_id}):")
    print(f"  load      : {profile.average_intensity:.1f} req/s average, "
          f"burstiness ratio {profile.burstiness_ratio:.1f}")
    print(f"  spatial   : randomness {profile.randomness_ratio:.1%}, "
          f"update coverage {profile.update_coverage:.1%}, "
          f"top-10% write blocks hold {profile.top10_write_traffic:.1%} of write traffic")
    print(f"  temporal  : median WAW {format_duration(profile.median_waw_time)}, "
          f"median update interval {format_duration(profile.median_update_interval)}")
    print(f"  caching   : LRU read miss {profile.read_miss_ratio_10pct:.1%} "
          f"at a cache of 10% of the working set\n")

    # --- The paper's findings ---------------------------------------------
    print("Evaluating the paper's 15 findings against an MSRC-like fleet...")
    msrc = make_msrc_fleet(n_volumes=12, seed=8, scale=MSRC_SCALE)
    findings = evaluate_findings(
        fleet, msrc,
        peak_interval=SCALE.peak_interval,
        activity_interval=SCALE.activity_interval,
    )
    for finding in findings:
        print(f"  {finding}")
    held = sum(f.holds for f in findings)
    print(f"\n{held}/15 findings hold on these small demo fleets "
          f"(the full benchmark fleets reproduce all 15).")


if __name__ == "__main__":
    main()
