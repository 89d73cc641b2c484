#!/usr/bin/env python
"""Compare two block-storage workloads the way the paper compares
AliCloud against MSRC.

This is the paper's methodology as a one-call API
(:func:`repro.core.compare_datasets`): given any two datasets — here the
two calibrated synthetic fleets; swap in
``repro.engine.read_dataset_dir_chunked(directory, fmt=...)`` for a
directory of real trace files — print a side-by-side
characterization across the three analysis axes and read the design
implications off it.

Run:  python examples/workload_comparison.py
"""

from repro.core import compare_datasets
from repro.synth import Scale, make_alicloud_fleet, make_msrc_fleet

SCALE = Scale(n_days=10, day_seconds=60.0)


def main() -> None:
    print("Generating both fleets...")
    cloud = make_alicloud_fleet(n_volumes=24, seed=1, scale=SCALE)
    enterprise = make_msrc_fleet(n_volumes=12, seed=2, scale=Scale(7, 60.0))

    comparison = compare_datasets(cloud, enterprise, peak_interval=SCALE.peak_interval)
    print()
    print(comparison.to_table())
    print(f"\nCloud-like side by the paper's signature: {comparison.cloud_like()}")

    print(
        "\nReading the table the way Section V of the paper does:\n"
        "  * the cloud fleet is write-dominant with high update coverage ->\n"
        "    favour write caching and log-structured placement;\n"
        "  * written blocks are rewritten quickly (short WAW, WAW >> RAW) ->\n"
        "    a small write-back cache absorbs most updates;\n"
        "  * high randomness + small requests -> I/O clustering helps flash;\n"
        "  * the enterprise fleet is read-heavy with mixed blocks -> read\n"
        "    caching and admission by block type matter more."
    )


if __name__ == "__main__":
    main()
