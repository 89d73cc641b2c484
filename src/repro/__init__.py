"""repro — workload characterization toolkit for cloud block storage.

A production-quality reproduction of "An In-Depth Analysis of Cloud Block
Storage Workloads in Large-Scale Production" (IISWC 2020).  Importing the
package loads nothing else; import the subpackage you need:

* :mod:`repro.trace` — trace data model and file formats (AliCloud, MSRC),
* :mod:`repro.stats` — CDF/boxplot/histogram statistics toolkit,
* :mod:`repro.engine` — chunked columnar one-pass analysis engine with
  process-pool fan-out across volumes,
* :mod:`repro.store` — parse-once, mmap-forever columnar trace store,
* :mod:`repro.synth` — calibrated synthetic fleet generation,
* :mod:`repro.core` — the paper's characterization metrics and 15 findings,
* :mod:`repro.cache` — cache policies, trace-driven simulation, MRC tools,
* :mod:`repro.cluster` — SSD/FTL model, placement, balancing, offloading.

Quickstart::

    from repro.core import compute_profile
    from repro.synth import make_alicloud_fleet
    fleet = make_alicloud_fleet(n_volumes=20, seed=7)
    profile = compute_profile(fleet.volumes()[0])
    print(profile.write_read_ratio, profile.update_coverage)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
