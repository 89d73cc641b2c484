"""Statistics toolkit: CDFs, boxplots, quantiles, histograms, bucketing."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .boxplot import BoxplotStats
    from .cdf import EmpiricalCDF
    from .fitting import CANDIDATES, DistributionFit, best_fit, fit_distributions
    from .histogram import Histogram, duration_group_fractions, linear_histogram, log_histogram
    from .hll import HyperLogLog
    from .quantiles import PAPER_PERCENTILES, percentile_groups, percentile_table
    from .streaming import ReservoirSampler
    from .timeseries import bucket_counts, bucket_edges, interval_activity, max_interval_count

__all__ = [
    "EmpiricalCDF",
    "BoxplotStats",
    "PAPER_PERCENTILES",
    "percentile_table",
    "percentile_groups",
    "Histogram",
    "linear_histogram",
    "log_histogram",
    "duration_group_fractions",
    "bucket_counts",
    "bucket_edges",
    "interval_activity",
    "max_interval_count",
    "ReservoirSampler",
    "CANDIDATES",
    "DistributionFit",
    "fit_distributions",
    "best_fit",
    "HyperLogLog",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".boxplot": ("BoxplotStats",),
    ".cdf": ("EmpiricalCDF",),
    ".fitting": ("CANDIDATES", "DistributionFit", "best_fit", "fit_distributions"),
    ".histogram": (
        "Histogram", "duration_group_fractions", "linear_histogram", "log_histogram",
    ),
    ".hll": ("HyperLogLog",),
    ".quantiles": ("PAPER_PERCENTILES", "percentile_groups", "percentile_table"),
    ".streaming": ("ReservoirSampler",),
    ".timeseries": (
        "bucket_counts", "bucket_edges", "interval_activity", "max_interval_count",
    ),
})
