"""Characterization metrics: the paper's primary contribution.

Organized along the paper's three analysis axes — load intensity
(:mod:`~repro.core.load_intensity`), spatial patterns
(:mod:`~repro.core.spatial`), temporal patterns
(:mod:`~repro.core.temporal`) — plus fleet aggregation, cache analysis,
per-volume profiles, the 15 findings, and text reporting.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..trace.blocks import BlockView, block_range, block_view, expand_to_blocks
    from .aggregate import (
        TIB,
        BasicStatistics,
        active_days_cdf,
        basic_statistics,
        request_size_cdf,
        volume_mean_size_cdf,
        write_read_ratio_cdf,
    )
    from .cache_analysis import (
        DEFAULT_CACHE_FRACTIONS,
        MissRatioSummary,
        VolumeCacheResult,
        dataset_miss_ratios,
        volume_miss_ratios,
    )
    from .comparison import DatasetSummary, WorkloadComparison, compare_datasets
    from .experiments import EXPERIMENTS, ExperimentContext, render_experiments, run_experiments
    from .findings import FINDING_TITLES, Finding, evaluate_findings
    from .hotspots import ZipfFit, concentration_curve, fit_zipf, ranked_block_traffic
    from .load_intensity import (
        DEFAULT_ACTIVITY_INTERVAL,
        DEFAULT_PEAK_INTERVAL,
        ActiveVolumeTimeseries,
        OverallIntensity,
        active_days,
        active_fractions,
        active_period_seconds,
        active_volume_timeseries,
        average_intensity,
        burstiness_ratio,
        interarrival_percentile_groups,
        interarrival_times,
        overall_intensity,
        peak_intensity,
        write_read_ratio,
    )
    from .report import (
        ascii_cdf,
        ascii_curve,
        format_boxplot_rows,
        format_bytes,
        format_cdf,
        format_duration,
        format_table,
    )
    from .spatial import (
        DEFAULT_RANDOMNESS_THRESHOLD,
        DEFAULT_RANDOMNESS_WINDOW,
        MOSTLY_THRESHOLD,
        MostlyTraffic,
        WorkingSets,
        dataset_mostly_traffic,
        mostly_traffic,
        random_request_mask,
        randomness_ratio,
        topk_block_traffic_fraction,
        update_coverage,
        working_sets,
    )
    from .temporal import (
        TRANSITION_TYPES,
        AdjacentAccessTimes,
        adjacent_access_times,
        dataset_adjacent_access_times,
        dataset_update_intervals,
        update_intervals,
    )
    from .volume_profile import VolumeProfile, compute_profile

__all__ = [
    # blocks
    "BlockView",
    "block_view",
    "block_range",
    "expand_to_blocks",
    # load intensity
    "DEFAULT_ACTIVITY_INTERVAL",
    "DEFAULT_PEAK_INTERVAL",
    "ActiveVolumeTimeseries",
    "OverallIntensity",
    "active_days",
    "active_fractions",
    "active_period_seconds",
    "active_volume_timeseries",
    "average_intensity",
    "burstiness_ratio",
    "interarrival_percentile_groups",
    "interarrival_times",
    "overall_intensity",
    "peak_intensity",
    "write_read_ratio",
    # spatial
    "DEFAULT_RANDOMNESS_THRESHOLD",
    "DEFAULT_RANDOMNESS_WINDOW",
    "MOSTLY_THRESHOLD",
    "MostlyTraffic",
    "WorkingSets",
    "dataset_mostly_traffic",
    "mostly_traffic",
    "random_request_mask",
    "randomness_ratio",
    "topk_block_traffic_fraction",
    "update_coverage",
    "working_sets",
    # temporal
    "TRANSITION_TYPES",
    "AdjacentAccessTimes",
    "adjacent_access_times",
    "dataset_adjacent_access_times",
    "dataset_update_intervals",
    "update_intervals",
    # cache analysis
    "DEFAULT_CACHE_FRACTIONS",
    "MissRatioSummary",
    "VolumeCacheResult",
    "dataset_miss_ratios",
    "volume_miss_ratios",
    # aggregate
    "TIB",
    "BasicStatistics",
    "active_days_cdf",
    "basic_statistics",
    "request_size_cdf",
    "volume_mean_size_cdf",
    "write_read_ratio_cdf",
    # profiles & findings
    "VolumeProfile",
    "compute_profile",
    "EXPERIMENTS",
    "ExperimentContext",
    "render_experiments",
    "run_experiments",
    "DatasetSummary",
    "WorkloadComparison",
    "compare_datasets",
    "ZipfFit",
    "concentration_curve",
    "fit_zipf",
    "ranked_block_traffic",
    "FINDING_TITLES",
    "Finding",
    "evaluate_findings",
    # report
    "ascii_cdf",
    "ascii_curve",
    "format_boxplot_rows",
    "format_bytes",
    "format_cdf",
    "format_duration",
    "format_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "..trace.blocks": ("BlockView", "block_range", "block_view", "expand_to_blocks"),
    ".aggregate": (
        "TIB", "BasicStatistics", "active_days_cdf", "basic_statistics",
        "request_size_cdf", "volume_mean_size_cdf", "write_read_ratio_cdf",
    ),
    ".cache_analysis": (
        "DEFAULT_CACHE_FRACTIONS", "MissRatioSummary", "VolumeCacheResult",
        "dataset_miss_ratios", "volume_miss_ratios",
    ),
    ".comparison": ("DatasetSummary", "WorkloadComparison", "compare_datasets"),
    ".experiments": ("EXPERIMENTS", "ExperimentContext", "render_experiments", "run_experiments"),
    ".findings": ("FINDING_TITLES", "Finding", "evaluate_findings"),
    ".hotspots": (
        "ZipfFit", "concentration_curve", "fit_zipf", "ranked_block_traffic",
    ),
    ".load_intensity": (
        "DEFAULT_ACTIVITY_INTERVAL", "DEFAULT_PEAK_INTERVAL", "ActiveVolumeTimeseries",
        "OverallIntensity", "active_days", "active_fractions", "active_period_seconds",
        "active_volume_timeseries", "average_intensity", "burstiness_ratio",
        "interarrival_percentile_groups", "interarrival_times", "overall_intensity",
        "peak_intensity", "write_read_ratio",
    ),
    ".report": (
        "ascii_cdf", "ascii_curve", "format_boxplot_rows", "format_bytes", "format_cdf",
        "format_duration", "format_table",
    ),
    ".spatial": (
        "DEFAULT_RANDOMNESS_THRESHOLD", "DEFAULT_RANDOMNESS_WINDOW", "MOSTLY_THRESHOLD",
        "MostlyTraffic", "WorkingSets", "dataset_mostly_traffic", "mostly_traffic",
        "random_request_mask", "randomness_ratio", "topk_block_traffic_fraction",
        "update_coverage", "working_sets",
    ),
    ".temporal": (
        "TRANSITION_TYPES", "AdjacentAccessTimes", "adjacent_access_times",
        "dataset_adjacent_access_times", "dataset_update_intervals", "update_intervals",
    ),
    ".volume_profile": ("VolumeProfile", "compute_profile"),
})
