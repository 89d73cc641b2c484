"""Structured comparison of two trace datasets.

The paper's method is inherently comparative (AliCloud vs MSRC).  This
module packages that method as an API: :func:`compare_datasets` computes
the headline metric per analysis axis for both datasets and returns a
:class:`WorkloadComparison` that renders as the side-by-side table the
paper's Section III-C narrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..trace.dataset import TraceDataset
from .aggregate import _basic_statistics
from .report import format_duration, format_table
from .spatial import _pool_mostly
from .temporal import _pool_transitions
from .volume_profile import _finite, _median_or_nan, compute_profile

__all__ = ["DatasetSummary", "WorkloadComparison", "compare_datasets"]


@dataclass(frozen=True)
class DatasetSummary:
    """Headline characterization metrics of one dataset."""

    name: str
    n_volumes: int
    n_requests: int
    write_read_ratio: float
    frac_write_dominant: float
    read_wss_fraction: float
    median_intensity: float
    median_burstiness: float
    median_randomness: float
    median_update_coverage: float
    writes_to_write_mostly: float
    waw_raw_count_ratio: float
    median_waw_time: float
    median_raw_time: float


def _summarize(dataset: TraceDataset, peak_interval: float) -> DatasetSummary:
    volumes = dataset.non_empty_volumes()
    profiles = [compute_profile(v, peak_interval=peak_interval) for v in volumes]
    if not profiles:
        raise ValueError(f"dataset {dataset.name!r} has no requests")

    def med(values) -> float:
        return _median_or_nan(_finite(values))

    stats = _basic_statistics(dataset, [(p.working_sets, p.update_traffic) for p in profiles], None)
    times = _pool_transitions(p.transitions for p in profiles)
    counts = times.counts()
    return DatasetSummary(
        name=dataset.name,
        n_volumes=dataset.n_volumes,
        n_requests=dataset.n_requests,
        write_read_ratio=dataset.n_writes / max(dataset.n_reads, 1),
        frac_write_dominant=float(np.mean([p.is_write_dominant for p in profiles])),
        read_wss_fraction=stats.read_wss_fraction,
        median_intensity=med(p.average_intensity for p in profiles),
        median_burstiness=med(p.burstiness_ratio for p in profiles),
        median_randomness=med(p.randomness_ratio for p in profiles),
        median_update_coverage=med(p.update_coverage for p in profiles),
        writes_to_write_mostly=_pool_mostly(p.mostly_bytes for p in profiles).write_to_write_mostly,
        waw_raw_count_ratio=counts["WAW"] / max(counts["RAW"], 1),
        median_waw_time=_median_or_nan(times.waw),
        median_raw_time=_median_or_nan(times.raw),
    )


_ROW_SPECS = [
    ("volumes", "n_volumes", "{:,}"),
    ("requests", "n_requests", "{:,}"),
    ("W:R request ratio", "write_read_ratio", "{:.2f}"),
    ("write-dominant volumes", "frac_write_dominant", "{:.1%}"),
    ("read share of WSS", "read_wss_fraction", "{:.1%}"),
    ("median intensity (req/s)", "median_intensity", "{:.2f}"),
    ("median burstiness ratio", "median_burstiness", "{:.1f}"),
    ("median randomness ratio", "median_randomness", "{:.1%}"),
    ("median update coverage", "median_update_coverage", "{:.1%}"),
    ("writes -> write-mostly blocks", "writes_to_write_mostly", "{:.1%}"),
    ("WAW/RAW count ratio", "waw_raw_count_ratio", "{:.2f}"),
    ("median WAW time", "median_waw_time", "duration"),
    ("median RAW time", "median_raw_time", "duration"),
]


@dataclass(frozen=True)
class WorkloadComparison:
    """Two dataset summaries, renderable side by side."""

    left: DatasetSummary
    right: DatasetSummary

    def rows(self) -> List[List[str]]:
        out = []
        for label, attr, fmt in _ROW_SPECS:
            lv, rv = getattr(self.left, attr), getattr(self.right, attr)
            if fmt == "duration":
                out.append([label, format_duration(lv), format_duration(rv)])
            else:
                out.append([label, _safe_format(fmt, lv), _safe_format(fmt, rv)])
        return out

    def to_table(self, title: str = "Workload comparison") -> str:
        return format_table(
            ["metric", self.left.name, self.right.name], self.rows(), title=title
        )

    def cloud_like(self) -> Optional[str]:
        """Name of the side that looks more like the paper's cloud trace
        (write-dominant + high update coverage), or None on a tie."""
        score_left = (self.left.write_read_ratio > self.right.write_read_ratio) + (
            self.left.median_update_coverage > self.right.median_update_coverage
        )
        if score_left == 1:
            return None
        return self.left.name if score_left == 2 else self.right.name


def _safe_format(fmt: str, value: float) -> str:
    if isinstance(value, float) and not np.isfinite(value):
        return "-"
    return fmt.format(value)


def compare_datasets(
    left: TraceDataset, right: TraceDataset, peak_interval: float = 60.0
) -> WorkloadComparison:
    """Characterize two datasets side by side (the paper's method as API)."""
    return WorkloadComparison(
        left=_summarize(left, peak_interval), right=_summarize(right, peak_interval)
    )
