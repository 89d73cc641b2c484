"""One-call regeneration of the paper's tables and figures.

``render_experiments(ali, msrc, ...)`` computes every table (I-VI) and
figure (2-18) of the paper on a dataset pair and renders them as text —
the same rows/series the paper reports.  The benchmark harness under
``benchmarks/`` additionally asserts the qualitative shape; this module
is the plain reporting path used by ``repro experiments`` and notebooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..stats.cdf import EmpiricalCDF
from ..stats.histogram import duration_group_fractions
from ..trace.dataset import TraceDataset
from .aggregate import (
    _basic_statistics,
    _ratio_cdf,
    active_days_cdf,
    request_size_cdf,
    volume_mean_size_cdf,
)
from .cache_analysis import DEFAULT_CACHE_FRACTIONS, _pool_miss_ratios
from .load_intensity import active_fractions, active_volume_timeseries, overall_intensity
from .report import (
    ascii_cdf,
    format_boxplot_rows,
    format_bytes,
    format_cdf,
    format_duration,
    format_table,
)
from .spatial import _pool_mostly
from .temporal import _concat, _pool_transitions
from .volume_profile import VolumeProfile, _finite, _interarrival_groups, compute_profile

__all__ = ["ExperimentContext", "render_experiments", "EXPERIMENTS"]


class ExperimentContext:
    """A dataset pair, its volume profiles and the analyses' time parameters.

    ``day_seconds`` scales the paper's windows (1-minute peak, 10-minute
    activity, per-day activeness); use 86400 for real traces.
    """

    def __init__(
        self,
        ali: TraceDataset,
        msrc: TraceDataset,
        day_seconds: float = 86400.0,
        n_days_ali: Optional[int] = None,
        n_days_msrc: Optional[int] = None,
    ) -> None:
        self.ali = ali
        self.msrc = msrc
        self.day_seconds = day_seconds
        self.n_days_ali = n_days_ali
        self.n_days_msrc = n_days_msrc
        self._profiles: Dict[int, List[VolumeProfile]] = {}

    def profiles(self, ds: TraceDataset) -> List[VolumeProfile]:
        """Profiles of ``ds``'s non-empty volumes, computed on first use."""
        if id(ds) not in self._profiles:
            self._profiles[id(ds)] = [
                compute_profile(v, peak_interval=self.peak_interval)
                for v in ds.non_empty_volumes()
            ]
        return self._profiles[id(ds)]

    @property
    def peak_interval(self) -> float:
        return self.day_seconds / 1440.0

    @property
    def activity_interval(self) -> float:
        return self.day_seconds / 144.0

    def pairs(self) -> List[Tuple[str, TraceDataset]]:
        return [(self.ali.name, self.ali), (self.msrc.name, self.msrc)]


def _table1(ctx: ExperimentContext) -> str:
    a, m = (
        _basic_statistics(ds, [(p.working_sets, p.update_traffic) for p in ctx.profiles(ds)], days)
        for ds, days in ((ctx.ali, ctx.n_days_ali), (ctx.msrc, ctx.n_days_msrc))
    )
    gib = 1024.0
    rows = [
        ["Number of volumes", a.n_volumes, m.n_volumes],
        ["Duration (days)", a.duration_days, m.duration_days],
        ["# of reads (M)", a.n_reads_millions, m.n_reads_millions],
        ["# of writes (M)", a.n_writes_millions, m.n_writes_millions],
        ["Read traffic (GiB)", a.read_traffic_tib * gib, m.read_traffic_tib * gib],
        ["Write traffic (GiB)", a.write_traffic_tib * gib, m.write_traffic_tib * gib],
        ["Update traffic (GiB)", a.update_traffic_tib * gib, m.update_traffic_tib * gib],
        ["Total WSS (GiB)", a.wss_total_tib * gib, m.wss_total_tib * gib],
        ["Read WSS (GiB)", a.wss_read_tib * gib, m.wss_read_tib * gib],
        ["Write WSS (GiB)", a.wss_write_tib * gib, m.wss_write_tib * gib],
        ["Update WSS (GiB)", a.wss_update_tib * gib, m.wss_update_tib * gib],
    ]
    return format_table(
        ["statistic", ctx.ali.name, ctx.msrc.name], rows, title="Table I: basic statistics"
    )


def _fig2(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        for op in ("read", "write"):
            lines.append(
                format_cdf(
                    request_size_cdf(ds, op), f"Fig2a {name} {op} sizes",
                    (25, 50, 75, 90, 95), format_bytes,
                )
            )
    for name, ds in ctx.pairs():
        for op in ("read", "write"):
            lines.append(
                format_cdf(
                    volume_mean_size_cdf(ds, op), f"Fig2b {name} mean {op} size",
                    (25, 50, 75, 90), format_bytes,
                )
            )
    return "\n".join(lines)


def _fig3(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        cdf = active_days_cdf(ds, day_seconds=ctx.day_seconds, origin=0.0)
        one_day = cdf(1.0) - cdf.fraction_below(1.0)
        lines.append(
            format_cdf(cdf, f"Fig3 {name} active days", (25, 50, 75, 100))
            + f"  [1-day volumes: {one_day:.1%}]"
        )
    return "\n".join(lines)


def _fig4(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        cdf = _ratio_cdf([p.write_read_ratio for p in ctx.profiles(ds)])
        lines.append(
            format_cdf(cdf, f"Fig4 {name} W:R ratios", (25, 50, 75, 90))
            + f"  [write-dominant: {cdf.fraction_above(1.0):.1%}, "
            f">100: {cdf.fraction_above(100.0):.1%}]"
        )
        lines.append(ascii_cdf(cdf, label=f"Fig4 {name} (log x)", logx=True, height=8))
    return "\n".join(lines)


def _fig5(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        profiles = [p for p in ctx.profiles(ds) if p.n_requests > 1]
        avg = _finite(p.average_intensity for p in profiles)
        peak = np.array([p.peak_intensity for p in profiles])
        lines.append(
            f"Fig5 {name}: median avg {np.median(avg):.2f} req/s, "
            f"frac<10 {np.mean(avg < 10):.1%}, frac>100 {np.mean(avg > 100):.1%}, "
            f"max peak {peak.max():.0f} req/s"
        )
    return "\n".join(lines)


def _fig6_table2(ctx: ExperimentContext) -> str:
    lines = []
    rows = []
    for name, ds in ctx.pairs():
        ratios = _finite(p.burstiness_ratio for p in ctx.profiles(ds) if p.n_requests > 1)
        lines.append(
            f"Fig6 {name}: frac<10 {np.mean(ratios < 10):.1%}, "
            f"frac>100 {np.mean(ratios > 100):.1%}, "
            f"frac>1000 {np.mean(ratios > 1000):.2%}"
        )
        ov = overall_intensity(ds, ctx.peak_interval)
        rows.append([name, ov.peak_req_per_s, ov.average_req_per_s, ov.burstiness_ratio])
    lines.append(
        format_table(["trace", "peak (req/s)", "avg (req/s)", "burstiness"], rows,
                     title="Table II: overall intensities")
    )
    return "\n".join(lines)


def _fig7(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        groups = _interarrival_groups(ctx.profiles(ds))
        lines.append(
            format_boxplot_rows(
                {f"p{int(p)}": v for p, v in groups.items()},
                title=f"Fig7 {name}: per-volume inter-arrival percentiles",
                value_formatter=format_duration,
            )
        )
    return "\n".join(lines)


def _fig8(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        ts = active_volume_timeseries(ds, ctx.activity_interval)
        overlap = np.mean(ts.write_active / np.maximum(ts.active, 1))
        reduction = 1 - np.mean(ts.read_active / np.maximum(ts.active, 1))
        lines.append(
            f"Fig8 {name}: mean active {ts.active.mean():.1f}/{ds.n_volumes} volumes, "
            f"write-active/active {overlap:.1%}, read-only reduction {reduction:.1%}"
        )
    return "\n".join(lines)


def _fig9(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        for op, label in ((None, "active"), ("read", "read-active"), ("write", "write-active")):
            fracs = active_fractions(ds, 0.0, ctx.activity_interval, op)
            lines.append(
                f"Fig9 {name} {label}: median {np.median(fracs):.1%}, "
                f">=95%: {np.mean(fracs >= 0.95):.1%} of volumes"
            )
    return "\n".join(lines)


def _fig10(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        ratios = _finite(p.randomness_ratio for p in ctx.profiles(ds))
        lines.append(
            f"Fig10 {name}: median randomness {np.median(ratios):.1%}, "
            f"frac>50% {np.mean(ratios > 0.5):.1%}, max {ratios.max():.1%}"
        )
    return "\n".join(lines)


def _fig11(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        samples = {
            f"{op} top-{k}%": _finite(getattr(p, f"top{k}_{op}_traffic") for p in ctx.profiles(ds))
            for op in ("read", "write") for k in (1, 10)
        }
        lines.append(
            format_boxplot_rows(samples, title=f"Fig11 {name}: traffic in hottest blocks")
        )
    return "\n".join(lines)


def _fig12_table3(ctx: ExperimentContext) -> str:
    a, m = (_pool_mostly(p.mostly_bytes for p in ctx.profiles(ds)) for ds in (ctx.ali, ctx.msrc))
    rows = [
        ["Reads to read-mostly blocks (%)", a.read_to_read_mostly * 100, m.read_to_read_mostly * 100],
        ["Writes to write-mostly blocks (%)", a.write_to_write_mostly * 100, m.write_to_write_mostly * 100],
    ]
    return format_table(["traffic", ctx.ali.name, ctx.msrc.name], rows, title="Table III")


def _fig13_table4(ctx: ExperimentContext) -> str:
    rows = []
    for name, ds in ctx.pairs():
        cov = _finite(p.update_coverage for p in ctx.profiles(ds))
        rows.append(
            [name, np.mean(cov) * 100, np.median(cov) * 100, np.percentile(cov, 90) * 100]
        )
    return format_table(
        ["trace", "mean (%)", "median (%)", "p90 (%)"], rows,
        title="Table IV: update coverage",
    )


def _fig14_15_table5(ctx: ExperimentContext) -> str:
    lines = []
    rows = []
    for name, ds in ctx.pairs():
        at = _pool_transitions(p.transitions for p in ctx.profiles(ds))
        counts = at.counts()
        rows.append([name, counts["RAW"], counts["WAW"], counts["RAR"], counts["WAR"]])
        for kind in ("RAW", "WAW", "RAR", "WAR"):
            values = at.get(kind)
            if len(values) == 0:
                continue
            cdf = EmpiricalCDF(values)
            lines.append(
                f"Fig14/15 {name} {kind}: median {format_duration(cdf.median)}, "
                f"p25 {format_duration(cdf.percentile(25))}, "
                f"p90 {format_duration(cdf.percentile(90))}"
            )
    lines.append(format_table(["trace", "RAW", "WAW", "RAR", "WAR"], rows, title="Table V"))
    return "\n".join(lines)


def _fig16_17_table6(ctx: ExperimentContext) -> str:
    lines = []
    rows = []
    boundaries = [ctx.day_seconds * h / 24.0 for h in (5 / 60, 30 / 60, 240 / 60)]
    for name, ds in ctx.pairs():
        pooled = _concat(p.update_intervals for p in ctx.profiles(ds))
        if len(pooled) == 0:
            continue
        values = np.percentile(pooled, (25, 50, 75, 90, 95))
        rows.append([name] + [format_duration(v) for v in values])
        per_volume = [
            duration_group_fractions(p.update_intervals, boundaries)
            for p in ctx.profiles(ds)
            if len(p.update_intervals)
        ]
        fracs = np.array(per_volume)
        lines.append(
            f"Fig17 {name}: median group fractions "
            f"<5min {np.median(fracs[:, 0]):.1%}, 5-30min {np.median(fracs[:, 1]):.1%}, "
            f"30-240min {np.median(fracs[:, 2]):.1%}, >240min {np.median(fracs[:, 3]):.1%}"
        )
    lines.insert(
        0,
        format_table(
            ["trace", "p25", "p50", "p75", "p90", "p95"], rows,
            title="Table VI: update intervals",
        ),
    )
    return "\n".join(lines)


def _fig18(ctx: ExperimentContext) -> str:
    lines = []
    for name, ds in ctx.pairs():
        mr = _pool_miss_ratios((p.miss_ratios for p in ctx.profiles(ds)), DEFAULT_CACHE_FRACTIONS)
        lines.append(
            format_boxplot_rows(
                {
                    "read @1%": mr.read[0.01],
                    "read @10%": mr.read[0.10],
                    "write @1%": mr.write[0.01],
                    "write @10%": mr.write[0.10],
                },
                title=f"Fig18 {name}: LRU miss ratios (cache = 1%/10% of WSS)",
            )
        )
    return "\n".join(lines)


#: Ordered experiment registry: (id, renderer).
EXPERIMENTS = [
    ("Table I", _table1),
    ("Figure 2", _fig2),
    ("Figure 3", _fig3),
    ("Figure 4", _fig4),
    ("Figure 5 / Finding 1", _fig5),
    ("Figure 6 + Table II / Findings 2-3", _fig6_table2),
    ("Figure 7 / Finding 4", _fig7),
    ("Figure 8 / Findings 5-7", _fig8),
    ("Figure 9 / Findings 5-7", _fig9),
    ("Figure 10 / Finding 8", _fig10),
    ("Figure 11 / Finding 9", _fig11),
    ("Figure 12 + Table III / Finding 10", _fig12_table3),
    ("Figure 13 + Table IV / Finding 11", _fig13_table4),
    ("Figures 14-15 + Table V / Findings 12-13", _fig14_15_table5),
    ("Figures 16-17 + Table VI / Finding 14", _fig16_17_table6),
    ("Figure 18 / Finding 15", _fig18),
]


def render_experiments(
    ali: TraceDataset,
    msrc: TraceDataset,
    day_seconds: float = 86400.0,
    n_days_ali: Optional[int] = None,
    n_days_msrc: Optional[int] = None,
    only: Optional[List[str]] = None,
) -> str:
    """Render all (or selected) experiments as one text report.

    ``only`` filters by substring match on the experiment id (e.g.
    ``["Table I", "Figure 18"]``).
    """
    ctx = ExperimentContext(ali, msrc, day_seconds, n_days_ali, n_days_msrc)

    def matches(sel: str, exp_id: str) -> bool:
        # Substring match with a right word boundary, so "Table I" does
        # not select "Table II".
        low_id, low_sel = exp_id.lower(), sel.lower()
        start = low_id.find(low_sel)
        if start < 0:
            return False
        end = start + len(low_sel)
        return end >= len(low_id) or not low_id[end].isalnum()

    sections = []
    for exp_id, renderer in EXPERIMENTS:
        if only and not any(matches(sel, exp_id) for sel in only):
            continue
        sections.append(f"=== {exp_id} " + "=" * max(1, 60 - len(exp_id)))
        sections.append(renderer(ctx))
        sections.append("")
    return "\n".join(sections)
