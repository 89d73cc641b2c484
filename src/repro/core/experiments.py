"""One-call regeneration of the paper's tables and figures.

Each entry of :data:`EXPERIMENTS` is the one implementation of its table
or figure: a section ``(ctx) -> (data, text)`` that computes the data
from the dataset pair and renders the text from that data alone.  The
data is one value per dataset, in ``ctx.pairs()`` order.
:func:`run_experiments` returns both for every selected section (the
paper-shape tests assert on the data); :func:`render_experiments` joins
the texts into the report ``repro experiments`` prints.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..stats.cdf import EmpiricalCDF
from ..stats.histogram import duration_group_fractions
from ..trace.dataset import TraceDataset
from ..trace.record import DEFAULT_BLOCK_SIZE
from .aggregate import (
    _basic_statistics,
    _table1_blocks,
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
from .spatial import WorkingSets, _pool_mostly
from .temporal import _concat, _pool_transitions
from .volume_profile import VolumeProfile, _finite, _interarrival_groups, compute_profile

__all__ = ["EXPERIMENTS", "ExperimentContext", "render_experiments", "run_experiments",
           "select_experiments"]


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


def _table1(ctx: ExperimentContext) -> Tuple[Any, str]:
    def blocks(ds: TraceDataset) -> List[Tuple[WorkingSets, int]]:
        # The other sections' profiles when they built them (Table I
        # renders last), else the light per-volume pass ``report`` takes.
        if id(ds) in ctx._profiles:
            return [(p.working_sets, p.update_traffic) for p in ctx.profiles(ds)]
        return [_table1_blocks(v, DEFAULT_BLOCK_SIZE) for v in ds.non_empty_volumes()]

    a, m = data = tuple(
        _basic_statistics(ds, blocks(ds), days)
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
    return data, "\n".join([
        format_table(
            ["statistic", ctx.ali.name, ctx.msrc.name], rows, title="Table I: basic statistics"
        ),
        f"W:R requests  {ctx.ali.name} {a.write_read_request_ratio:.2f}:1  "
        f"{ctx.msrc.name} {m.write_read_request_ratio:.2f}:1",
        f"Read WSS share  {ctx.ali.name} {a.read_wss_fraction:.1%}  "
        f"{ctx.msrc.name} {m.read_wss_fraction:.1%}",
    ])


def _fig2(ctx: ExperimentContext) -> Tuple[Any, str]:
    # Per dataset: ({op: request size CDF}, {op: per-volume mean size CDF}).
    data, lines, mean_lines = [], [], []
    for name, ds in ctx.pairs():
        sizes = {op: request_size_cdf(ds, op) for op in ("read", "write")}
        means = {op: volume_mean_size_cdf(ds, op) for op in ("read", "write")}
        data.append((sizes, means))
        for op in ("read", "write"):
            lines.append(format_cdf(
                sizes[op], f"Fig2a {name} {op} sizes", (25, 50, 75, 90, 95), format_bytes
            ))
            mean_lines.append(format_cdf(
                means[op], f"Fig2b {name} mean {op} size", (25, 50, 75, 90), format_bytes
            ))
    return tuple(data), "\n".join(lines + mean_lines)


def _fig3(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []
    for name, ds in ctx.pairs():
        cdf = active_days_cdf(ds, day_seconds=ctx.day_seconds, origin=0.0)
        data.append(cdf)
        one_day = cdf(1.0) - cdf.fraction_below(1.0)
        lines.append(
            format_cdf(cdf, f"Fig3 {name} active days", (25, 50, 75, 100))
            + f"  [1-day volumes: {one_day:.1%}]"
        )
        lines.append(
            f"Fig3 {name}: volumes active all {cdf.max:.0f} days: "
            f"{cdf.fraction_at_least(cdf.max):.1%}"
        )
    return tuple(data), "\n".join(lines)


def _fig4(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []
    for name, ds in ctx.pairs():
        cdf = _ratio_cdf([p.write_read_ratio for p in ctx.profiles(ds)])
        data.append(cdf)
        lines.append(
            format_cdf(cdf, f"Fig4 {name} W:R ratios", (25, 50, 75, 90))
            + f"  [write-dominant: {cdf.fraction_above(1.0):.1%}, "
            f">100: {cdf.fraction_above(100.0):.1%}]"
        )
        lines.append(ascii_cdf(cdf, label=f"Fig4 {name} (log x)", logx=True, height=8))
    return tuple(data), "\n".join(lines)


def _fig5(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []  # per dataset: (finite average intensities, peak intensities)
    for name, ds in ctx.pairs():
        profiles = [p for p in ctx.profiles(ds) if p.n_requests > 1]
        avg = _finite(p.average_intensity for p in profiles)
        peak = np.array([p.peak_intensity for p in profiles])
        data.append((avg, peak))
        lines.append(
            f"Fig5 {name}: median avg {np.median(avg):.2f} req/s, "
            f"frac<10 {np.mean(avg < 10):.1%}, frac>100 {np.mean(avg > 100):.1%}, "
            f"max peak {peak.max():.0f} req/s"
        )
    return tuple(data), "\n".join(lines)


def _fig6_table2(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines, rows = [], [], []  # per dataset: (burstiness ratios, overall intensity)
    for name, ds in ctx.pairs():
        ratios = _finite(p.burstiness_ratio for p in ctx.profiles(ds) if p.n_requests > 1)
        lines.append(
            f"Fig6 {name}: frac<10 {np.mean(ratios < 10):.1%}, "
            f"frac>100 {np.mean(ratios > 100):.1%}, "
            f"frac>1000 {np.mean(ratios > 1000):.2%}"
        )
        ov = overall_intensity(ds, ctx.peak_interval)
        data.append((ratios, ov))
        rows.append([name, ov.peak_req_per_s, ov.average_req_per_s, ov.burstiness_ratio])
    lines.append(
        format_table(["trace", "peak (req/s)", "avg (req/s)", "burstiness"], rows,
                     title="Table II: overall intensities")
    )
    return tuple(data), "\n".join(lines)


def _fig7(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []  # per dataset: {percentile: that percentile of each volume}
    for name, ds in ctx.pairs():
        groups = _interarrival_groups(ctx.profiles(ds))
        data.append(groups)
        lines.append(
            format_boxplot_rows(
                {f"p{int(p)}": v for p, v in groups.items()},
                title=f"Fig7 {name}: per-volume inter-arrival percentiles",
                value_formatter=format_duration,
            )
        )
    return tuple(data), "\n".join(lines)


def _fig8(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []  # per dataset: (active-volume time series, number of volumes)
    for name, ds in ctx.pairs():
        ts, n_volumes = active_volume_timeseries(ds, ctx.activity_interval), ds.n_volumes
        data.append((ts, n_volumes))
        overlap = np.mean(ts.write_active / np.maximum(ts.active, 1))
        reduction = 1 - np.mean(ts.read_active / np.maximum(ts.active, 1))
        lines.append(
            f"Fig8 {name}: mean active {ts.active.mean():.1f}/{n_volumes} volumes, "
            f"write-active/active {overlap:.1%}, read-only reduction {reduction:.1%}"
        )
    return tuple(data), "\n".join(lines)


def _fig9(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []  # per dataset: {label: each volume's active fraction}
    for name, ds in ctx.pairs():
        by_label = {}
        for op, label in ((None, "active"), ("read", "read-active"), ("write", "write-active")):
            fracs = by_label[label] = active_fractions(ds, 0.0, ctx.activity_interval, op)
            lines.append(
                f"Fig9 {name} {label}: median {np.median(fracs):.1%}, "
                f">=95%: {np.mean(fracs >= 0.95):.1%} of volumes"
            )
        data.append(by_label)
    return tuple(data), "\n".join(lines)


def _fig10(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []  # per dataset: (randomness ratios, those of the top-10 by traffic)
    for name, ds in ctx.pairs():
        ratios = _finite(p.randomness_ratio for p in ctx.profiles(ds))
        heavy = sorted(ctx.profiles(ds), key=lambda p: p.read_bytes + p.write_bytes, reverse=True)
        top10 = _finite(p.randomness_ratio for p in heavy[:10])
        data.append((ratios, top10))
        lines.append(
            f"Fig10 {name}: median randomness {np.median(ratios):.1%}, "
            f"frac>50% {np.mean(ratios > 0.5):.1%}, max {ratios.max():.1%}"
        )
        lines.append(
            f"Fig10 {name} top-10 traffic volumes: randomness "
            f"{top10.min():.1%}-{top10.max():.1%}"
        )
    return tuple(data), "\n".join(lines)


def _fig11(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []  # per dataset: {"<op> top-<k>%": each volume's traffic share}
    for name, ds in ctx.pairs():
        samples = {
            f"{op} top-{k}%": _finite(getattr(p, f"top{k}_{op}_traffic") for p in ctx.profiles(ds))
            for op in ("read", "write") for k in (1, 10)
        }
        data.append(samples)
        lines.append(
            format_boxplot_rows(samples, title=f"Fig11 {name}: traffic in hottest blocks")
        )
    return tuple(data), "\n".join(lines)


def _fig12_table3(ctx: ExperimentContext) -> Tuple[Any, str]:
    a, m = data = tuple(
        _pool_mostly(p.mostly_bytes for p in ctx.profiles(ds)) for ds in (ctx.ali, ctx.msrc)
    )
    rows = [
        ["Reads to read-mostly blocks (%)", a.read_to_read_mostly * 100, m.read_to_read_mostly * 100],
        ["Writes to write-mostly blocks (%)", a.write_to_write_mostly * 100, m.write_to_write_mostly * 100],
    ]
    return data, format_table(["traffic", ctx.ali.name, ctx.msrc.name], rows, title="Table III")


def _fig13_table4(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, rows = [], []  # per dataset: each volume's update coverage
    for name, ds in ctx.pairs():
        cov = _finite(p.update_coverage for p in ctx.profiles(ds))
        data.append(cov)
        rows.append(
            [name, np.mean(cov) * 100, np.median(cov) * 100, np.percentile(cov, 90) * 100]
        )
    lines = [
        format_table(
            ["trace", "mean (%)", "median (%)", "p90 (%)"], rows,
            title="Table IV: update coverage",
        )
    ]
    for (name, _), cov in zip(ctx.pairs(), data):
        lines.append(f"Fig13 {name}: volumes with coverage > 65%: {np.mean(cov > 0.65):.1%}")
    return tuple(data), "\n".join(lines)


def _fig14_15_table5(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines, rows = [], [], []
    for name, ds in ctx.pairs():
        at = _pool_transitions(p.transitions for p in ctx.profiles(ds))
        data.append(at)
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
    return tuple(data), "\n".join(lines)


def _fig16_17_table6(ctx: ExperimentContext) -> Tuple[Any, str]:
    # Per dataset, None without updates, else: (pooled update intervals,
    # each volume's four duration-group fractions, each volume's median).
    data, lines, rows = [], [], []
    boundaries = [ctx.day_seconds * h / 24.0 for h in (5 / 60, 30 / 60, 240 / 60)]
    for name, ds in ctx.pairs():
        profiles = [p for p in ctx.profiles(ds) if len(p.update_intervals)]
        pooled = _concat(p.update_intervals for p in profiles)
        if len(pooled) == 0:
            data.append(None)
            continue
        values = np.percentile(pooled, (25, 50, 75, 90, 95))
        rows.append([name] + [format_duration(v) for v in values])
        fracs = np.array(
            [duration_group_fractions(p.update_intervals, boundaries) for p in profiles]
        )
        medians = np.array([p.median_update_interval for p in profiles])
        data.append((pooled, fracs, medians))
        lines.append(
            f"Fig16 {name}: per-volume median intervals "
            f"{format_duration(medians.min())} to {format_duration(medians.max())}"
        )
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
    return tuple(data), "\n".join(lines)


def _fig18(ctx: ExperimentContext) -> Tuple[Any, str]:
    data, lines = [], []
    for name, ds in ctx.pairs():
        mr = _pool_miss_ratios((p.miss_ratios for p in ctx.profiles(ds)), DEFAULT_CACHE_FRACTIONS)
        data.append(mr)
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
    return tuple(data), "\n".join(lines)


#: A section: the data of one table or figure, and the text rendered from it.
Section = Callable[[ExperimentContext], Tuple[Any, str]]

#: Ordered experiment registry: (id, section).
EXPERIMENTS: List[Tuple[str, Section]] = [
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


def _matches(sel: str, exp_id: str) -> bool:
    # Substring match with a right word boundary, so "Table I" does not
    # select "Table II".
    low_id, low_sel = exp_id.lower(), sel.lower()
    start = low_id.find(low_sel)
    if start < 0:
        return False
    end = start + len(low_sel)
    return end >= len(low_id) or not low_id[end].isalnum()


def select_experiments(only: Optional[Sequence[str]] = None) -> List[Tuple[str, Section]]:
    """The registry entries ``only`` selects, in registry order.

    ``only`` filters by substring match on the experiment id (e.g.
    ``["Table I", "Figure 18"]``); empty or None selects all.  A selector
    that matches no id raises :class:`ValueError` naming it and the ids.
    """
    unmatched = [sel for sel in only or () if not any(_matches(sel, e[0]) for e in EXPERIMENTS)]
    if unmatched:
        ids = "; ".join(exp_id for exp_id, _ in EXPERIMENTS)
        raise ValueError(
            f"no experiment id matches {', '.join(map(repr, unmatched))}; the ids are: {ids}"
        )
    return [e for e in EXPERIMENTS if not only or any(_matches(sel, e[0]) for sel in only)]


def run_experiments(
    ctx: ExperimentContext, only: Optional[Sequence[str]] = None
) -> Dict[str, Tuple[Any, str]]:
    """``{id: (data, text)}`` of each section ``only`` selects, in registry
    order (see :func:`select_experiments`)."""
    selected = select_experiments(only)
    # Table I runs last, so that it finds any profiles the others built.
    last = sorted(selected, key=lambda e: e[1] is _table1)
    results = {exp_id: section(ctx) for exp_id, section in last}
    return {exp_id: results[exp_id] for exp_id, _ in selected}


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
    ``["Table I", "Figure 18"]``); see :func:`select_experiments`.
    """
    ctx = ExperimentContext(ali, msrc, day_seconds, n_days_ali, n_days_msrc)
    sections = []
    for exp_id, (_, text) in run_experiments(ctx, only).items():
        sections += [f"=== {exp_id} " + "=" * max(1, 60 - len(exp_id)), text, ""]
    return "\n".join(sections)
