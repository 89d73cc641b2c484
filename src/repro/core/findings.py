"""The paper's 15 findings as programmatic checks.

Each finding compares the "AliCloud-side" dataset against the "MSRC-side"
dataset and evaluates the paper's *qualitative* claim (direction of a
comparison, existence of a pattern) — not the absolute numbers, which
depend on the production environment.  ``evaluate_findings`` returns one
:class:`Finding` per paper finding with the measured evidence attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from ..trace.dataset import TraceDataset
from .cache_analysis import DEFAULT_CACHE_FRACTIONS, _pool_miss_ratios
from .load_intensity import (
    active_period_seconds,
    active_volume_timeseries,
    average_intensity,
    burstiness_ratio,
    interarrival_percentile_groups,
    overall_intensity,
)
from .spatial import _pool_mostly, randomness_ratio
from .temporal import _concat, _pool_transitions
from .volume_profile import summarize_blocks

__all__ = ["Finding", "evaluate_findings", "FINDING_TITLES"]

FINDING_TITLES = {
    1: "Both traces have similar load intensities of volumes",
    2: "High burstiness in a non-negligible fraction of volumes, low overall",
    3: "AliCloud has more diverse burstiness across volumes than MSRC",
    4: "High short-term burstiness in inter-arrival times",
    5: "Most volumes active throughout; AliCloud more active",
    6: "Writes dominate activeness",
    7: "Removing writes drastically decreases activeness",
    8: "Random I/Os common; AliCloud more random than MSRC",
    9: "Reads/writes aggregate in small working sets; writes more aggregated",
    10: "Reads/writes aggregate in read-mostly/write-mostly blocks",
    11: "AliCloud has higher and more varied update coverage",
    12: "Large RAW time, small WAW time; AliCloud WAW count >> RAW count",
    13: "WAR time >> RAR time; RAR and WAR counts comparable",
    14: "Written blocks have varying update intervals",
    15: "Low miss ratios possible at small caches; AliCloud gains more from 1%->10%",
}


@dataclass
class Finding:
    """Result of checking one paper finding on a dataset pair."""

    id: int
    title: str
    holds: bool
    evidence: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "HOLDS" if self.holds else "DIFFERS"
        return f"Finding {self.id:2d} [{status}]: {self.title}"


def _finite(values: List[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr[np.isfinite(arr)]


def _volume_metric(dataset: TraceDataset, fn: Callable) -> np.ndarray:
    return _finite([fn(v) for v in dataset.volumes() if len(v)])


def evaluate_findings(
    ali: TraceDataset,
    msrc: TraceDataset,
    block_size: int = 4096,
    peak_interval: float = 60.0,
    activity_interval: float = 600.0,
) -> List[Finding]:
    """Evaluate all 15 findings on an (AliCloud-side, MSRC-side) pair.

    ``peak_interval`` and ``activity_interval`` are the paper's 1-minute
    and 10-minute windows; when evaluating time-compressed synthetic
    fleets pass ``scale.peak_interval`` / ``scale.activity_interval`` so
    the windows compress with the trace.
    """
    findings: List[Finding] = []

    # --- Load intensity -----------------------------------------------------
    ali_avg = _volume_metric(ali, average_intensity)
    msrc_avg = _volume_metric(msrc, average_intensity)

    # Finding 1: similar per-volume intensity distributions — medians within
    # one order of magnitude and both dominated by <100 req/s volumes.
    med_a, med_m = float(np.median(ali_avg)), float(np.median(msrc_avg))
    f1 = (
        0.1 <= med_a / med_m <= 10
        and float(np.mean(ali_avg < 100)) > 0.9
        and float(np.mean(msrc_avg < 100)) > 0.9
    )
    findings.append(
        Finding(1, FINDING_TITLES[1], f1, {"median_avg_intensity": (med_a, med_m)})
    )

    # Finding 2: >=10% of volumes with burstiness > 100 in each trace, but
    # overall (aggregated) burstiness far below the bursty volumes' level.
    ali_burst = _volume_metric(ali, lambda v: burstiness_ratio(v, peak_interval))
    msrc_burst = _volume_metric(msrc, lambda v: burstiness_ratio(v, peak_interval))
    ov_a = overall_intensity(ali, peak_interval)
    ov_m = overall_intensity(msrc, peak_interval)
    frac_bursty_a = float(np.mean(ali_burst > 100))
    frac_bursty_m = float(np.mean(msrc_burst > 100))
    f2 = (
        frac_bursty_a > 0.05
        and frac_bursty_m > 0.05
        and ov_a.burstiness_ratio < 50
        and ov_m.burstiness_ratio < 50
    )
    findings.append(
        Finding(
            2,
            FINDING_TITLES[2],
            f2,
            {
                "frac_burstiness_gt_100": (frac_bursty_a, frac_bursty_m),
                "overall_burstiness": (ov_a.burstiness_ratio, ov_m.burstiness_ratio),
            },
        )
    )

    # Finding 3: AliCloud spans a wider burstiness range: more volumes at
    # both the low (<10) and the high (>1000) extremes.
    lo_a, lo_m = float(np.mean(ali_burst < 10)), float(np.mean(msrc_burst < 10))
    hi_a, hi_m = float(np.mean(ali_burst > 1000)), float(np.mean(msrc_burst > 1000))
    f3 = lo_a > lo_m and hi_a >= hi_m
    findings.append(
        Finding(3, FINDING_TITLES[3], f3, {"frac_lt_10": (lo_a, lo_m), "frac_gt_1000": (hi_a, hi_m)})
    )

    # Finding 4: medians of the 25/50/75th per-volume inter-arrival
    # percentiles are sub-second (high short-term burstiness) in both.
    ia_a = interarrival_percentile_groups(ali, (25, 50, 75))
    ia_m = interarrival_percentile_groups(msrc, (25, 50, 75))
    med_ia_a = {p: float(np.median(v)) for p, v in ia_a.items() if len(v)}
    med_ia_m = {p: float(np.median(v)) for p, v in ia_m.items() if len(v)}
    f4 = all(v < 2.0 for v in med_ia_a.values()) and all(v < 2.0 for v in med_ia_m.values())
    findings.append(
        Finding(4, FINDING_TITLES[4], f4, {"median_percentiles_ali": med_ia_a, "median_percentiles_msrc": med_ia_m})
    )

    # Findings 5-7 share the activity time series.
    interval = activity_interval
    ts_a = active_volume_timeseries(ali, interval)
    ts_m = active_volume_timeseries(msrc, interval)

    def active_fracs(dataset: TraceDataset, op=None) -> np.ndarray:
        t0, t1 = dataset.start_time, dataset.end_time
        span = max(t1 - t0, interval)
        return np.array(
            [
                active_period_seconds(v, t0, t1, interval, op) / span
                for v in dataset.volumes()
            ]
        )

    act_a, act_m = active_fracs(ali), active_fracs(msrc)
    # Finding 5: majority of volumes active >=95% of the trace period in
    # both, with AliCloud at least as active.
    frac95_a = float(np.mean(act_a >= 0.95))
    frac95_m = float(np.mean(act_m >= 0.95))
    f5 = frac95_a > 0.5 and frac95_m > 0.4 and frac95_a >= frac95_m
    findings.append(
        Finding(5, FINDING_TITLES[5], f5, {"frac_active_95pct": (frac95_a, frac95_m)})
    )

    # Finding 6: the write-active volume count tracks the active count.
    def overlap(ts) -> float:
        denom = np.maximum(ts.active, 1)
        return float(np.mean(ts.write_active / denom))

    ov6_a, ov6_m = overlap(ts_a), overlap(ts_m)
    f6 = ov6_a > 0.9 and ov6_m > 0.8
    findings.append(
        Finding(6, FINDING_TITLES[6], f6, {"write_active_over_active": (ov6_a, ov6_m)})
    )

    # Finding 7: dropping writes cuts the active-volume count substantially.
    def read_drop(ts) -> float:
        denom = np.maximum(ts.active, 1)
        return float(np.mean(1.0 - ts.read_active / denom))

    drop_a, drop_m = read_drop(ts_a), read_drop(ts_m)
    f7 = drop_a > 0.2 and drop_m > 0.1 and drop_a >= drop_m
    findings.append(
        Finding(7, FINDING_TITLES[7], f7, {"mean_active_reduction": (drop_a, drop_m)})
    )

    # --- Spatial patterns ---------------------------------------------------
    rnd_a = _volume_metric(ali, randomness_ratio)
    rnd_m = _volume_metric(msrc, randomness_ratio)
    f8 = float(np.median(rnd_a)) > float(np.median(rnd_m)) and float(np.mean(rnd_a > 0.5)) > 0.1
    findings.append(
        Finding(
            8,
            FINDING_TITLES[8],
            f8,
            {"median_randomness": (float(np.median(rnd_a)), float(np.median(rnd_m)))},
        )
    )

    def med(arr: np.ndarray) -> float:
        return float(np.median(arr)) if len(arr) else float("nan")

    def spread(arr: np.ndarray) -> float:
        if len(arr) < 10:
            return float("nan")
        p25, p95 = np.percentile(arr, [25, 95])
        return float(p95 / max(p25, 1e-9))

    # Findings 9-15 reduce one block summary per volume.  Each side keeps
    # only the statistics it needs, so one side's pooled arrays are gone
    # before the next side's are built.
    def block_side(dataset: TraceDataset) -> Dict[str, Any]:
        blocks = [summarize_blocks(v, block_size) for v in dataset.non_empty_volumes()]
        transitions = _pool_transitions(b.transitions for b in blocks)
        side = {
            "top10": tuple(
                _finite([b.top_traffic[op, 0.10] for b in blocks]) for op in ("read", "write")
            ),
            "mostly": _pool_mostly(b.mostly_bytes for b in blocks),
            "coverage": _finite([b.working_sets.update_coverage for b in blocks]),
            "counts": transitions.counts(),
            "median": {k: med(transitions.get(k)) for k in ("RAW", "WAW", "RAR", "WAR")},
            "miss": _pool_miss_ratios((b.miss_ratios for b in blocks), DEFAULT_CACHE_FRACTIONS),
        }
        del transitions
        side["spread"] = spread(_concat(b.update_intervals for b in blocks))
        return side

    side_a, side_m = block_side(ali), block_side(msrc)

    # Finding 9: top-10% blocks absorb far more than 10% of traffic for the
    # median volume, and write aggregation beats read aggregation.
    r10_a, w10_a = side_a["top10"]
    r10_m, w10_m = side_m["top10"]
    f9 = (
        float(np.median(w10_a)) > 0.15
        and float(np.median(w10_m)) > 0.15
        and float(np.median(w10_a)) > float(np.median(r10_a))
    )
    findings.append(
        Finding(
            9,
            FINDING_TITLES[9],
            f9,
            {
                "median_top10_read": (float(np.median(r10_a)), float(np.median(r10_m))),
                "median_top10_write": (float(np.median(w10_a)), float(np.median(w10_m))),
            },
        )
    )

    # Finding 10: AliCloud read and write traffic mostly goes to read-mostly
    # and write-mostly blocks; MSRC write aggregation is weak.
    m_a, m_m = side_a["mostly"], side_m["mostly"]
    f10 = (
        m_a.read_to_read_mostly > 0.5
        and m_a.write_to_write_mostly > 0.5
        and m_m.read_to_read_mostly > 0.5
        and m_a.write_to_write_mostly > m_m.write_to_write_mostly
    )
    findings.append(
        Finding(
            10,
            FINDING_TITLES[10],
            f10,
            {
                "ali": (m_a.read_to_read_mostly, m_a.write_to_write_mostly),
                "msrc": (m_m.read_to_read_mostly, m_m.write_to_write_mostly),
            },
        )
    )

    # Finding 11: AliCloud update coverage higher (median) and diverse.
    uc_a, uc_m = side_a["coverage"], side_m["coverage"]
    f11 = float(np.median(uc_a)) > float(np.median(uc_m)) and float(np.std(uc_a)) > 0.1
    findings.append(
        Finding(
            11,
            FINDING_TITLES[11],
            f11,
            {"median_update_coverage": (float(np.median(uc_a)), float(np.median(uc_m)))},
        )
    )

    # --- Temporal patterns ----------------------------------------------------
    counts_a, counts_m = side_a["counts"], side_m["counts"]
    med_a, med_m = side_a["median"], side_m["median"]

    # Finding 12: RAW time >> WAW time in both; in AliCloud the WAW count
    # is several times the RAW count.
    f12 = (
        med_a["RAW"] > med_a["WAW"]
        and med_m["RAW"] > med_m["WAW"]
        and counts_a["WAW"] > 2 * counts_a["RAW"]
    )
    findings.append(
        Finding(
            12,
            FINDING_TITLES[12],
            f12,
            {
                "median_raw_s": (med_a["RAW"], med_m["RAW"]),
                "median_waw_s": (med_a["WAW"], med_m["WAW"]),
                "counts_ali": {k: counts_a[k] for k in ("RAW", "WAW")},
            },
        )
    )

    # Finding 13: WAR time >> RAR time in both; RAR count within ~6x of
    # WAR count (comparable in the paper: 2.5x and 4.2x).
    def count_ratio(counts) -> float:
        return counts["RAR"] / counts["WAR"] if counts["WAR"] else float("inf")

    f13 = (
        med_a["WAR"] > med_a["RAR"]
        and med_m["WAR"] > med_m["RAR"]
        and 0.3 <= count_ratio(counts_a) <= 25
    )
    findings.append(
        Finding(
            13,
            FINDING_TITLES[13],
            f13,
            {
                "median_rar_s": (med_a["RAR"], med_m["RAR"]),
                "median_war_s": (med_a["WAR"], med_m["WAR"]),
                "rar_war_ratio": (count_ratio(counts_a), count_ratio(counts_m)),
            },
        )
    )

    # Finding 14: update intervals span orders of magnitude within each
    # trace (p95/p25 huge) — "varying update intervals".
    spread_a, spread_m = side_a["spread"], side_m["spread"]
    f14 = spread_a > 30 and spread_m > 30
    findings.append(
        Finding(14, FINDING_TITLES[14], f14, {"p95_over_p25": (spread_a, spread_m)})
    )

    # Finding 15: some volumes already effective at a 1% cache, and the
    # AliCloud-side 25th-percentile read miss ratio drops more from 1%->10%.
    mr_a, mr_m = side_a["miss"], side_m["miss"]

    def q25(arr: np.ndarray) -> float:
        return float(np.percentile(arr, 25)) if len(arr) else float("nan")

    red_a = q25(mr_a.read[0.01]) - q25(mr_a.read[0.10])
    red_m = q25(mr_m.read[0.01]) - q25(mr_m.read[0.10])
    low_at_1pct = float(np.mean(mr_a.read[0.01] < 0.5)) if len(mr_a.read[0.01]) else 0.0
    f15 = red_a > red_m and low_at_1pct > 0.0
    findings.append(
        Finding(
            15,
            FINDING_TITLES[15],
            f15,
            {
                "q25_read_reduction": (red_a, red_m),
                "frac_volumes_low_miss_at_1pct": low_at_1pct,
            },
        )
    )

    return findings
