"""The paper's 15 findings as programmatic checks.

Each finding compares the "AliCloud-side" dataset against the "MSRC-side"
dataset and evaluates the paper's *qualitative* claim (direction of a
comparison, existence of a pattern) — not the absolute numbers, which
depend on the production environment.  ``evaluate_findings`` returns one
:class:`Finding` per paper finding with the measured evidence attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from ..trace.dataset import TraceDataset
from .cache_analysis import DEFAULT_CACHE_FRACTIONS, _pool_miss_ratios
from .load_intensity import active_fractions, active_volume_timeseries, overall_intensity
from .spatial import _pool_mostly
from .temporal import _concat
from .volume_profile import _finite, _interarrival_groups, _median_or_nan, compute_profile

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


def _spread(arr: np.ndarray) -> float:
    """p95/p25 of a pooled array, which it reorders."""
    if len(arr) < 10:
        return float("nan")
    p25, p95 = np.percentile(arr, [25, 95], overwrite_input=True)
    return float(p95 / max(p25, 1e-9))


def _side(
    dataset: TraceDataset, block_size: int, peak_interval: float, activity_interval: float,
    release: bool = False,
) -> Dict[str, Any]:
    """One side's statistics from its volume profiles, profiled largest
    first (LPT) and kept in volume order.  With ``release`` the side owns
    the dataset: it empties it, so each trace goes once profiled.  Each
    pooled array is reduced and dropped before the next is built."""
    side: Dict[str, Any] = {
        "overall": overall_intensity(dataset, peak_interval),
        "timeseries": active_volume_timeseries(dataset, activity_interval),
        "active": active_fractions(dataset, dataset.start_time, activity_interval),
    }
    volumes = dict(enumerate(dataset.non_empty_volumes()))
    if release:
        dataset.clear()
    order = sorted(volumes, key=lambda i: (-len(volumes[i]), i))
    by_index = {i: compute_profile(volumes.pop(i), block_size, peak_interval) for i in order}
    profiles = [by_index[i] for i in sorted(by_index)]
    groups = _interarrival_groups(profiles)
    side.update(
        avg=_finite(p.average_intensity for p in profiles),
        burst=_finite(p.burstiness_ratio for p in profiles),
        interarrival={q: float(np.median(groups[q])) for q in (25.0, 50.0, 75.0) if len(groups[q])},
        randomness=_finite(p.randomness_ratio for p in profiles),
        top10_read=_finite(p.top10_read_traffic for p in profiles),
        top10_write=_finite(p.top10_write_traffic for p in profiles),
        mostly=_pool_mostly(p.mostly_bytes for p in profiles),
        coverage=_finite(p.update_coverage for p in profiles),
        miss=_pool_miss_ratios((p.miss_ratios for p in profiles), DEFAULT_CACHE_FRACTIONS),
        counts={},
        median={},
    )
    for key in ("RAW", "WAW", "RAR", "WAR"):
        pooled = _concat(p.transitions.get(key) for p in profiles)
        side["counts"][key] = len(pooled)
        side["median"][key] = _median_or_nan(pooled, overwrite_input=True)
        del pooled
    side["spread"] = _spread(_concat(p.update_intervals for p in profiles))
    return side


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
    the windows compress with the trace.  Both datasets are left as given.
    """
    a = _side(ali, block_size, peak_interval, activity_interval)
    m = _side(msrc, block_size, peak_interval, activity_interval)
    return _compare(a, m)


def _compare(a: Dict[str, Any], m: Dict[str, Any]) -> List[Finding]:
    """The 15 findings from the AliCloud-side and MSRC-side statistics."""
    findings: List[Finding] = []

    # --- Load intensity -----------------------------------------------------
    # Finding 1: similar per-volume intensity distributions — medians within
    # one order of magnitude and both dominated by <100 req/s volumes.
    med_a, med_m = float(np.median(a["avg"])), float(np.median(m["avg"]))
    f1 = (
        0.1 <= med_a / med_m <= 10
        and float(np.mean(a["avg"] < 100)) > 0.9
        and float(np.mean(m["avg"] < 100)) > 0.9
    )
    findings.append(
        Finding(1, FINDING_TITLES[1], f1, {"median_avg_intensity": (med_a, med_m)})
    )

    # Finding 2: >=10% of volumes with burstiness > 100 in each trace, but
    # overall (aggregated) burstiness far below the bursty volumes' level.
    ov_a, ov_m = a["overall"], m["overall"]
    frac_bursty_a = float(np.mean(a["burst"] > 100))
    frac_bursty_m = float(np.mean(m["burst"] > 100))
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
    lo_a, lo_m = float(np.mean(a["burst"] < 10)), float(np.mean(m["burst"] < 10))
    hi_a, hi_m = float(np.mean(a["burst"] > 1000)), float(np.mean(m["burst"] > 1000))
    f3 = lo_a > lo_m and hi_a >= hi_m
    findings.append(
        Finding(3, FINDING_TITLES[3], f3, {"frac_lt_10": (lo_a, lo_m), "frac_gt_1000": (hi_a, hi_m)})
    )

    # Finding 4: medians of the 25/50/75th per-volume inter-arrival
    # percentiles are sub-second (high short-term burstiness) in both.
    med_ia_a, med_ia_m = a["interarrival"], m["interarrival"]
    f4 = all(v < 2.0 for v in med_ia_a.values()) and all(v < 2.0 for v in med_ia_m.values())
    findings.append(
        Finding(4, FINDING_TITLES[4], f4, {"median_percentiles_ali": med_ia_a, "median_percentiles_msrc": med_ia_m})
    )

    # Finding 5: majority of volumes active >=95% of the trace period in
    # both, with AliCloud at least as active.
    frac95_a = float(np.mean(a["active"] >= 0.95))
    frac95_m = float(np.mean(m["active"] >= 0.95))
    f5 = frac95_a > 0.5 and frac95_m > 0.4 and frac95_a >= frac95_m
    findings.append(
        Finding(5, FINDING_TITLES[5], f5, {"frac_active_95pct": (frac95_a, frac95_m)})
    )

    # Finding 6: the write-active volume count tracks the active count.
    ts_a, ts_m = a["timeseries"], m["timeseries"]

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
    rnd_a, rnd_m = a["randomness"], m["randomness"]
    f8 = float(np.median(rnd_a)) > float(np.median(rnd_m)) and float(np.mean(rnd_a > 0.5)) > 0.1
    findings.append(
        Finding(
            8,
            FINDING_TITLES[8],
            f8,
            {"median_randomness": (float(np.median(rnd_a)), float(np.median(rnd_m)))},
        )
    )

    # Finding 9: top-10% blocks absorb far more than 10% of traffic for the
    # median volume, and write aggregation beats read aggregation.
    r10_a, w10_a = a["top10_read"], a["top10_write"]
    r10_m, w10_m = m["top10_read"], m["top10_write"]
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
    m_a, m_m = a["mostly"], m["mostly"]
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
    uc_a, uc_m = a["coverage"], m["coverage"]
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
    counts_a, counts_m = a["counts"], m["counts"]
    med_a, med_m = a["median"], m["median"]

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
    spread_a, spread_m = a["spread"], m["spread"]
    f14 = spread_a > 30 and spread_m > 30
    findings.append(
        Finding(14, FINDING_TITLES[14], f14, {"p95_over_p25": (spread_a, spread_m)})
    )

    # Finding 15: some volumes already effective at a 1% cache, and the
    # AliCloud-side 25th-percentile read miss ratio drops more from 1%->10%.
    mr_a, mr_m = a["miss"], m["miss"]

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
