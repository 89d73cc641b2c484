"""The paper's shape, asserted on the data ``repro experiments`` prints.

Each test checks one table or figure's section data, on the fleets
``repro experiments`` builds at its defaults: who wins, and where the
qualitative contrasts fall.  The thresholds bound the shape, not the
paper's magnitudes (EXPERIMENTS.md sets those next to the measured ones).
"""

import numpy as np
import pytest

from repro.core import EXPERIMENTS, ExperimentContext, run_experiments
from repro.synth import alicloud_scale, make_alicloud_fleet, make_msrc_fleet, msrc_scale

KIB = 1024
DAY_SECONDS = 120.0
ALI_SCALE = alicloud_scale(day_seconds=DAY_SECONDS)
MSRC_SCALE = msrc_scale(day_seconds=DAY_SECONDS)


@pytest.fixture(scope="module")
def sections():
    """``{id: data}`` of every section, run once; each section's data holds
    one entry per dataset, AliCloud side first."""
    ali = make_alicloud_fleet(n_volumes=40, seed=0, scale=ALI_SCALE)
    msrc = make_msrc_fleet(n_volumes=36, seed=1, scale=MSRC_SCALE)
    ctx = ExperimentContext(ali, msrc, DAY_SECONDS, ALI_SCALE.n_days, MSRC_SCALE.n_days)
    return {exp_id: data for exp_id, (data, _) in run_experiments(ctx).items()}


def test_every_section_ran(sections):
    assert list(sections) == [exp_id for exp_id, _ in EXPERIMENTS]


def test_table1_basic_statistics(sections):
    """AliCloud bigger, write-dominant, reads a small share of its WSS."""
    a, m = sections["Table I"]
    assert a.n_volumes > m.n_volumes
    assert a.n_requests_millions > m.n_requests_millions
    assert a.write_read_request_ratio > 1.5  # write-dominant
    assert m.write_read_request_ratio < 1.0  # read-dominant
    assert a.read_wss_fraction < 0.7  # reads a small share (34.3%)
    assert m.read_wss_fraction > 0.7  # reads nearly all (98.4%)
    assert a.wss_update_tib > 0.4 * a.wss_write_tib  # heavy updates


def test_fig2a_request_size_cdf(sections):
    (sizes_a, _), (sizes_m, _) = sections["Figure 2"]
    # Small requests dominate: 75th percentiles under 100 KiB everywhere.
    for cdf in (*sizes_a.values(), *sizes_m.values()):
        assert cdf.percentile(75) <= 100 * KIB
    # AliCloud writes are the smallest mix (p75 <= 32 KiB, paper: 16 KiB).
    assert sizes_a["write"].percentile(75) <= 32 * KIB


def test_fig2b_volume_mean_size_cdf(sections):
    """Per-volume average request sizes are small too."""
    (_, means_a), (_, means_m) = sections["Figure 2"]
    for cdf in (*means_a.values(), *means_m.values()):
        assert cdf.percentile(75) <= 128 * KIB


def test_fig3_active_days(sections):
    """Short-lived AliCloud volumes; every MSRC volume active every day."""
    cdf_a, cdf_m = sections["Figure 3"]
    one_day_a = cdf_a(1.0) - cdf_a.fraction_below(1.0)
    # A non-negligible short-lived population in AliCloud only.
    assert one_day_a > 0.05
    assert cdf_m.fraction_at_least(MSRC_SCALE.n_days) > 0.8
    # Most AliCloud volumes are nonetheless active for most of the month.
    assert cdf_a.fraction_at_least(ALI_SCALE.n_days * 0.9) > 0.5


def test_fig4_write_read_ratios(sections):
    """Most AliCloud volumes are write-dominant, about half of MSRC's."""
    cdf_a, cdf_m = sections["Figure 4"]
    frac_wd_a = cdf_a.fraction_above(1.0)
    frac_wd_m = cdf_m.fraction_above(1.0)
    frac_100_a = cdf_a.fraction_above(100.0)
    assert frac_wd_a > 0.8
    assert frac_100_a > 0.25
    assert 0.3 < frac_wd_m < 0.85
    assert frac_wd_a > frac_wd_m


def test_fig5_intensities(sections):
    """Finding 1: similar intensity distributions in both traces."""
    (avg_a, peak_a), (avg_m, peak_m) = sections["Figure 5 / Finding 1"]
    # Similar load intensities: medians within one order of magnitude,
    # most volumes below 100 req/s in both.
    assert 0.1 <= np.median(avg_a) / np.median(avg_m) <= 10
    assert np.mean(avg_a < 100) > 0.9
    assert np.mean(avg_m < 100) > 0.9
    # Peak intensities reach the hundreds-to-thousands range in both.
    assert peak_a.max() > 100
    assert peak_m.max() > 100


def test_fig6_table2_burstiness(sections):
    """Findings 2-3: bursty minorities, mild overall, AliCloud more diverse."""
    (ratios_a, overall_a), (ratios_m, overall_m) = sections["Figure 6 + Table II / Findings 2-3"]
    # Finding 2: substantial bursty fraction in both, mild overall.
    assert np.mean(ratios_a > 100) > 0.05
    assert np.mean(ratios_m > 100) > 0.05
    assert overall_a.burstiness_ratio < np.percentile(ratios_a, 90)
    assert overall_m.burstiness_ratio < np.percentile(ratios_m, 90)
    # Finding 3: AliCloud more diverse — more volumes at both extremes.
    assert np.mean(ratios_a < 10) > np.mean(ratios_m < 10)
    assert np.mean(ratios_a > 1000) >= np.mean(ratios_m > 1000)


def test_fig7_interarrival_percentiles(sections):
    """Finding 4: micro-bursts, tighter in MSRC."""
    groups_a, groups_m = sections["Figure 7 / Finding 4"]
    med_a = {p: np.median(v) for p, v in groups_a.items()}
    med_m = {p: np.median(v) for p, v in groups_m.items()}
    # High short-term burstiness: low-percentile medians in the
    # micro/millisecond range for both traces.
    assert med_a[25.0] < 0.1
    assert med_m[25.0] < 0.1
    # MSRC's micro-bursts are tighter than AliCloud's (paper: 3.5us vs 31us).
    assert med_m[25.0] < med_a[25.0]


def test_fig8_active_volume_timeseries(sections):
    """Findings 5-7: writes carry activeness, more so in AliCloud."""
    (ts_a, _), (ts_m, _) = sections["Figure 8 / Findings 5-7"]
    for ts in (ts_a, ts_m):
        # Finding 6: the write-active curve nearly overlaps the active curve.
        assert np.mean(ts.write_active / np.maximum(ts.active, 1)) > 0.8
        # Finding 7: removing writes drops the active count substantially.
        assert np.mean(1 - ts.read_active / np.maximum(ts.active, 1)) > 0.1
    # AliCloud loses more activeness than MSRC when writes are removed.
    drop_a = np.mean(1 - ts_a.read_active / np.maximum(ts_a.active, 1))
    drop_m = np.mean(1 - ts_m.read_active / np.maximum(ts_m.active, 1))
    assert drop_a > drop_m


def test_fig9_active_periods(sections):
    """Findings 5-7: long active periods, short read-active ones."""
    fracs_a, fracs_m = sections["Figure 9 / Findings 5-7"]
    for fracs in (fracs_a, fracs_m):
        active = fracs["active"]
        # Finding 5: a majority of volumes are active >=95% of the trace.
        assert np.mean(active >= 0.95) > 0.4
        # Finding 6: write-active time tracks active time.
        assert np.median(fracs["write-active"] / np.maximum(active, 1e-9)) > 0.9
        # Finding 7: read-active time is much shorter.
        assert np.median(fracs["read-active"]) < np.median(active)
    # AliCloud at least as active as MSRC overall, but less read-active.
    assert np.mean(fracs_a["active"] >= 0.95) >= np.mean(fracs_m["active"] >= 0.95) - 0.1
    assert np.median(fracs_a["read-active"]) < np.median(fracs_m["read-active"]) + 0.2


def test_fig10_randomness(sections):
    """Finding 8: random I/O is common, more so in AliCloud."""
    (ratios_a, top_a), (ratios_m, _) = sections["Figure 10 / Finding 8"]
    # AliCloud more random than MSRC.
    assert np.median(ratios_a) > np.median(ratios_m)
    assert np.mean(ratios_a > 0.5) > 0.1
    # MSRC randomness stays moderate (paper: all volumes < 46%).
    assert np.median(ratios_m) < 0.5
    # Random I/O is common among the traffic-heavy volumes too.
    assert top_a.max() > 0.4


def test_fig11_topk_aggregation(sections):
    """Finding 9: traffic aggregates in few blocks, writes more than reads."""
    samples_a, samples_m = sections["Figure 11 / Finding 9"]
    for samples in (samples_a, samples_m):
        # Aggregation: top-10% blocks hold far more than 10% of traffic
        # for the median volume.
        assert np.median(samples["write top-10%"]) > 0.15
        assert np.median(samples["read top-10%"]) > 0.10
    # Writes more aggregated than reads in AliCloud (paper's headline).
    assert np.median(samples_a["write top-10%"]) > np.median(samples_a["read top-10%"])
    assert np.median(samples_a["write top-1%"]) > np.median(samples_a["read top-1%"])


def test_table3_fig12_mostly_blocks(sections):
    """Finding 10: strong AliCloud write aggregation, weak MSRC."""
    overall_a, overall_m = sections["Figure 12 + Table III / Finding 10"]
    # AliCloud: both ops strongly aggregated in their "mostly" blocks.
    assert overall_a.read_to_read_mostly > 0.5
    assert overall_a.write_to_write_mostly > 0.5
    # MSRC: reads aggregate, writes do not (the paper's Table III contrast).
    assert overall_m.read_to_read_mostly > 0.5
    assert overall_m.write_to_write_mostly < overall_a.write_to_write_mostly
    assert overall_m.write_to_write_mostly < 0.6


def test_table4_fig13_update_coverage(sections):
    """Finding 11: AliCloud covers more of its WSS with updates."""
    cov_a, cov_m = sections["Figure 13 + Table IV / Finding 11"]
    # AliCloud more update-intensive than MSRC at every summary point.
    assert np.median(cov_a) > np.median(cov_m)
    assert np.mean(cov_a) > np.mean(cov_m)
    # Coverage is diverse in AliCloud (both low and high volumes exist).
    assert np.percentile(cov_a, 90) - np.percentile(cov_a, 10) > 0.3
    # MSRC coverage is low for most volumes (paper median 9.4%).
    assert np.median(cov_m) < 0.4


def test_fig14_table5_raw_waw(sections):
    """Finding 12: RAW time above WAW time; WAW count high in AliCloud."""
    at_a, at_m = sections["Figures 14-15 + Table V / Findings 12-13"]
    # RAW time >> WAW time in both traces.
    assert np.median(at_a.raw) > np.median(at_a.waw)
    assert np.median(at_m.raw) > np.median(at_m.waw)
    # AliCloud: WAW count several times the RAW count; MSRC: comparable.
    counts_a, counts_m = at_a.counts(), at_m.counts()
    assert counts_a["WAW"] > 2 * counts_a["RAW"]
    assert 0.2 <= counts_m["WAW"] / max(counts_m["RAW"], 1) <= 5


def test_fig15_rar_war(sections):
    """Finding 13: WAR time above RAR time; counts of one order."""
    at_a, at_m = sections["Figures 14-15 + Table V / Findings 12-13"]
    # WAR time >> RAR time in both traces.
    assert np.median(at_a.war) > np.median(at_a.rar)
    assert np.median(at_m.war) > np.median(at_m.rar)
    # RAR and WAR counts of the same order of magnitude.
    for at in (at_a, at_m):
        c = at.counts()
        ratio = c["RAR"] / max(c["WAR"], 1)
        assert 0.3 <= ratio <= 30


def test_table6_fig16_update_intervals(sections):
    """Finding 14: update intervals spread widely; MSRC's daily mode."""
    (pooled_a, _, medians_a), (pooled_m, _, _) = sections["Figures 16-17 + Table VI / Finding 14"]
    # Wide spread in both traces (orders of magnitude between p25 and p95).
    for pooled in (pooled_a, pooled_m):
        p25, p95 = np.percentile(pooled, [25, 95])
        assert p95 / max(p25, 1e-9) > 30
    # MSRC bimodality: a mass of intervals near the daily period.
    day = MSRC_SCALE.day_seconds
    near_day = np.mean((pooled_m > day * 0.8) & (pooled_m < day * 1.2))
    assert near_day > 0.02
    # Per-volume medians span orders of magnitude (Fig 16).
    assert medians_a.max() / max(medians_a.min(), 1e-9) > 100


def test_fig17_update_interval_groups(sections):
    """Finding 14: update intervals polarize.  Per-block rewrite rates do not
    compress with the trace clock, so the short group is thinner than the
    paper's; the polarization holds."""
    (_, fracs_a, _), (_, fracs_m, _) = sections["Figures 16-17 + Table VI / Finding 14"]
    for fracs in (fracs_a, fracs_m):
        short = fracs[:, 0]
        long = fracs[:, 3]
        # Polarization: the extreme groups dominate the middle groups.
        assert np.median(short + long) > 0.5
        assert np.median(long) > 0.1
        assert np.median(fracs[:, 1] + fracs[:, 2]) < np.median(short + long)
    # A real fraction of the cloud volumes keeps non-negligible
    # short-interval mass even under compression (bursty rewrites).
    assert np.mean(fracs_a[:, 0] > 0.05) > 0.15


def test_fig18_lru_miss_ratios(sections):
    """Finding 15: AliCloud gains more from a larger LRU cache."""
    mr_a, mr_m = sections["Figure 18 / Finding 15"]

    def q25(arr):
        return float(np.percentile(arr, 25))

    # Larger cache lowers the miss-ratio distribution in both traces.
    for mr in (mr_a, mr_m):
        assert q25(mr.read[0.10]) <= q25(mr.read[0.01])
        assert q25(mr.write[0.10]) <= q25(mr.write[0.01])
        # Writes cache better than reads (write aggregation, Finding 9).
        assert q25(mr.write[0.10]) < q25(mr.read[0.10])
    # AliCloud gains more from 1% -> 10% than MSRC (reads).
    gain_a = q25(mr_a.read[0.01]) - q25(mr_a.read[0.10])
    gain_m = q25(mr_m.read[0.01]) - q25(mr_m.read[0.10])
    assert gain_a > gain_m
    # Some AliCloud volumes already below 50% read misses at a 1% cache.
    assert np.mean(mr_a.read[0.01] < 0.5) > 0.0
