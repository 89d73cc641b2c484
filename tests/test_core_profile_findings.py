"""Tests for repro.core.volume_profile and repro.core.findings."""

import numpy as np
import pytest

from repro.core import (
    FINDING_TITLES,
    burstiness_ratio,
    compute_profile,
    evaluate_findings,
    interarrival_percentile_groups,
    peak_intensity,
)
from repro.core.volume_profile import _interarrival_groups

from conftest import TEST_SCALE, make_trace

BS = 4096


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestVolumeProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        tr = make_trace(
            "p0",
            timestamps=[0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
            offsets=[0, 0, BS, BS, 0, 2 * BS],
            sizes=[BS] * 6,
            is_write=[True, True, False, False, False, True],
        )
        return compute_profile(tr)

    def test_counts(self, profile):
        assert profile.n_requests == 6
        assert profile.n_writes == 3
        assert profile.n_reads == 3
        assert profile.write_bytes == 3 * BS

    def test_intensity(self, profile):
        assert profile.average_intensity == pytest.approx(6 / 50)
        assert profile.duration_seconds == 50.0

    def test_ratio_and_dominance(self, profile):
        assert profile.write_read_ratio == pytest.approx(1.0)
        assert not profile.is_write_dominant

    def test_spatial(self, profile):
        ws = profile.working_sets
        assert ws.total == 3 * BS
        assert ws.update == BS  # block 0 written twice
        assert profile.update_coverage == pytest.approx(1 / 3)

    def test_temporal_medians(self, profile):
        # Block 0: W@0, W@10, R@40 -> WAW 10, RAW 30.
        assert profile.median_waw_time == pytest.approx(10.0)
        assert profile.median_raw_time == pytest.approx(30.0)
        # Block 1: R@20, R@30 -> RAR 10.
        assert profile.median_rar_time == pytest.approx(10.0)
        assert np.isnan(profile.median_war_time)
        assert profile.median_update_interval == pytest.approx(10.0)

    def test_cache_fields_are_ratios(self, profile):
        for field in (
            "read_miss_ratio_1pct",
            "write_miss_ratio_1pct",
            "read_miss_ratio_10pct",
            "write_miss_ratio_10pct",
        ):
            value = getattr(profile, field)
            assert np.isnan(value) or 0 <= value <= 1

    def test_to_dict_serializable(self, profile):
        import json

        d = profile.to_dict()
        assert d["volume_id"] == "p0"
        assert d["working_sets"]["update"] == BS
        # NaN is not JSON-strict but dict structure must be flat values.
        json.dumps(d)  # Python's json allows NaN by default

    def test_to_dict_holds_scalar_fields_only(self, profile):
        keys = list(profile.to_dict())
        assert keys[:2] == ["volume_id", "n_requests"]
        assert keys[-1] == "write_miss_ratio_10pct"
        for pooled in ("update_traffic", "mostly_bytes", "transitions", "update_intervals",
                       "miss_ratios", "interarrival_percentiles"):
            assert pooled not in keys

    def test_burstiness_uses_peak_interval(self, tiny_ali):
        interval = TEST_SCALE.peak_interval
        for v in tiny_ali.non_empty_volumes()[:3]:
            p = compute_profile(v, peak_interval=interval)
            assert p.peak_intensity == peak_intensity(v, interval)
            assert _same(p.burstiness_ratio, burstiness_ratio(v, interval))

    def test_interarrival_percentiles_match_dataset_groups(self, tiny_msrc):
        profiles = [compute_profile(v) for v in tiny_msrc.non_empty_volumes()]
        want = interarrival_percentile_groups(tiny_msrc)
        got = _interarrival_groups(profiles)
        assert list(got) == list(want)
        for q in want:
            assert got[q].tolist() == want[q].tolist()

    def test_fleet_profiles(self, tiny_ali):
        for v in tiny_ali.non_empty_volumes()[:3]:
            p = compute_profile(v)
            assert p.n_requests == len(v)
            assert 0 <= p.randomness_ratio <= 1


class TestFindings:
    @pytest.fixture(scope="class")
    def findings(self, tiny_ali, tiny_msrc):
        return evaluate_findings(
            tiny_ali,
            tiny_msrc,
            peak_interval=TEST_SCALE.peak_interval,
            activity_interval=TEST_SCALE.activity_interval,
        )

    def test_all_15_present(self, findings):
        assert [f.id for f in findings] == list(range(1, 16))
        for f in findings:
            assert f.title == FINDING_TITLES[f.id]

    def test_evidence_attached(self, findings):
        for f in findings:
            assert f.evidence, f"finding {f.id} has no evidence"

    def test_evidence_is_plain_python(self, findings):
        """Evidence holds no numpy scalars, so ``findings --verbose`` prints
        the same under every numpy version."""

        def plain(value):
            if type(value) is tuple:
                return all(plain(v) for v in value)
            if type(value) is dict:
                return all(plain(k) and plain(v) for k, v in value.items())
            return type(value) in (int, float, bool, str)

        for f in findings:
            for key, value in f.evidence.items():
                assert plain(value), (f.id, key, value)

    def test_str_format(self, findings):
        text = str(findings[0])
        assert "Finding  1" in text
        assert ("HOLDS" in text) or ("DIFFERS" in text)

    def test_most_findings_hold_on_tiny_fleets(self, findings):
        # Tiny fleets are noisy and several metrics are scale-sensitive
        # (randomness needs realistic working-set sizes, activeness needs
        # enough intervals); only the strong structural contrasts are
        # required here — the canonical-fleet test below demands 13+.
        held = {f.id for f in findings if f.holds}
        assert {11, 12}.issubset(held)  # update coverage, WAW >> RAW
        assert len(held) >= 8

    def test_canonical_fleets_hold_all(self):
        """The defaults documented in EXPERIMENTS.md give 15/15."""
        pytest.importorskip("numpy")
        from repro.synth import Scale, make_alicloud_fleet, make_msrc_fleet

        scale = Scale(n_days=31, day_seconds=120.0)
        mscale = Scale(n_days=7, day_seconds=120.0)
        ali = make_alicloud_fleet(n_volumes=60, seed=0, scale=scale)
        msrc = make_msrc_fleet(n_volumes=36, seed=1, scale=mscale)
        findings = evaluate_findings(
            ali, msrc,
            peak_interval=scale.peak_interval,
            activity_interval=scale.activity_interval,
        )
        held = sum(f.holds for f in findings)
        assert held >= 13, [str(f) for f in findings if not f.holds]
