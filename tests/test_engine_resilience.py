"""Engine fault tolerance: error policies, retries, timeouts, recovery.

The core promise under test: with a deterministic fault plan, a resilient
run produces bit-identical per-volume results and identical error
accounting at any worker count.
"""

import dataclasses

import pytest

from repro import faults
from repro.engine import parallel_map, resilient_map, run, run_dataset
from repro.engine.analyzers import StreamingProfileAnalyzer, TemporalAnalyzer
from repro.faults import FaultPlan, InjectedFault
from repro.resilience import RetryPolicy, RunErrors, UnitTimeoutError
from repro.trace import TraceFormatError


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults._reset_for_tests()
    yield
    faults._reset_for_tests()


NO_BACKOFF = RetryPolicy(max_retries=2, backoff_base=0.0)


def _write(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(rows)


@pytest.fixture()
def dirty_dir(tmp_path):
    """Three files; f1 carries two malformed lines among good ones."""
    d = tmp_path / "traces"
    d.mkdir()
    _write(d / "f0.csv", [
        "vol0,W,0,4096,1000000\n",
        "vol0,R,4096,4096,2000000\n",
        "vol0,W,8192,4096,3000000\n",
    ])
    _write(d / "f1.csv", [
        "vol1,W,0,4096,1000000\n",
        "THIS IS NOT A TRACE LINE\n",
        "vol1,R,4096,4096,2000000\n",
        "vol1,R,bad_offset,4096,3000000\n",
        "vol1,W,8192,4096,4000000\n",
    ])
    _write(d / "f2.csv", [
        "vol2,R,0,8192,1500000\n",
        "vol2,W,0,4096,2500000\n",
    ])
    return str(d)


def _comparable(result):
    return {
        name: {vid: dataclasses.asdict(r) for vid, r in per_vol.items()}
        for name, per_vol in result.per_volume.items()
    }


def _double(x):
    return x * 2


class TestErrorPolicies:
    def test_strict_raises(self, dirty_dir):
        with pytest.raises(TraceFormatError, match="line 2"):
            run(dirty_dir, [StreamingProfileAnalyzer()])

    def test_skip_drops_and_counts(self, dirty_dir):
        result = run(dirty_dir, [StreamingProfileAnalyzer()], on_error="skip")
        assert result.volume_ids() == ["vol0", "vol1", "vol2"]
        assert result.errors.skipped_lines == 2
        assert result.errors.quarantine_sample == []
        # The three good vol1 rows survived.
        assert result.analyzer("streaming_profile")["vol1"].n_requests == 3

    def test_quarantine_counts_and_samples(self, dirty_dir):
        result = run(dirty_dir, [StreamingProfileAnalyzer()], on_error="quarantine")
        errors = result.errors
        assert errors.quarantined_lines == 2
        assert [r.lineno for r in errors.quarantine_sample] == [2, 4]
        assert all(r.file.endswith("f1.csv") for r in errors.quarantine_sample)
        assert "expected 5" in errors.quarantine_sample[0].reason
        assert errors.quarantine_sample[1].line.startswith("vol1,R,bad_offset")

    def test_policy_identical_across_worker_counts(self, dirty_dir):
        sequential = run(dirty_dir, _analyzers(), on_error="quarantine", workers=1)
        pooled = run(dirty_dir, _analyzers(), on_error="quarantine", workers=4)
        assert _comparable(sequential) == _comparable(pooled)
        assert sequential.errors.quarantined_lines == pooled.errors.quarantined_lines
        assert len(sequential.errors.quarantine_sample) == len(
            pooled.errors.quarantine_sample
        )

    def test_unknown_policy_rejected(self, dirty_dir):
        with pytest.raises(ValueError, match="unknown error policy"):
            run(dirty_dir, [StreamingProfileAnalyzer()], on_error="yolo")


def _analyzers():
    return [TemporalAnalyzer(), StreamingProfileAnalyzer()]


class TestInjectedCorruption:
    def test_seeded_corruption_identical_at_any_worker_count(self, tmp_path):
        d = tmp_path / "fleet"
        d.mkdir()
        for i in range(4):
            _write(d / f"g{i}.csv", [
                f"vol{i},W,{j * 4096},4096,{1000000 * (j + 1)}\n" for j in range(50)
            ])
        faults.activate(FaultPlan(corrupt_rate=0.1, corrupt_seed=42))
        sequential = run(str(d), _analyzers(), on_error="quarantine", workers=1)
        pooled = run(str(d), _analyzers(), on_error="quarantine", workers=4)
        assert sequential.errors.quarantined_lines > 0
        assert _comparable(sequential) == _comparable(pooled)
        assert sequential.errors.quarantined_lines == pooled.errors.quarantined_lines
        # And again at a chunk size that splits every file into many batches.
        rechunked = run(
            str(d), _analyzers(), on_error="quarantine", workers=2, chunk_size=7
        )
        assert _comparable(sequential) == _comparable(rechunked)
        assert sequential.errors.quarantined_lines == rechunked.errors.quarantined_lines


class TestRetries:
    def test_crash_recovered_by_retry(self, dirty_dir):
        faults.activate(FaultPlan(crash_units=("f0.csv",), crash_attempts=1))
        result = run(
            dirty_dir, [StreamingProfileAnalyzer()], on_error="quarantine", retry=NO_BACKOFF
        )
        assert result.volume_ids() == ["vol0", "vol1", "vol2"]
        assert result.errors.retries == 1
        assert result.errors.failed_units == []

    def test_crash_without_retry_drops_unit(self, dirty_dir):
        faults.activate(FaultPlan(crash_units=("f0.csv",), crash_attempts=10))
        result = run(dirty_dir, [StreamingProfileAnalyzer()], on_error="quarantine")
        assert result.volume_ids() == ["vol1", "vol2"]
        (failure,) = result.errors.failed_units
        assert failure.unit == "f0.csv"
        assert failure.kind == "exception"
        assert failure.attempts == 1
        assert "InjectedFault" in failure.error

    def test_crash_exhausting_budget_still_fails(self, dirty_dir):
        faults.activate(FaultPlan(crash_units=("f0.csv",), crash_attempts=10))
        result = run(
            dirty_dir, [StreamingProfileAnalyzer()], on_error="quarantine", retry=NO_BACKOFF
        )
        (failure,) = result.errors.failed_units
        assert failure.attempts == NO_BACKOFF.max_attempts
        assert result.errors.retries == NO_BACKOFF.max_retries

    def test_strict_raises_after_budget(self, dirty_dir):
        faults.activate(FaultPlan(crash_units=("f2.csv",), crash_attempts=10))
        with pytest.raises(InjectedFault):
            run([dirty_dir + "/f2.csv"], [StreamingProfileAnalyzer()], retry=NO_BACKOFF)

    def test_pooled_crash_matches_sequential(self, dirty_dir):
        faults.activate(FaultPlan(crash_units=("f0.csv",), crash_attempts=1))
        sequential = run(
            dirty_dir, _analyzers(), on_error="quarantine", retry=NO_BACKOFF, workers=1
        )
        faults.activate(FaultPlan(crash_units=("f0.csv",), crash_attempts=1))
        pooled = run(
            dirty_dir, _analyzers(), on_error="quarantine", retry=NO_BACKOFF, workers=3
        )
        assert _comparable(sequential) == _comparable(pooled)
        assert sequential.errors.retries == pooled.errors.retries == 1


class TestPoolBreakRecovery:
    def test_killed_worker_recovers_bit_identically(self, dirty_dir):
        retry = RetryPolicy(max_retries=1, backoff_base=0.0)
        faults.activate(FaultPlan(crash_units=("f1.csv",), crash_kind="kill"))
        pooled = run(
            dirty_dir, _analyzers(), on_error="quarantine", retry=retry, workers=4
        )
        assert pooled.errors.pool_breaks >= 1
        faults.activate(FaultPlan(crash_units=("f1.csv",), crash_kind="kill"))
        sequential = run(
            dirty_dir, _analyzers(), on_error="quarantine", retry=retry, workers=1
        )
        assert sequential.errors.pool_breaks == 0  # kill degrades to raise
        assert _comparable(sequential) == _comparable(pooled)
        assert pooled.volume_ids() == ["vol0", "vol1", "vol2"]


class TestResilientMap:
    def test_failed_unit_slot_is_none(self):
        faults.activate(FaultPlan(crash_units=(1,), crash_attempts=10))
        outs, errors = resilient_map(_double, [10, 20, 30], workers=1)
        assert outs == [20, None, 60]
        assert [f.index for f in errors.failed_units] == [1]

    def test_progress_monotonic_despite_retries(self):
        faults.activate(FaultPlan(crash_units=(0, 2), crash_attempts=1))
        calls = []
        outs, errors = resilient_map(
            _double, [1, 2, 3, 4], workers=2,
            retry=NO_BACKOFF, progress=lambda done, total: calls.append((done, total)),
        )
        assert outs == [2, 4, 6, 8]
        assert errors.retries == 2
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_caller_errors_object_accumulates(self):
        shared = RunErrors(policy="skip")
        faults.activate(FaultPlan(crash_units=(0,), crash_attempts=10))
        _, returned = resilient_map(_double, [1], workers=1, errors=shared)
        assert returned is shared
        assert len(shared.failed_units) == 1


class TestParallelMapFailFast:
    def test_pool_failure_raises_and_cancels(self):
        faults.activate(FaultPlan(crash_units=(2,), crash_attempts=10))
        with pytest.raises(InjectedFault):
            parallel_map(_double, list(range(12)), workers=3)

    def test_retry_heals_fail_fast_path(self):
        faults.activate(FaultPlan(crash_units=(2,), crash_attempts=1))
        assert parallel_map(_double, [1, 2, 3], workers=2, retry=NO_BACKOFF) == [2, 4, 6]


class TestUnitTimeout:
    def test_timeout_fails_unit(self):
        faults.activate(FaultPlan(slow_units=(1,), slow_seconds=10.0, slow_attempts=5))
        outs, errors = resilient_map(
            _double, [1, 2, 3], workers=2, unit_timeout=0.3
        )
        assert outs == [2, None, 6]
        assert errors.timeouts == 1
        (failure,) = errors.failed_units
        assert failure.kind == "timeout"

    def test_timeout_retry_recovers(self):
        faults.activate(FaultPlan(slow_units=(1,), slow_seconds=10.0, slow_attempts=1))
        outs, errors = resilient_map(
            _double, [1, 2, 3], workers=2, unit_timeout=0.3,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
        )
        assert outs == [2, 4, 6]
        assert errors.timeouts == 1
        assert errors.failed_units == []

    def test_strict_timeout_raises(self):
        faults.activate(FaultPlan(slow_units=(0,), slow_seconds=10.0, slow_attempts=5))
        with pytest.raises(UnitTimeoutError):
            parallel_map(_double, [1, 2], workers=2, unit_timeout=0.3)


class TestRunDatasetResilience:
    def test_failed_volume_dropped_not_fatal(self, simple_dataset):
        faults.activate(FaultPlan(crash_units=("v0",), crash_attempts=10))
        result = run_dataset(simple_dataset, [StreamingProfileAnalyzer()], on_error="skip")
        assert result.volume_ids() == ["v1"]
        (failure,) = result.errors.failed_units
        assert failure.unit == "v0"

    def test_strict_dataset_crash_raises(self, simple_dataset):
        faults.activate(FaultPlan(crash_units=("v0",), crash_attempts=10))
        with pytest.raises(InjectedFault):
            run_dataset(simple_dataset, [StreamingProfileAnalyzer()])
